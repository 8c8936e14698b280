import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from campaignkit.stats import (
    AnovaResult,
    DegenerateInput,
    EmptyInput,
    cohen_kappa,
    f_sf,
    incomplete_beta,
    mann_whitney_rho,
    mann_whitney_rho_sparse,
    one_way_anova,
)


# -- incomplete beta against a quadrature oracle -------------------------------

def _beta_cdf_quadrature(a: float, b: float, x: float, panels: int = 40000) -> float:
    """Brute-force normalized integral of t^(a-1) (1-t)^(b-1) via Simpson.

    Substituting t = sin^2(theta) turns the integrand into
    2 sin^(2a-1) cos^(2b-1), bounded for a, b >= 1/2, so the quadrature
    converges even where the raw density blows up at the endpoints.
    """
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        c = math.cos(theta)
        if s <= 0.0 or c <= 0.0:
            # Limits are finite for a, b >= 1/2: zero unless the exponent is 0.
            if s <= 0.0:
                return 2.0 * c ** (2 * b - 1) * math.exp(-log_norm) if 2 * a - 1 == 0 else 0.0
            return 2.0 * s ** (2 * a - 1) * math.exp(-log_norm) if 2 * b - 1 == 0 else 0.0
        return 2.0 * math.exp(
            (2 * a - 1) * math.log(s) + (2 * b - 1) * math.log(c) - log_norm
        )

    hi = math.asin(math.sqrt(x))
    h = hi / panels
    total = integrand(0.0) + integrand(hi)
    for i in range(1, panels):
        total += integrand(i * h) * (4 if i % 2 else 2)
    return total * h / 3


@pytest.mark.parametrize(
    "a,b,x",
    [
        (0.5, 0.5, 0.3),
        (1.0, 3.0, 0.2),
        (2.0, 2.0, 0.5),
        (1.5, 87.0, 0.02),
        (3.0, 174.0, 0.1),
        (87.0, 1.5, 0.97),
        (10.0, 10.0, 0.75),
        (466.0, 1.5, 0.995),
    ],
)
def test_incomplete_beta_matches_quadrature(a, b, x):
    assert incomplete_beta(a, b, x) == pytest.approx(
        _beta_cdf_quadrature(a, b, x), abs=1e-8
    )


def test_incomplete_beta_bounds():
    assert incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(DegenerateInput):
        incomplete_beta(0.0, 1.0, 0.5)
    # Shapes this large need more continued-fraction terms than the limit.
    with pytest.raises(DegenerateInput, match="^incomplete beta failed to converge for a=1000000.0"):
        incomplete_beta(1e6, 1e6, 0.4999)


def test_f_sf_against_quadrature():
    # P(F >= f) with (d1, d2) df equals I_{d2/(d2+d1 f)}(d2/2, d1/2).
    for f_value, d1, d2 in [(16.0, 2, 3), (38.94, 3, 174), (1.0, 5, 10), (0.5, 3, 932)]:
        x = d2 / (d2 + d1 * f_value)
        expected = _beta_cdf_quadrature(d2 / 2, d1 / 2, x)
        assert f_sf(f_value, d1, d2) == pytest.approx(expected, abs=1e-8)


def test_f_sf_at_the_ends_of_its_range():
    # An infinite F maps to x = 0; no F at or below 0 reaches the beta, whose
    # x at F = -df_within / df_between would divide by zero.
    assert [f_sf(f, 2, 10) for f in (math.inf, 0.0, -1e-300, -5.0)] == [0.0, 1.0, 1.0, 1.0]


# -- one-way ANOVA ------------------------------------------------------------

def test_anova_hand_computed_fixture():
    # groups {1,2},{3,4},{5,6}: SS_between = 16, MS_within = 0.5, F = 16.
    result = one_way_anova([[1, 2], [3, 4], [5, 6]])
    assert result.df_between == 2
    assert result.df_within == 3
    assert result.F == pytest.approx(16.0, abs=1e-9)


def test_anova_identical_groups():
    result = one_way_anova([[4, 4], [4, 4], [4, 4]])
    assert result.F == 0.0
    assert result.p_value == 1.0


def test_anova_zero_within_variance():
    result = one_way_anova([[1, 1], [2, 2]])
    assert math.isinf(result.F)
    assert result.p_value == 0.0


def test_anova_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        one_way_anova([[1, 2]])
    with pytest.raises(DegenerateInput, match="^every group needs at least one observation$"):
        one_way_anova([[1, 2, 3], []])
    with pytest.raises(DegenerateInput):
        one_way_anova([[1], [2]])


def _pooled_t_squared(a, b):
    """Equal-variance two-sample t statistic, squared; the F = t^2 oracle."""
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    ssa = sum((x - ma) ** 2 for x in a)
    ssb = sum((x - mb) ** 2 for x in b)
    pooled = (ssa + ssb) / (na + nb - 2)
    t = (ma - mb) / math.sqrt(pooled * (1 / na + 1 / nb))
    return t * t


def test_anova_equals_t_squared_for_two_groups():
    rng = random.Random(99)
    for _ in range(100):
        na = rng.randint(2, 12)
        nb = rng.randint(2, 12)
        a = [rng.gauss(0, 1) for _ in range(na)]
        b = [rng.gauss(0.5, 2) for _ in range(nb)]
        result = one_way_anova([a, b])
        assert result.F == pytest.approx(_pooled_t_squared(a, b), rel=1e-9)


def _anova_two_pass(samples):
    """Reference ANOVA: group means in one pass, squared deviations in a second."""
    groups = [[float(x) for x in g] for g in samples]
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    means = [sum(g) / len(g) for g in groups]
    grand_mean = sum(sum(g) for g in groups) / n_total
    ss_between = sum(len(g) * (m - grand_mean) ** 2 for g, m in zip(groups, means))
    ss_within = sum(sum((x - m) ** 2 for x in g) for g, m in zip(groups, means))
    f_value = (ss_between / (k - 1)) / (ss_within / (n_total - k))
    return AnovaResult(k - 1, n_total - k, f_value, f_sf(f_value, k - 1, n_total - k))


def test_anova_large_sample_equals_two_pass_reference():
    # Four groups, 3,000 observations: per-message reply counts plus noise.
    rng = random.Random(2015)
    samples = [
        [rng.choice([0, 0, 1, 2, 3]) + rng.random() * shift for _ in range(size)]
        for size, shift in ((450, 0.0), (650, 0.5), (850, 1.0), (1050, 0.25))
    ]
    assert one_way_anova(samples) == _anova_two_pass(samples)


# -- Cohen's kappa ----------------------------------------------------------------

def test_kappa_perfect_agreement():
    labels = {f"u{i}": i % 2 for i in range(20)}
    assert cohen_kappa(labels, dict(labels)) == 1.0


def test_kappa_chance_level():
    # One coder constant, the other 50/50: observed = expected = 0.5.
    labels_a = {f"u{i}": "on" for i in range(20)}
    labels_b = {f"u{i}": "on" if i % 2 == 0 else "off" for i in range(20)}
    assert cohen_kappa(labels_a, labels_b) == pytest.approx(0.0, abs=1e-12)
    # Each coder used one label, not the same one: no agreement of either kind.
    assert cohen_kappa({"u1": "on", "u2": "on"}, {"u1": "off", "u2": "off"}) == 0.0


def test_kappa_symmetric_in_coders():
    rng = random.Random(3)
    labels_a = {f"u{i}": rng.choice(["on", "off"]) for i in range(60)}
    labels_b = {f"u{i}": rng.choice(["on", "off"]) for i in range(60)}
    assert cohen_kappa(labels_a, labels_b) == pytest.approx(
        cohen_kappa(labels_b, labels_a), abs=1e-15
    )


def test_kappa_errors():
    with pytest.raises(EmptyInput):
        cohen_kappa({}, {})
    with pytest.raises(DegenerateInput):
        cohen_kappa({"a": 1}, {"b": 1})


def test_kappa_single_category_unanimous():
    labels = {f"u{i}": "on" for i in range(5)}
    assert cohen_kappa(labels, dict(labels)) == 1.0


# -- Mann-Whitney ------------------------------------------------------------------

def test_rho_complete_separation():
    # A = [5, 6], B = [1, 2]: U_A = 4 = n_A * n_B, rho = 1.
    assert mann_whitney_rho([5, 6], [1, 2]) == 1.0
    assert mann_whitney_rho([1, 2], [5, 6]) == 0.0


def test_rho_identical_samples():
    assert mann_whitney_rho([1, 2, 3], [1, 2, 3]) == 0.5


def _rho_pairwise_oracle(a, b):
    """Brute-force over all (a, b) pairs: wins plus half-ties over n_A n_B."""
    wins = sum(1.0 for x in a for y in b if x > y)
    ties = sum(1.0 for x in a for y in b if x == y)
    return (wins + 0.5 * ties) / (len(a) * len(b))


def test_rho_matches_pairwise_oracle_exhaustive():
    # Every split with up to 6 values drawn from a small grid.
    values = [0.0, 0.5, 1.0]
    for na in (1, 2, 3):
        for nb in (1, 2, 3):
            for combo in itertools.product(values, repeat=na + nb):
                a = list(combo[:na])
                b = list(combo[na:])
                assert mann_whitney_rho(a, b) == pytest.approx(
                    _rho_pairwise_oracle(a, b), abs=1e-12
                )


def test_rho_monotone_transform_invariance():
    rng = random.Random(12)
    for _ in range(50):
        a = [rng.uniform(0, 1) for _ in range(rng.randint(2, 6))]
        b = [rng.uniform(0, 1) for _ in range(rng.randint(2, 6))]
        base = mann_whitney_rho(a, b)
        for transform in (lambda x: x ** 3, math.exp, lambda x: 10 * x + 2):
            assert mann_whitney_rho(
                [transform(x) for x in a], [transform(x) for x in b]
            ) == pytest.approx(base, abs=1e-12)


def test_rho_rejects_empty_group():
    with pytest.raises(DegenerateInput):
        mann_whitney_rho([], [1.0])


_EDGE_VALUES = (-math.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf)
_VALUES = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False))


@st.composite
def _sparse_group(draw):
    """(listed values, group size): a few listed values, zeros or not, and
    up to 40 implied zeros on top; the group is never empty."""
    listed = draw(st.lists(_VALUES, max_size=8))
    implied = draw(st.integers(min_value=0 if listed else 1, max_value=40))
    return listed, len(listed) + implied


@given(_sparse_group(), _sparse_group())
@example(([], 5), ([], 3))  # both groups all implied zeros
@example(([], 4), ([-1.0, math.inf], 2))
@example(([0.5, 0.5, -0.0], 30), ([0.5, -math.inf], 2))
def test_sparse_rho_equals_dense_rho_and_pairwise_oracle(group_a, group_b):
    listed_a, n_a = group_a
    listed_b, n_b = group_b
    dense_a = listed_a + [0.0] * (n_a - len(listed_a))
    dense_b = listed_b + [0.0] * (n_b - len(listed_b))
    rho = mann_whitney_rho_sparse(listed_a, listed_b, n_a, n_b)
    assert rho == mann_whitney_rho(dense_a, dense_b)
    assert rho == _rho_pairwise_oracle(dense_a, dense_b)


def test_sparse_rho_rejects_bad_group_sizes():
    with pytest.raises(DegenerateInput):
        mann_whitney_rho_sparse([], [1.0], 0, 3)
    with pytest.raises(DegenerateInput):
        mann_whitney_rho_sparse([1.0], [], 2, 0)
    with pytest.raises(DegenerateInput):
        mann_whitney_rho_sparse([1.0, 2.0], [1.0], 1, 3)
