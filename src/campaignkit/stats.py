"""The analytics module's ANOVA and Mann-Whitney statistic, and Cohen's kappa for
two coders' labels. An input one is not defined for raises ``DegenerateInput``
(``EmptyInput`` for no labels).

Self-contained on purpose: the F-distribution tail comes from a
continued-fraction evaluation of the regularized incomplete beta function,
checked in the test suite against a brute-force quadrature oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .model import CampaignError


class DegenerateInput(CampaignError):
    """The input cannot support the requested decomposition."""


class EmptyInput(CampaignError):
    pass


# -- regularized incomplete beta ------------------------------------------------

_MAX_CF_ITERATIONS = 300
_CF_EPS = 1e-15
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method).

    Evaluates the fraction in

        I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * [1/(1+ d_1/(1+ d_2/(1+ ...)))]

    with the standard even/odd coefficients

        d_{2m}   = m (b-m) x / ((a+2m-1)(a+2m))
        d_{2m+1} = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)).
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITERATIONS + 1):
        m2 = 2 * m
        # One Lentz step for d_{2m}, then one for d_{2m+1}; converged after the odd one.
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DegenerateInput(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise DegenerateInput("incomplete beta requires positive shape parameters")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(log_front)
    # Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) where the fraction
    # converges fastest; the front factor is invariant under that swap.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(f_value: float, df_between: int, df_within: int) -> float:
    """Upper-tail probability of the F distribution: P(F' >= f_value), 0 at F = inf."""
    if f_value <= 0.0:
        return 1.0
    x = df_within / (df_within + df_between * f_value)
    return incomplete_beta(df_within / 2.0, df_between / 2.0, x)


# -- one-way ANOVA ------------------------------------------------------------

@dataclass(frozen=True)
class AnovaResult:
    df_between: int
    df_within: int
    F: float
    p_value: float


def one_way_anova(samples: Sequence[Sequence[float]]) -> AnovaResult:
    """Classical between/within decomposition over k groups.

    F = MS_between / MS_within with df (k-1, N-k); the p-value is the upper
    tail of the F distribution. A zero within-group variance with nonzero
    between-group variance yields F = +inf (p = 0); identical constant groups
    yield F = 0 (p = 1).
    """
    if len(samples) < 2:
        raise DegenerateInput("need at least two groups")
    groups = [list(map(float, group)) for group in samples]
    if any(len(group) == 0 for group in groups):
        raise DegenerateInput("every group needs at least one observation")
    n_total = sum(len(group) for group in groups)
    k = len(groups)
    df_between = k - 1
    df_within = n_total - k
    if df_within < 1:
        raise DegenerateInput("no residual degrees of freedom")
    sums = [sum(group) for group in groups]
    means = [total / len(group) for total, group in zip(sums, groups)]
    grand_mean = sum(sums) / n_total
    ss_between = sum(len(g) * (mean - grand_mean) ** 2 for g, mean in zip(groups, means))
    ss_within = sum(sum((x - mean) ** 2 for x in g) for g, mean in zip(groups, means))
    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(df_between, df_within, 0.0, 1.0)
        return AnovaResult(df_between, df_within, math.inf, 0.0)
    f_value = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(df_between, df_within, f_value, f_sf(f_value, df_between, df_within))


# -- Cohen's kappa ---------------------------------------------------------------

def cohen_kappa(
    labels_a: Mapping[Hashable, Hashable], labels_b: Mapping[Hashable, Hashable]
) -> float:
    """Two-coder agreement corrected for chance.

    kappa = (p_o - p_e) / (1 - p_e), where p_o is the observed fraction of
    agreeing items and p_e the chance agreement from the product of the two
    coders' marginal distributions. Both coders must label the same items.
    p_e is 1 only when both used one and the same label; kappa is then 1.
    """
    if not labels_a or not labels_b:
        raise EmptyInput("both coders must provide labels")
    if set(labels_a) != set(labels_b):
        raise DegenerateInput("coders labeled different item sets")
    n = len(labels_a)
    observed = sum(1 for item in labels_a if labels_a[item] == labels_b[item]) / n
    marginal_a, marginal_b = Counter(labels_a.values()), Counter(labels_b.values())
    chance = sum(count * marginal_b[label] for label, count in marginal_a.items())
    if chance == n * n:
        return 1.0
    expected = chance / (n * n)
    return (observed - expected) / (1.0 - expected)


# -- Mann-Whitney pair counting --------------------------------------------------------

def mann_whitney_rho_sparse(
    nonzero_a: Sequence[float], nonzero_b: Sequence[float], n_a: int, n_b: int
) -> float:
    """Normalized Mann-Whitney statistic over groups given by their nonzeros.

    Group A has ``n_a`` values: the listed ``nonzero_a`` and, for the rest,
    implied zeros; likewise group B. U_A counts the (a, b) pairs with a > b
    plus one half of the pairs with a == b, and rho = U_A / (n_A n_B). B's
    listed values are sorted once and each listed A value is placed among
    them by bisection; the implied zeros of both sides form one tie block
    handled in closed form, so the cost depends on the listed values only.
    A listed value that equals zero is counted like an implied one.

    U_A is counted as the integer 2 U_A, so the result is exactly the one
    that tie-averaged ranks give.
    """
    if n_a <= 0 or n_b <= 0:
        raise DegenerateInput("both groups need at least one value")
    zeros_a = n_a - len(nonzero_a)
    zeros_b = n_b - len(nonzero_b)
    if zeros_a < 0 or zeros_b < 0:
        raise DegenerateInput("more listed values than the group holds")
    b_sorted = sorted(nonzero_b)
    b_below_zero = bisect_left(b_sorted, 0.0)
    b_at_zero = bisect_right(b_sorted, 0.0) - b_below_zero
    # Pairs of A's implied zeros: with B's negatives, listed zeros, implied zeros.
    twice_u = zeros_a * (2 * b_below_zero + b_at_zero + zeros_b)
    for x in nonzero_a:
        # Twice the listed B values below x, plus those equal to x.
        twice_u += bisect_left(b_sorted, x) + bisect_right(b_sorted, x)
        if x > 0.0:
            twice_u += 2 * zeros_b
        elif x == 0.0:
            twice_u += zeros_b
    return twice_u / (2 * n_a * n_b)


def mann_whitney_rho(values_a: Sequence[float], values_b: Sequence[float]) -> float:
    """Normalized Mann-Whitney statistic for group A over group B.

    rho = U_A / (n_A n_B) in [0, 1], where U_A counts the (a, b) pairs with
    a > b plus half of the tied pairs; this equals the rank-sum form with
    tie-averaged ranks. rho > 0.5 means A's values tend to exceed B's;
    identical pooled distributions give exactly 0.5. Invariant under any
    strictly monotone transform of the values, since only order enters.
    Counted by :func:`mann_whitney_rho_sparse` with the zeros left implied.
    """
    return mann_whitney_rho_sparse(
        [v for v in values_a if v != 0.0], [v for v in values_b if v != 0.0],
        len(values_a), len(values_b),
    )
