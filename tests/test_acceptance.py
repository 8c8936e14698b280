"""Acceptance criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail line
per criterion; every tolerance is pinned here.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from campaignkit import fixtures, model
from campaignkit.analytics import compute_metrics, labels_to_map, mann_whitney_keyterms
from campaignkit.cli import main
from campaignkit.eventlog import (
    EventLogWriter,
    conversation_members,
    read_events,
    validate_events,
)
from campaignkit.model import EventKind, OUTBOUND_KINDS
from campaignkit.orchestrator import Orchestrator
from campaignkit.simulator import derive_labels
from campaignkit.stats import cohen_kappa, mann_whitney_rho, one_way_anova

from conftest import StubPlatform, public_post, small_sim_config

ARMS = ("direct", "loss", "gain", "solidarity")
REFERENCE_RATES = {"direct": 81, "loss": 30, "gain": 43, "solidarity": 21}
REFERENCE_ON_TOPIC = {"direct": 94, "loss": 74, "gain": 89, "solidarity": 82}


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def _check_budget(events, budgets) -> None:
    """Criterion 4 predicate: per arm, every turn emits exactly its budget."""
    outbound_by_conv: dict[str, list] = {}
    for event in events:
        if event.kind in OUTBOUND_KINDS:
            outbound_by_conv.setdefault(event.conversation_id, []).append(event)
    for conv, sequence in outbound_by_conv.items():
        budget = budgets[sequence[0].strategy]
        if budget == 1:
            assert all(e.kind is not EventKind.OUTBOUND_QUOTE for e in sequence)
        else:
            assert len(sequence) % 2 == 0
            for i, event in enumerate(sequence):
                expected_quote = i % 2 == 1
                assert (event.kind is EventKind.OUTBOUND_QUOTE) == expected_quote


def _check_balance(events) -> None:
    """Criterion 5 predicate: per-arm call counts differ by <= 1 at every prefix."""
    counts = Counter({arm: 0 for arm in ARMS})
    for event in events:
        if event.kind is EventKind.OUTBOUND_CALL:
            counts[event.strategy] += 1
            assert max(counts.values()) - min(counts.values()) <= 1


def test_criterion_01_reference_table_exact():
    start = time.perf_counter()
    events = fixtures.build_reference_log()
    report = compute_metrics(events, arms=ARMS)
    elapsed = time.perf_counter() - start
    for arm in report.arms:
        assert round(100 * arm.reply_rate) == REFERENCE_RATES[arm.strategy]
    assert [a.volunteers for a in report.arms] == [94, 31, 27, 23]
    assert [a.volunteer_replies for a in report.arms] == [204, 53, 74, 92]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"fixture log reproduces the published columns exactly in {elapsed:.2f}s")


def test_criterion_02_simulated_campaign_statistical(acceptance_campaign):
    config, events, _path, elapsed = acceptance_campaign
    assert elapsed < 60.0, f"campaign took {elapsed:.1f}s"
    calls = Counter(e.strategy for e in events if e.kind is EventKind.OUTBOUND_CALL)
    assert all(calls[arm] == 1000 for arm in ARMS)
    labels = labels_to_map(derive_labels(events))
    report = compute_metrics(events, labels, arms=ARMS)
    for arm in report.arms:
        rate = 100 * arm.reply_rate
        assert abs(rate - REFERENCE_RATES[arm.strategy]) <= 3.0, (
            f"{arm.strategy} reply rate {rate:.1f} vs {REFERENCE_RATES[arm.strategy]}"
        )
        on_topic = 100 * arm.on_topic_fraction
        assert abs(on_topic - REFERENCE_ON_TOPIC[arm.strategy]) <= 3.0, (
            f"{arm.strategy} on-topic {on_topic:.1f} vs {REFERENCE_ON_TOPIC[arm.strategy]}"
        )
    _ok(
        2,
        "1,000-group-per-arm simulation lands within 3 points of the published "
        f"rates and on-topic fractions in {elapsed:.1f}s",
    )


def _one_touch_config():
    config = fixtures.default_config(groups_per_strategy_per_topic=1)
    return model.replace(
        config,
        topics=(model.Topic(name="corruption", keywords=("corrupcion",)),),
        jitter=model.JitterBounds(min_delay=1, max_delay=3),
        simulation={},
    )


def test_criterion_03_one_touch_property():
    config = _one_touch_config()
    budgets = {s.id: s.messages_per_turn for s in config.strategies}
    streams = 0
    for seed in range(100):
        rng = random.Random(seed)
        for _ in range(100):
            pool = [f"user{i:02d}" for i in range(rng.randint(10, 24))]
            posts = [
                public_post(rng.choice(pool), "basta de corrupcion", 1_000_000 + 900 * i, f"p{i}")
                for i in range(40)
            ]
            with EventLogWriter(None) as writer:
                orchestrator = Orchestrator(config, StubPlatform(posts), writer)
                orchestrator.run()
            mentioned = []
            for users in conversation_members(writer.events).values():
                mentioned.extend(users)
            assert len(mentioned) == len(set(mentioned)), f"double contact at seed {seed}"
            _check_budget(writer.events, budgets)
            _check_balance(writer.events)
            streams += 1
    assert streams == 10_000
    _ok(3, "zero double contacts over 10,000 duplicate-heavy streams (100 seeds)")


def test_criterion_04_message_budget(acceptance_campaign, small_campaign):
    for config, events, *_ in (acceptance_campaign[:2], small_campaign[:2]):
        budgets = {s.id: s.messages_per_turn for s in config.strategies}
        _check_budget(events, budgets)
        quotes = Counter()
        turns = Counter()
        for event in events:
            if event.kind is EventKind.OUTBOUND_QUOTE:
                quotes[event.strategy] += 1
            elif event.kind in (EventKind.OUTBOUND_CALL, EventKind.OUTBOUND_FOLLOWUP):
                turns[event.strategy] += 1
        for arm, budget in budgets.items():
            assert quotes[arm] == turns[arm] * (budget - 1)
    _ok(4, "every solidarity turn is 2 messages, every other turn 1, on all campaign logs")


def test_criterion_05_arm_balance(acceptance_campaign, small_campaign):
    _check_balance(acceptance_campaign[1])
    _check_balance(small_campaign[1])
    _ok(5, "per-arm call counts differ by at most 1 at every log prefix")


def test_criterion_06_anova_oracle():
    result = one_way_anova([[1, 2], [3, 4], [5, 6]])
    assert result.df_between == 2 and result.df_within == 3
    assert result.F == pytest.approx(16.0, abs=1e-9)

    def t_squared(a, b):
        na, nb = len(a), len(b)
        ma, mb = sum(a) / na, sum(b) / nb
        pooled = (sum((x - ma) ** 2 for x in a) + sum((x - mb) ** 2 for x in b)) / (na + nb - 2)
        t = (ma - mb) / math.sqrt(pooled * (1 / na + 1 / nb))
        return t * t

    rng = random.Random(606)
    for _ in range(100):
        a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 15))]
        b = [rng.gauss(1, 3) for _ in range(rng.randint(2, 15))]
        assert one_way_anova([a, b]).F == pytest.approx(t_squared(a, b), rel=1e-9)
    _ok(6, "F(2,3)=16.0 on the hand fixture; F = t^2 on 100 random two-group datasets")


def test_criterion_07_kappa():
    labels = {f"u{i}": ("on" if i % 3 else "off") for i in range(30)}
    assert cohen_kappa(labels, dict(labels)) == 1.0

    labels_a, labels_b = fixtures.build_kappa_labels()
    kappa = cohen_kappa(labels_a, labels_b)
    assert kappa == pytest.approx(0.62, abs=0.01)

    # Oracle: the fixture table is the brute-force argmin over all 2x2 tables
    # with 175 volunteers and 141 agreements.
    best = None
    for agree_on in range(142):
        agree_off = 141 - agree_on
        for a_only in range(35):
            b_only = 34 - a_only
            p_o = 141 / 175
            p_e = (
                (agree_on + a_only) * (agree_on + b_only)
                + (agree_off + b_only) * (agree_off + a_only)
            ) / 175**2
            k = (p_o - p_e) / (1 - p_e)
            if best is None or abs(k - 0.62) < abs(best - 0.62):
                best = k
    assert kappa == pytest.approx(best, abs=1e-12)
    _ok(7, f"perfect agreement gives 1.0; the 175-volunteer fixture gives {kappa:.4f}")


def test_criterion_08_mann_whitney():
    # Exhaustive small instances against an independent pairwise-count oracle.
    def pairwise(a, b):
        wins = sum(1.0 for x in a for y in b if x > y)
        ties = sum(1.0 for x in a for y in b if x == y)
        return (wins + 0.5 * ties) / (len(a) * len(b))

    grid = [0.0, 0.5, 1.0]
    checked = 0
    for na in (2, 3):
        for nb in (2, 3):
            for combo in itertools.product(grid, repeat=na + nb):
                a, b = list(combo[:na]), list(combo[na:])
                assert mann_whitney_rho(a, b) == pytest.approx(pairwise(a, b), abs=1e-12)
                checked += 1
    # Document-level: every corpus with <= 6 documents and <= 5 terms reduces
    # to per-term value vectors of the sizes covered above; spot-check the
    # full pipeline on random such corpora against the same oracle.
    rng = random.Random(808)
    vocabulary = ["t0", "t1", "t2", "t3", "t4"]
    for _ in range(300):
        na, nb = rng.randint(2, 3), rng.randint(2, 3)
        terms = vocabulary[: rng.randint(1, 5)]
        docs_a = [" ".join(rng.choice(terms) for _ in range(rng.randint(1, 6))) for _ in range(na)]
        docs_b = [" ".join(rng.choice(terms) for _ in range(rng.randint(1, 6))) for _ in range(nb)]
        report = mann_whitney_keyterms(docs_a, docs_b)
        from campaignkit.text import tokenize

        freq_a = [Counter(tokenize(d)) for d in docs_a]
        freq_b = [Counter(tokenize(d)) for d in docs_b]
        for score in report.group_a:
            values_a = [f[score.term] / max(1, sum(f.values())) for f in freq_a]
            values_b = [f[score.term] / max(1, sum(f.values())) for f in freq_b]
            assert score.score == pytest.approx(pairwise(values_a, values_b), abs=1e-12)

    docs = ["uno dos tres", "dos tres uno", "tres uno dos"]
    identical = mann_whitney_keyterms(docs, list(docs))
    assert all(s.score == pytest.approx(0.5) for s in identical.group_a)

    planted_a = [f"protesta civica hoy #x turno {i}" for i in range(4)]
    planted_b = [f"protesta civica hoy turno {i}" for i in range(4)]
    planted = mann_whitney_keyterms(planted_a, planted_b)
    assert planted.group_a[0].term == "#x"
    _ok(8, f"rank oracle equality on {checked} exhaustive instances; symmetry and planted-term recovery hold")


def test_criterion_09_determinism(tmp_path):
    config_path = tmp_path / "config.yaml"
    model.dump_config(small_sim_config(seed=5, groups=3, population=600), str(config_path))
    out_a, out_b = tmp_path / "a.log", tmp_path / "b.log"
    assert main(["run", "--config", str(config_path), "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_path), "--seed", "5", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert validate_events(read_events(str(out_a)))
    _ok(9, "same seed, same config: byte-identical event logs")


def test_criterion_10_population_facts_substituted():
    """Live-deployment findings (which framing real humans prefer, the
    published F(3,174)=38.94, the real key-term vocabulary) are population
    facts and are not reproducible at desk scale. The artifact substitutes
    the fixture-exact table (criterion 1) plus the property-based checks
    (criteria 2-9); nothing in this suite asserts those population values.
    """
    # The published F statistic is deliberately not a target anywhere; the
    # simulated campaign merely has to show a significant cross-arm effect,
    # which criterion 2's log does (see the analytics tests).
    _ok(10, "population-specific findings documented as out of desk-scale scope")
