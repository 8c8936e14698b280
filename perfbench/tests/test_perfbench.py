"""Tests for the benchmark's own code: output checks, span arithmetic and
tracing, the host-speed probe and scaling, corpus generation, and the run's
refusal to start without sources.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import pytest

import campaignkit.orchestrator
import campaignkit.targeting
import campaignkit.text
from campaignkit import analytics, eventlog, fixtures, model
from campaignkit.model import EventKind
from campaignkit.orchestrator import build_simulated_platform, run_campaign
from campaignkit.stats import mann_whitney_rho

from perfbench import checks, probe, spans, workloads
from perfbench.corpora import PLANTED_TERM, make_corpora


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    config = model.replace(
        fixtures.default_config(groups_per_strategy_per_topic=8, random_seed=5),
        jitter=model.JitterBounds(min_delay=5, max_delay=20),
        simulation={"profile": "reference", "population": 1500},
    )
    path = tmp_path_factory.mktemp("bench") / "campaign.log"
    events = run_campaign(config, build_simulated_platform(config), str(path))
    return config, events, path


def _arms(config):
    return [s.id for s in config.strategies]


def _budgets(config):
    return {s.id: s.messages_per_turn for s in config.strategies}


def _swap_call(events, arm_from, arm_to):
    """Events with the first call of ``arm_from`` relabelled ``arm_to``."""
    i = next(
        i for i, e in enumerate(events)
        if e.kind is EventKind.OUTBOUND_CALL and e.strategy == arm_from
    )
    return events[:i] + [dataclasses.replace(events[i], strategy=arm_to)] + events[i + 1:]


def _repeat_member(events):
    """Events whose second call re-mentions the first call's first member."""
    calls = [i for i, e in enumerate(events) if e.kind is EventKind.OUTBOUND_CALL]
    first, second = events[calls[0]], events[calls[1]]
    repeated = eventlog.conversation_members([first])[first.conversation_id][0]
    victim = eventlog.conversation_members([second])[second.conversation_id][0]
    text = second.text.replace("@" + victim, "@" + repeated)
    out = list(events)
    out[calls[1]] = dataclasses.replace(second, text=text)
    return out


def test_checks_pass_on_a_real_campaign(campaign):
    config, events, path = campaign
    assert checks.check_campaign(events, str(path), config) == []


def test_swapped_call_strategy_is_caught(campaign, tmp_path):
    config, events, path = campaign
    tampered = _swap_call(events, "solidarity", "direct")
    assert checks.check_balance(tampered, _arms(config))
    assert checks.check_budget(tampered, _budgets(config))
    assert checks.check_quotas(tampered, config)
    tampered_log = tmp_path / "tampered.log"
    eventlog.write_events(tampered, str(tampered_log))
    assert checks.check_reread(events, str(tampered_log))


def test_repeated_member_is_caught(campaign):
    _config, events, _path = campaign
    assert checks.check_one_touch(events) == []
    assert checks.check_one_touch(_repeat_member(events))


def test_dropped_quote_breaks_the_budget(campaign):
    config, events, _path = campaign
    i = next(i for i, e in enumerate(events) if e.kind is EventKind.OUTBOUND_QUOTE)
    assert checks.check_budget(events[:i] + events[i + 1:], _budgets(config))


def test_invalid_log_is_reported_not_raised(campaign, tmp_path):
    _config, events, _path = campaign
    reply = next(i for i, e in enumerate(events) if e.kind is EventKind.INBOUND_REPLY)
    broken = list(events)
    broken[reply] = dataclasses.replace(events[reply], in_reply_to="m9999999")
    log = tmp_path / "broken.log"
    eventlog.write_events(broken, str(log))
    failures = checks.check_reread(broken, str(log))
    assert failures and "does not validate" in failures[0]


def test_report_checks(campaign):
    _config, events, _path = campaign
    report = analytics.compute_metrics(events)
    assert checks.check_report_totals(report) == []
    bad_total = dataclasses.replace(report.total, volunteers=report.total.volunteers + 1)
    assert checks.check_report_totals(dataclasses.replace(report, total=bad_total))

    def arm(strategy, replies):
        return analytics.ArmMetrics(strategy, outbound_messages=100, volunteer_replies=replies)

    rates = checks.REFERENCE_RATES
    good = analytics.MetricsReport(arms=tuple(arm(a, r) for a, r in rates.items()), total=arm("all", 0))
    assert checks.check_reference_rates(good) == []
    off = dataclasses.replace(good, arms=(arm("direct", 77),) + good.arms[1:])
    assert checks.check_reference_rates(off)


def test_pairwise_oracle_matches_ranks_exhaustively():
    for na, nb in itertools.product((1, 2, 3), repeat=2):
        for combo in itertools.product((0.0, 0.5, 1.0), repeat=na + nb):
            a, b = combo[:na], combo[na:]
            assert checks.pairwise_rho(a, b) == pytest.approx(mann_whitney_rho(a, b), abs=1e-12)


def test_keyterm_checks_pass_and_fire():
    rng = random.Random(3)
    words = ["uno", "dos", "tres", "cuatro"]
    side_a = [" ".join(rng.choice(words) for _ in range(8)) + " " + PLANTED_TERM for _ in range(6)]
    side_b = [" ".join(rng.choice(words) for _ in range(8)) for _ in range(6)]
    result = analytics.mann_whitney_keyterms(side_a, side_b)
    oracle = checks.KeytermOracle(side_a, side_b, seed=1, planted=PLANTED_TERM)
    assert set(oracle.expected) == set(words) | {PLANTED_TERM}
    assert oracle.check(result) == []

    wrong = dataclasses.replace(
        result,
        group_a=tuple(
            analytics.TermScore(s.term, s.score + 0.01) if s.term == "dos" else s
            for s in result.group_a
        ),
    )
    assert oracle.check(wrong)
    demoted = dataclasses.replace(result, group_a=result.group_a[1:] + result.group_a[:1])
    assert oracle.check(demoted)
    assert oracle.check(dataclasses.replace(result, vocabulary_size=result.vocabulary_size + 1))


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.enter()            # outer      0 .. 10
    tracer.enter()            #   a        1 .. 3
    tracer.exit("a")
    tracer.enter()            #   b        4 .. 8
    tracer.enter()            #     a      5 .. 6
    tracer.exit("a")
    tracer.exit("b")
    tracer.exit("outer")
    assert tracer.self_s == {"a": 3.0, "b": 3.0, "outer": 4.0}
    assert tracer.calls == {"a": 2, "b": 1, "outer": 1}


def test_install_wraps_every_binding_site_and_restores(campaign, tmp_path):
    config, events, path = campaign
    originals = (
        campaignkit.text.match_keyword,
        campaignkit.targeting.match_keyword,
        campaignkit.orchestrator.match_target,
    )
    missing = spans.Target("text.missing", "campaignkit.text", "no_such_function")
    tracer = spans.Tracer()
    with spans.install(tracer, spans.TARGETS + (missing,)):
        assert campaignkit.targeting.match_keyword is not originals[1]
        assert campaignkit.orchestrator.match_target is not originals[2]
        traced_log = tmp_path / "traced.log"
        tracer.enabled = True
        campaignkit.orchestrator.run_campaign(
            config, build_simulated_platform(config), str(traced_log)
        )
        tracer.enabled = False
    assert (
        campaignkit.text.match_keyword,
        campaignkit.targeting.match_keyword,
        campaignkit.orchestrator.match_target,
    ) == originals
    assert tracer.absent == ["campaignkit.text.no_such_function"]
    assert traced_log.read_bytes() == Path(path).read_bytes()
    metrics = spans.layer_metrics(tracer, passes=1, timed_s=1.0)
    assert metrics["targeting.match_calls"][0] > 0
    assert metrics["text.fold_calls"][0] > metrics["targeting.match_calls"][0]
    assert metrics["platform.items"][0] > metrics["targeting.match_calls"][0]
    assert metrics["eventlog.appends"][0] == len(events)
    assert metrics["orchestrator.stale_calls"][0] > 0


def test_witness_fails_a_run_whose_log_changes(tmp_path):
    def new_run():
        return workloads.Run(
            workload="campaign", seed=1, workdir=tmp_path, witness_path=tmp_path / "w.json",
            src_lines=0,
        )

    log = tmp_path / "campaign.log"
    log.write_text("a\n")
    first = new_run()
    assert first.check_witness(str(log), 1) == []
    assert first.check_witness(str(log), 1) == []
    assert new_run().check_witness(str(log), 1) == []
    log.write_text("b\n")
    assert first.check_witness(str(log), 1)
    assert new_run().check_witness(str(log), 1)


def test_probe_block_is_the_median_of_its_probes():
    ticks = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
    host = probe.Probe(clock=lambda: next(ticks))
    assert probe.BLOCK == 3
    assert host.block() == 2.0
    assert probe.compute_work() == probe.compute_work()
    assert host.memory_work() == host.memory_work()
    assert host.parse_work() == host.parse_work()


def test_end_to_end_scales_times_and_rates_by_the_probe(tmp_path):
    run = workloads.Run(
        workload="conversations", seed=1, workdir=tmp_path, witness_path=tmp_path / "w.json",
        src_lines=0,
    )
    run.probes = [probe.NOMINAL_S / 2] * 3 + [probe.NOMINAL_S * 4]  # a host twice as fast
    run.setup_s = [0.1, 0.3, 0.2]
    run.samples.update(campaign_s=[2.0, 1.0, 3.0], events_per_s=[1000.0, 500.0, 700.0],
                       analyze_s=[0.5], keyterms_s=[0.25, 0.75])
    run.peak_rss_mb = 40.0
    metrics = workloads.end_to_end(run)
    campaign_scale = 2.0 ** probe.CAMPAIGN_SENSITIVITY
    assert metrics == {
        "setup_s": (0.4, "s"),
        "campaign_s": (2.0 * campaign_scale, "s"),
        "events_per_s": (700.0 / campaign_scale, "events/s"),
        "analyze_s": (1.0, "s"),
        "keyterms_s": (1.0, "s"),
        "peak_rss_mb": (40.0, "MiB"),
    }


def test_corpora_are_seeded():
    side_a, side_b = make_corpora(11)
    assert (side_a, side_b) == make_corpora(11)
    assert make_corpora(12) != (side_a, side_b)
    assert len(side_a) == len(side_b) == 200
    assert all(PLANTED_TERM in doc.split() for doc in side_a)
    assert not any(PLANTED_TERM in doc.split() for doc in side_b)
    vocabulary = {t for doc in side_a + side_b for t in doc.split()}
    assert 2500 < len(vocabulary) <= 3001


def test_run_refuses_to_start_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conversations", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
