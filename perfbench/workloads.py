"""The benchmark's workloads and the measurement loop they share.

Each workload sets up its inputs, then runs passes. A pass runs one
campaign on a fresh simulated platform and then rounds of the report over the
log it wrote: analysis (read, validate, replay, labels, metrics, table) and
key-term extraction, each round followed by a fresh set-up. Every operation's
output is checked; a failed check counts the operation as failed.

Timings are the process's CPU time, not wall time: on a shared disk the
campaign's writes and fsyncs waited off the CPU for 0 to 2 s of a 4 s
campaign, varying from one campaign to the next, while its CPU time held
within a few percent. Every timed operation is preceded by a host-speed
probe block (:mod:`perfbench.probe`), and the run's timings are reported
scaled by the median of its probe blocks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from campaignkit import analytics, eventlog, fixtures, model, orchestrator, simulator
from campaignkit.model import EventKind

from perfbench import checks, probe
from perfbench.corpora import PLANTED_TERM, make_corpora

# The tier-1 acceptance campaign's seed: the scan campaign's reply rates are
# checked against tier-1's reference rates at this seed only, as tier-1 does.
ACCEPTANCE_SEED = 7
# Passes repeat identical work on identical inputs (the logs are checked to
# be byte-identical), so the spread of their times is the host's. A run makes
# at least MIN_PASSES passes. After each campaign the short steps (analysis,
# key terms, set-up) take turns for at least MIN_ROUNDS rounds and
# REPORT_SHARE of the campaign's time; when no further pass fits in the run,
# they take turns until the run's time is up.
MIN_PASSES = 2
MIN_ROUNDS = 2
SETUP_REPEATS = 3
REPORT_SHARE = 0.35


def scan_config(seed: int) -> model.CampaignConfig:
    """Tier-1's acceptance campaign at a tenth of its population and a fifth
    of its groups: 2 topics x 4 arms x 100 groups of 3, 3,000 agents."""
    config = fixtures.default_config(groups_per_strategy_per_topic=100, random_seed=seed)
    return model.replace(
        config,
        jitter=model.JitterBounds(min_delay=5, max_delay=20),
        simulation={"profile": "reference", "population": 3000},
    )


def conversations_config(seed: int) -> model.CampaignConfig:
    """100 groups per arm and topic, agents that reply and interact a lot."""
    config = fixtures.default_config(groups_per_strategy_per_topic=100, random_seed=seed)
    return model.replace(
        config,
        jitter=model.JitterBounds(min_delay=5, max_delay=20),
        simulation={
            "profile": "reference",
            "population": 3000,
            "reply_propensity": 0.9,
            "mean_turns": 6,
            "interaction_propensity": 0.4,
        },
    )


def reply_corpora(events) -> tuple[list[str], list[str]]:
    """Each volunteer's pooled replies; side A is the direct arm's volunteers."""
    members = eventlog.conversation_members(events)
    arm_of = {e.conversation_id: e.strategy for e in events if e.kind is EventKind.OUTBOUND_CALL}
    docs: dict[str, list[str]] = defaultdict(list)
    side: dict[str, bool] = {}
    for event in events:
        conv = event.conversation_id
        if event.kind is EventKind.INBOUND_REPLY and event.actor in members.get(conv, ()):
            docs[event.actor].append(event.text or "")
            side[event.actor] = arm_of[conv] == "direct"
    corpus_a = [" ".join(docs[u]) for u in sorted(docs) if side[u]]
    corpus_b = [" ".join(docs[u]) for u in sorted(docs) if not side[u]]
    return corpus_a, corpus_b


@dataclass
class Witness:
    events: int
    log_bytes: int
    sha256: str


def log_witness(path: str, events: int) -> Witness:
    data = Path(path).read_bytes()
    return Witness(events=events, log_bytes=len(data), sha256=hashlib.sha256(data).hexdigest())


@dataclass
class Run:
    """Samples, the operation tally and the determinism witness of one run."""

    workload: str
    seed: int
    workdir: Path
    witness_path: Path  # witness of an earlier run of the same code and seed
    src_lines: int
    tracer: Optional[object] = None
    host: Optional[probe.Probe] = None  # built at the first probe
    probe_mb: float = 0.0  # resident memory the probe's objects take
    samples: dict = field(default_factory=lambda: defaultdict(list))  # CPU seconds
    wall: dict = field(default_factory=lambda: defaultdict(list))  # the same steps' wall seconds
    setup_s: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # probe block before each timed step
    attempted: int = 0
    failed: int = 0
    witness: Optional[Witness] = None
    peak_rss_mb: Optional[float] = None

    def settle(self) -> None:
        """Collect garbage, then probe the host's speed."""
        gc.collect()
        if self.host is None:
            before = _max_rss_mb()
            self.host = probe.Probe()
            self.probe_mb = _max_rss_mb() - before
        self.probes.append(self.host.block())

    def scale(self, sensitivity: float = 1.0) -> float:
        """Factor from this run's CPU seconds to seconds on the nominal host,
        for a step whose speed follows the probe's to the given power."""
        return (probe.NOMINAL_S / median(self.probes)) ** sensitivity

    @contextmanager
    def timed(self, metric: str):
        self.settle()
        if self.tracer is not None:
            self.tracer.enabled = True
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            cpu = time.process_time() - start_cpu
            wall = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
        self.samples[metric].append(cpu)
        self.wall[metric].append(wall)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = _max_rss_mb() - self.probe_mb

    def record(self, operation: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED {operation}: {failure}", file=sys.stderr)

    def check_witness(self, path: str, events: int) -> list[str]:
        """Same code and seed must write the same log, within this run and
        across runs; the hash is recorded, never pinned."""
        witness = log_witness(path, events)
        if self.witness is None:
            self.witness = witness
            print(
                f"witness workload={self.workload} seed={self.seed} events={witness.events} "
                f"bytes={witness.log_bytes} sha256={witness.sha256} src_lines={self.src_lines}"
            )
            if self.witness_path.exists():
                earlier = Witness(**json.loads(self.witness_path.read_text()))
                if earlier != witness:
                    return [f"log differs from an earlier run of the same code and seed: {earlier}"]
            else:
                self.witness_path.parent.mkdir(parents=True, exist_ok=True)
                tmp = self.witness_path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(witness.__dict__))
                os.replace(tmp, self.witness_path)
        elif witness != self.witness:
            return [f"log differs from this run's first log: {witness} vs {self.witness}"]
        return []


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class State:
    config: model.CampaignConfig
    log: str
    platform: Optional[object] = None
    corpora: Optional[tuple[list[str], list[str]]] = None
    oracle: Optional[checks.KeytermOracle] = None


def analysis(run: Run, state: State) -> list:
    """One analysis pass over the log; returns the validated events."""
    arms = [s.id for s in state.config.strategies]
    with run.timed("analyze_s"):
        events = eventlog.validate_events(eventlog.read_events(state.log))
        eventlog.replay(events)
        labels = analytics.labels_to_map(simulator.derive_labels(events))
        summary = analytics.compute_metrics(events, labels, arms=arms)
        analytics.render_table(summary)
    failures = checks.check_report_totals(summary)
    if run.workload == "scan" and run.seed == ACCEPTANCE_SEED:
        failures += checks.check_reference_rates(summary)
    run.record("analysis", failures)
    return events


def keyterms(run: Run, state: State) -> None:
    corpus_a, corpus_b = state.corpora
    with run.timed("keyterms_s"):
        result = analytics.mann_whitney_keyterms(corpus_a, corpus_b)
    run.record("keyterms", state.oracle.check(result))


@dataclass(frozen=True)
class Workload:
    """A campaign per pass on a fresh simulated platform, then the report
    over the log it wrote: the analysis, and key terms either of seeded
    synthetic corpora or of the volunteers' pooled replies."""

    make_config: Callable[[int], model.CampaignConfig]
    synthetic_corpora: bool

    def setup(self, run: Run) -> State:
        config = self.make_config(run.seed)
        platform = orchestrator.build_simulated_platform(config)
        state = State(config=config, log=str(run.workdir / "campaign.log"), platform=platform)
        if self.synthetic_corpora:
            state.corpora = make_corpora(run.seed)
            state.oracle = checks.KeytermOracle(*state.corpora, seed=run.seed, planted=PLANTED_TERM)
        return state

    def campaign(self, run: Run, state: State) -> float:
        """One checked campaign on the set-up platform; returns its wall time."""
        platform = state.platform or orchestrator.build_simulated_platform(state.config)
        state.platform = None
        with run.timed("campaign_s"):
            events = orchestrator.run_campaign(state.config, platform, state.log)
        run.samples["events_per_s"].append(len(events) / run.samples["campaign_s"][-1])
        failures = checks.check_campaign(events, state.log, state.config)
        run.record("campaign", failures + run.check_witness(state.log, len(events)))
        return run.wall["campaign_s"][-1]

    def report_round(self, run: Run, state: State, fresh_setup: bool) -> None:
        """Analysis and key terms over the last log, then (unless traced) a
        fresh set-up whose platform the next campaign uses."""
        events = analysis(run, state)
        if state.corpora is None:
            state.corpora = reply_corpora(events)
            state.oracle = checks.KeytermOracle(*state.corpora, seed=run.seed)
        del events
        keyterms(run, state)
        if fresh_setup:
            state.platform = None  # free the old platform before building the next
            state.platform = set_up_once(self, run).platform


WORKLOADS = {
    "scan": Workload(scan_config, synthetic_corpora=False),
    "conversations": Workload(conversations_config, synthetic_corpora=True),
}


def set_up_once(workload: Workload, run: Run) -> State:
    run.settle()
    start = time.process_time()
    state = workload.setup(run)
    run.setup_s.append(time.process_time() - start)
    return state


def set_up(workload: Workload, run: Run) -> State:
    """Set up SETUP_REPEATS times; keeps the last state."""
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous platform before building the next
        state = set_up_once(workload, run)
    return state


def measure(workload: Workload, run: Run, state: State, seconds: float, traced: bool,
            min_passes: int = MIN_PASSES) -> int:
    """Run passes into a fresh sample set for about ``seconds``; returns the
    number of passes.

    Untraced, a pass is a campaign and report rounds; passes go on, at least
    ``min_passes``, while the next one is likely to end within ``seconds``,
    and then report rounds fill the rest of the time. Traced, the one pass
    makes one round and no set-up.
    """
    run.samples, run.wall = defaultdict(list), defaultdict(list)
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while True:
        campaign_s = workload.campaign(run, state)
        passes += 1
        if traced:
            workload.report_round(run, state, fresh_setup=False)
            return passes
        report_start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - report_start < REPORT_SHARE * campaign_s:
            workload.report_round(run, state, fresh_setup=True)
            rounds += 1
        now = time.perf_counter()
        if passes >= min_passes and now + (now - start) / passes > deadline:
            while time.perf_counter() < deadline:
                workload.report_round(run, state, fresh_setup=True)
            return passes


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The median of each timing's CPU-time samples scaled to the nominal
    host, and the peak memory."""
    samples, scale = run.samples, run.scale()
    campaign_scale = run.scale(probe.CAMPAIGN_SENSITIVITY)
    return {
        "setup_s": (median(run.setup_s) * scale, "s"),
        "campaign_s": (median(samples["campaign_s"]) * campaign_scale, "s"),
        "events_per_s": (median(samples["events_per_s"]) / campaign_scale, "events/s"),
        "analyze_s": (median(samples["analyze_s"]) * scale, "s"),
        "keyterms_s": (median(samples["keyterms_s"]) * scale, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }
