"""Per-layer tracing from outside the program.

A :class:`Tracer` keeps a stack of open spans and, for every span name, the
call count and self time (span duration minus the time covered by
its child spans). :func:`install` wraps the public callables of each
campaignkit layer at every place they are looked up: a function is replaced
in every campaignkit module that binds it, so calls through a
``from ... import`` binding are traced too. The originals come back when the
``with`` block ends. Names that cannot be found are reported as absent.

The tracer records only while ``enabled`` is set; the measurement loop turns
it on around timed sections, so set-up and output checks leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


class Tracer:
    """Span stack plus named counters; self time is measured, not sampled."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.absent: list[str] = []

    def enter(self) -> None:
        self._stack.append([self.clock(), 0.0])

    def exit(self, name: str) -> None:
        start, children = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value


# -- wrappers -------------------------------------------------------------------

def _span(tracer: Tracer, name: str, fn, after=None, on_error=None):
    """Time ``fn`` as span ``name``; ``after(result, args, kwargs)`` and
    ``on_error(exc)`` update counters once the span is closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.enter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            tracer.exit(name)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _count(tracer: Tracer, name: str, fn, after=None):
    """Count calls of a cheap, hot callable without opening a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.enabled:
            tracer.calls[name] += 1
            if after is not None:
                after(result, args, kwargs)
        return result

    return wrapper


class _TimedIterator:
    """Times each ``next()`` on a wrapped iterator as one span."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.enabled:
            return next(self._inner)
        tracer.enter()
        try:
            item = next(self._inner)
        finally:
            tracer.exit(self._name)
        tracer.counts[self._name + ".items"] += 1
        return item


def _iterator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedIterator(tracer, name, fn(*args, **kwargs))

    return wrapper


# -- what gets wrapped ------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One callable: span name, defining module and dotted attribute path."""

    span: str
    module: str
    attr: str
    kind: str = "span"  # "span" | "count" | "iterator"


_P = "campaignkit."

TARGETS: tuple[Target, ...] = (
    # orchestrator
    Target("orchestrator.run_campaign", _P + "orchestrator", "run_campaign"),
    Target("orchestrator.run", _P + "orchestrator", "Orchestrator.run"),
    Target("orchestrator.stale", _P + "orchestrator", "Orchestrator._flush_stale"),
    Target("orchestrator.drain", _P + "orchestrator", "Orchestrator._drained"),
    Target("orchestrator.release", _P + "orchestrator", "Orchestrator._try_release_batch"),
    Target("orchestrator.schedule_call", _P + "orchestrator", "Orchestrator._schedule_call"),
    Target("orchestrator.dispatch", _P + "orchestrator", "Orchestrator._dispatch"),
    Target("orchestrator.stale_calls", _P + "orchestrator", "GroupBuffer.stale", kind="count"),
    Target("orchestrator.buffer_add", _P + "orchestrator", "GroupBuffer.add", kind="count"),
    Target("orchestrator.has_capacity", _P + "orchestrator", "ArmAllocator.has_capacity", kind="count"),
    Target("orchestrator.any_capacity", _P + "orchestrator", "ArmAllocator.any_capacity", kind="count"),
    Target("orchestrator.schedule_push", _P + "orchestrator", "DispatchSchedule.push", kind="count"),
    # text
    Target("text.fold", _P + "text", "fold"),
    Target("text.match_keyword", _P + "text", "match_keyword"),
    Target("text.tokenize", _P + "text", "tokenize"),
    Target("text.mentions", _P + "text", "mentions_in_text"),
    # targeting
    Target("targeting.match", _P + "targeting", "match_target"),
    Target("targeting.admit", _P + "targeting", "ContactRegistry.admit"),
    # platform
    Target("platform.inbound", _P + "platform", "SimulatedPlatform.inbound", kind="iterator"),
    Target("platform.post", _P + "platform", "SimulatedPlatform.post"),
    # simulator
    Target("simulator.post_gen", _P + "simulator", "AgentPopulation.make_public_post"),
    Target("simulator.post_gap", _P + "simulator", "AgentPopulation.next_post_gap_ms"),
    Target("simulator.react", _P + "simulator", "AgentPopulation.react"),
    Target("simulator.interactions", _P + "simulator", "AgentPopulation.interaction_draws"),
    Target("simulator.labels", _P + "simulator", "derive_labels"),
    # strategy
    Target("strategy.compose_call", _P + "strategy", "compose_call"),
    Target("strategy.compose_followup", _P + "strategy", "compose_followup"),
    Target("strategy.select_followup", _P + "strategy", "select_followup"),
    # eventlog
    Target("eventlog.append", _P + "eventlog", "EventLogWriter.append"),
    Target("eventlog.fsync", _P + "eventlog", "EventLogWriter._sync"),
    Target("eventlog.read", _P + "eventlog", "read_events"),
    Target("eventlog.validate", _P + "eventlog", "validate_events"),
    Target("eventlog.replay", _P + "eventlog", "replay"),
    Target("eventlog.members", _P + "eventlog", "conversation_members"),
    # analytics
    Target("analytics.metrics", _P + "analytics", "compute_metrics"),
    Target("analytics.keyterms", _P + "analytics", "mann_whitney_keyterms"),
    Target("analytics.render", _P + "analytics", "render_table"),
    Target("analytics.labels", _P + "analytics", "labels_to_map"),
    # stats
    Target("stats.rho", _P + "stats", "mann_whitney_rho"),
    Target("stats.anova", _P + "stats", "one_way_anova"),
)

LAYERS = (
    "orchestrator", "text", "targeting", "platform", "simulator",
    "strategy", "eventlog", "analytics", "stats",
)


def _hooks(tracer: Tracer) -> dict[str, dict]:
    """Counters recorded where the work happens, keyed by span name."""
    counts = tracer.counts

    def matched(result, args, kwargs):
        if result is not None:
            counts["targeting.matched"] += 1

    def admitted(result, args, kwargs):
        key = "targeting.admitted" if result.value == "Admitted" else "targeting.duplicates"
        counts[key] += 1

    def group_formed(result, args, kwargs):
        if result is not None:
            counts["orchestrator.groups_formed"] += 1

    def partial_call(result, args, kwargs):
        if kwargs.get("partial"):
            counts["orchestrator.partial_calls"] += 1

    def schedule_length(result, args, kwargs):
        tracer.peak("orchestrator.schedule_peak", len(args[0]))

    def rejected(exc):
        if type(exc).__name__ == "PlatformRejected":
            counts["platform.rejected"] += 1

    def overflow(exc):
        if type(exc).__name__ == "TemplateOverflow":
            counts["strategy.overflows"] += 1

    def vocabulary(result, args, kwargs):
        counts["analytics.vocabulary"] += result.vocabulary_size

    def zeros(result, args, kwargs):
        for values in args[:2]:
            counts["stats.values"] += len(values)
            counts["stats.zeros"] += sum(1 for v in values if v == 0.0)

    return {
        "targeting.match": {"after": matched},
        "targeting.admit": {"after": admitted},
        "orchestrator.buffer_add": {"after": group_formed},
        "orchestrator.schedule_call": {"after": partial_call},
        "orchestrator.schedule_push": {"after": schedule_length},
        "platform.post": {"on_error": rejected},
        "strategy.compose_call": {"on_error": overflow},
        "strategy.compose_followup": {"on_error": overflow},
        "analytics.keyterms": {"after": vocabulary},
        "stats.rho": {"after": zeros},
    }


def _resolve(module: str, attr: str):
    """(owner, name, value) for a dotted attribute, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if value is None:
        return None
    return owner, name, value


def _binding_sites(original) -> list[tuple[object, str]]:
    """Every (campaignkit module, attribute name) bound to ``original``."""
    return [
        (module, name)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("campaignkit")
        for name, value in list(vars(module).items())
        if value is original
    ]


@contextmanager
def install(tracer: Tracer, targets: tuple[Target, ...] = TARGETS):
    """Wrap every target at every binding site; restore them on exit."""
    hooks = _hooks(tracer)
    saved: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            found = _resolve(target.module, target.attr)
            if found is None:
                tracer.absent.append(f"{target.module}.{target.attr}")
                continue
            owner, name, original = found
            extra = hooks.get(target.span, {})
            if target.kind == "count":
                wrapped = _count(tracer, target.span, original, after=extra.get("after"))
            elif target.kind == "iterator":
                wrapped = _iterator(tracer, target.span, original)
            else:
                wrapped = _span(tracer, target.span, original, **extra)
            sites = [(owner, name)] if isinstance(owner, type) else _binding_sites(original)
            for site_owner, site_name in sites:
                saved.append((site_owner, site_name, getattr(site_owner, site_name)))
                setattr(site_owner, site_name, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# -- per-layer metrics ------------------------------------------------------------

def layer_metrics(tracer: Tracer, passes: int, timed_s: float) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from a traced phase of ``passes`` passes whose
    timed sections lasted ``timed_s`` seconds in total."""
    n = max(1, passes)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def s(*spans: str) -> float:
        return sum(self_s.get(span, 0.0) for span in spans) / n

    def c(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / n

    matches = calls["targeting.match"]
    matched = counts["targeting.matched"]
    out: dict[str, tuple[float, str]] = {
        "orchestrator.self_s": (layer_self("orchestrator"), "s"),
        "orchestrator.stale_s": (s("orchestrator.stale"), "s"),
        "orchestrator.stale_calls": (c(calls["orchestrator.stale_calls"]), "count"),
        "orchestrator.capacity_checks": (
            c(calls["orchestrator.has_capacity"] + calls["orchestrator.any_capacity"]), "count"),
        "orchestrator.groups_formed": (c(counts["orchestrator.groups_formed"]), "count"),
        "orchestrator.partial_calls": (c(counts["orchestrator.partial_calls"]), "count"),
        "orchestrator.schedule_peak": (float(tracer.peaks.get("orchestrator.schedule_peak", 0)), "count"),
        "text.fold_calls": (c(calls["text.fold"]), "count"),
        "text.fold_s": (s("text.fold"), "s"),
        "text.tokenize_s": (s("text.tokenize"), "s"),
        "targeting.match_calls": (c(matches), "count"),
        "targeting.matched": (c(matched), "count"),
        "targeting.match_ratio": (ratio(matched, matches), "fraction"),
        "targeting.match_s": (s("targeting.match"), "s"),
        "targeting.admitted": (c(counts["targeting.admitted"]), "count"),
        "targeting.duplicates": (c(counts["targeting.duplicates"]), "count"),
        "targeting.admit_ratio": (ratio(counts["targeting.admitted"], matched), "fraction"),
        "platform.items": (c(counts["platform.inbound.items"]), "count"),
        "platform.inbound_s": (s("platform.inbound"), "s"),
        "platform.posts": (c(calls["platform.post"]), "count"),
        "platform.post_s": (s("platform.post"), "s"),
        "platform.rejected": (c(counts["platform.rejected"]), "count"),
        "simulator.public_posts": (c(calls["simulator.post_gen"]), "count"),
        "simulator.post_gen_s": (s("simulator.post_gen", "simulator.post_gap"), "s"),
        "simulator.reacts": (c(calls["simulator.react"]), "count"),
        "simulator.react_s": (s("simulator.react", "simulator.interactions"), "s"),
        "simulator.labels_s": (s("simulator.labels"), "s"),
        "strategy.turns": (c(calls["strategy.compose_call"] + calls["strategy.compose_followup"]), "count"),
        "strategy.compose_s": (
            s("strategy.compose_call", "strategy.compose_followup", "strategy.select_followup"), "s"),
        "strategy.overflows": (c(counts["strategy.overflows"]), "count"),
        "eventlog.appends": (c(calls["eventlog.append"]), "count"),
        "eventlog.append_s": (s("eventlog.append"), "s"),
        "eventlog.fsyncs": (c(calls["eventlog.fsync"]), "count"),
        "eventlog.fsync_s": (s("eventlog.fsync"), "s"),
        "eventlog.read_s": (s("eventlog.read"), "s"),
        "eventlog.validate_s": (s("eventlog.validate"), "s"),
        "eventlog.replay_s": (s("eventlog.replay"), "s"),
        "eventlog.members_s": (s("eventlog.members"), "s"),
        "analytics.metrics_s": (s("analytics.metrics"), "s"),
        "analytics.keyterms_self_s": (s("analytics.keyterms"), "s"),
        "analytics.vocabulary": (c(counts["analytics.vocabulary"]), "count"),
        "stats.rho_calls": (c(calls["stats.rho"]), "count"),
        "stats.rho_s": (s("stats.rho"), "s"),
        "stats.zero_share": (ratio(counts["stats.zeros"], counts["stats.values"]), "fraction"),
        "stats.anova_s": (s("stats.anova"), "s"),
    }
    per_pass_timed = timed_s / n
    for layer in LAYERS:
        out[f"{layer}.share"] = (ratio(layer_self(layer), per_pass_timed), "fraction")
    out["trace.timed_s"] = (per_pass_timed, "s")
    out["trace.passes"] = (float(passes), "count")
    out["trace.absent"] = (float(len(tracer.absent)), "count")
    return out
