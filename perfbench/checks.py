"""Output checks for each benchmark operation.

Every check returns a list of failure messages; an empty list means the
output passed. They are written against the log and the report, independent
of the orchestrator's own bookkeeping, so a defect in the program shows as a
failed operation rather than a crash.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Mapping, Optional, Sequence

from campaignkit import eventlog
from campaignkit.model import CampaignConfig, CampaignError, EventKind, OUTBOUND_KINDS
from campaignkit.text import tokenize

# Tier-1's reference per-arm reply rates (percent) and tolerance (points).
REFERENCE_RATES = {"direct": 81, "loss": 30, "gain": 43, "solidarity": 21}
RATE_TOLERANCE = 3.0

REPORT_COLUMNS = (
    "calls_to_action",
    "followups",
    "outbound_messages",
    "volunteers",
    "volunteer_replies",
    "bot_interactions",
    "volunteer_interactions",
)

ORACLE_TERMS = 16


def check_reread(events: Sequence, path: str) -> list[str]:
    """The log on disk validates and equals the events the run returned."""
    try:
        reread = eventlog.validate_events(eventlog.read_events(path))
    except CampaignError as exc:
        return [f"log does not validate: {exc}"]
    if reread != list(events):
        return [f"re-read log ({len(reread)} events) differs from the {len(events)} returned"]
    return []


def check_one_touch(events: Sequence) -> list[str]:
    """No user is a member of two conversations."""
    seen = Counter(
        user for members in eventlog.conversation_members(events).values() for user in members
    )
    twice = sorted(user for user, n in seen.items() if n > 1)
    return [f"{len(twice)} users in more than one conversation, e.g. {twice[0]}"] if twice else []


def check_balance(events: Sequence, arms: Sequence[str]) -> list[str]:
    """Per-arm call counts differ by at most one at every log prefix."""
    counts = {arm: 0 for arm in arms}
    for event in events:
        if event.kind is EventKind.OUTBOUND_CALL:
            counts[event.strategy] = counts.get(event.strategy, 0) + 1
            if max(counts.values()) - min(counts.values()) > 1:
                return [f"arm counts {counts} out of balance at seq {event.seq}"]
    return []


def check_budget(events: Sequence, budgets: Mapping[str, int]) -> list[str]:
    """Every turn sends its arm's budget: a solidarity turn is a call or
    follow-up plus one quote, any other turn a single message; every message
    of a conversation carries the conversation's arm."""
    by_conv: dict[str, list] = {}
    for event in events:
        if event.kind in OUTBOUND_KINDS:
            by_conv.setdefault(event.conversation_id, []).append(event)
    for conv, sequence in by_conv.items():
        arm = sequence[0].strategy
        if sequence[0].kind is not EventKind.OUTBOUND_CALL:
            return [f"{conv}: first outbound message is {sequence[0].kind.value}"]
        if any(e.strategy != arm for e in sequence):
            return [f"{conv}: messages carry more than one arm"]
        budget = budgets.get(arm)
        expected_quotes = [budget == 2 and i % 2 == 1 for i in range(len(sequence))]
        quotes = [e.kind is EventKind.OUTBOUND_QUOTE for e in sequence]
        if budget not in (1, 2) or quotes != expected_quotes or (budget == 2 and len(sequence) % 2):
            return [f"{conv}: {len(sequence)} messages do not fit arm {arm}'s budget of {budget}"]
    return []


def check_quotas(events: Sequence, config: CampaignConfig) -> list[str]:
    """Every (topic, arm) pair called exactly its quota of users."""
    quota = config.groups_per_strategy_per_topic * config.group_size
    members = eventlog.conversation_members(events)
    called: Counter = Counter()
    for event in events:
        if event.kind is EventKind.OUTBOUND_CALL:
            called[(event.topic, event.strategy)] += len(members.get(event.conversation_id, ()))
    short = [
        f"{topic}/{spec.id}: {called[(topic.name, spec.id)]} of {quota}"
        for topic in config.topics
        for spec in config.strategies
        if called[(topic.name, spec.id)] != quota
    ]
    return [f"quota not met for {', '.join(short)}"] if short else []


def check_campaign(events: Sequence, path: str, config: CampaignConfig) -> list[str]:
    arms = [s.id for s in config.strategies]
    budgets = {s.id: s.messages_per_turn for s in config.strategies}
    return (
        check_reread(events, path)
        + check_one_touch(events)
        + check_balance(events, arms)
        + check_budget(events, budgets)
        + check_quotas(events, config)
    )


def check_report_totals(report) -> list[str]:
    """The report's total column is the sum of its arm columns."""
    return [
        f"total {column} {getattr(report.total, column)} != sum of arms"
        for column in REPORT_COLUMNS
        if getattr(report.total, column) != sum(getattr(a, column) for a in report.arms)
    ]


def check_reference_rates(report) -> list[str]:
    """Per-arm reply rates within tier-1's tolerance of the reference rates."""
    failures = []
    for arm in report.arms:
        rate = 100 * arm.reply_rate
        if abs(rate - REFERENCE_RATES[arm.strategy]) > RATE_TOLERANCE:
            failures.append(f"{arm.strategy} reply rate {rate:.1f} vs {REFERENCE_RATES[arm.strategy]}")
    return failures


def pairwise_rho(values_a: Sequence[float], values_b: Sequence[float]) -> float:
    """Share of (a, b) pairs with a > b, ties counting one half.

    Counts pairs directly over each side's distinct values, with no ranks.
    """
    count_a, count_b = Counter(values_a), Counter(values_b)
    wins = ties = 0
    for x, n_x in count_a.items():
        for y, n_y in count_b.items():
            if x > y:
                wins += n_x * n_y
            elif x == y:
                ties += n_x * n_y
    return (wins + 0.5 * ties) / (len(values_a) * len(values_b))


class KeytermOracle:
    """Expected key-term results for one pair of corpora, computed without
    ranks: the vocabulary, and rho for a seeded sample of terms by pairwise
    counting. The planted term, if any, must rank first for side A."""

    def __init__(self, corpus_a: Sequence[str], corpus_b: Sequence[str], seed: int,
                 planted: Optional[str] = None):
        weights_a = [_weights(doc) for doc in corpus_a]
        weights_b = [_weights(doc) for doc in corpus_b]
        self.vocabulary = sorted({t for w in weights_a + weights_b for t in w})
        sample = random.Random(f"{seed}:oracle").sample(
            self.vocabulary, min(ORACLE_TERMS, len(self.vocabulary))
        )
        if planted is not None and planted not in sample:
            sample.append(planted)
        self.planted = planted
        self.expected = {
            term: pairwise_rho([w.get(term, 0.0) for w in weights_a],
                               [w.get(term, 0.0) for w in weights_b])
            for term in sample
        }

    def check(self, result) -> list[str]:
        failures = []
        if result.vocabulary_size != len(self.vocabulary):
            failures.append(
                f"vocabulary of {result.vocabulary_size} terms, expected {len(self.vocabulary)}"
            )
        scores = {s.term: s.score for s in result.group_a}
        for term, expected in self.expected.items():
            if term not in scores:
                failures.append(f"term {term!r} missing from the ranking")
            elif abs(scores[term] - expected) > 1e-12:
                failures.append(f"rho({term!r}) = {scores[term]!r}, pairwise oracle {expected!r}")
        if self.planted is not None:
            top = result.group_a[0].term if result.group_a else None
            if top != self.planted:
                failures.append(f"planted term {self.planted!r} not ranked first (top is {top!r})")
        return failures


def _weights(doc: str) -> dict[str, float]:
    """Relative frequency of each term in one document."""
    tokens = tokenize(doc)
    return {term: n / len(tokens) for term, n in Counter(tokens).items()}
