"""Participation metrics and text analytics over a campaign event log.

Everything here is a pure function over an immutable list of events plus
optional label files; recomputing over a replayed log gives identical
results. ``_COLUMNS`` is the one place where a report column is declared:
the text table and the JSON both read it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .eventlog import TALLIED, validate_events
from .model import (
    LABEL_ON_TOPIC, CampaignError, CampaignEvent, LabelValue, VolunteerLabel, slot_init,
)
from .stats import AnovaResult, DegenerateInput, mann_whitney_rho_sparse, one_way_anova
from .text import tokenize


class EmptyVocabulary(CampaignError):
    pass


# -- participation metrics ---------------------------------------------------------

@dataclass(frozen=True)
class ArmMetrics:
    strategy: str
    calls_to_action: int = 0
    followups: int = 0
    outbound_messages: int = 0  # budget-weighted: quote tweets count
    volunteers: int = 0  # unique members who replied at least once
    volunteer_replies: int = 0
    bot_interactions: int = 0  # retweets+favorites of bot content
    volunteer_interactions: int = 0  # retweets+favorites of volunteer content
    on_topic_fraction: Optional[float] = None

    @property
    def reply_rate(self) -> float:
        return self.volunteer_replies / self.outbound_messages if self.outbound_messages else 0.0

    @property
    def bot_interaction_rate(self) -> float:
        return self.bot_interactions / self.outbound_messages if self.outbound_messages else 0.0

    @property
    def volunteer_interaction_rate(self) -> float:
        return (
            self.volunteer_interactions / self.volunteer_replies if self.volunteer_replies else 0.0
        )


# The validation fold tallies every integer column but the volunteers.
assert set(TALLIED) == {f.name for f in fields(ArmMetrics) if f.type == "int"} - {"volunteers"}


@dataclass(frozen=True)
class MetricsReport:
    arms: tuple[ArmMetrics, ...]
    total: ArmMetrics
    anova_volunteers: Optional[AnovaResult] = None
    anova_replies: Optional[AnovaResult] = None


def compute_metrics(
    events: Sequence[CampaignEvent],
    labels: Optional[Mapping[str, LabelValue]] = None,
    arms: Optional[Sequence[str]] = None,
) -> MetricsReport:
    """Per-arm participation counts and rates from a validated log.

    The events are validated first; a sealed ``ValidatedLog`` is taken as it
    is, and every count is read from the report's indices of its state (see
    ``eventlog.ReportIndex``) without walking an event. Replies count when
    their author is a member of the conversation they landed in; strangers
    are recorded in the log but are not volunteers. Totals are computed from the per-arm columns. The
    cross-arm comparisons are one-way ANOVAs over per-conversation unique
    contributors and over per-message reply counts.
    """
    report = validate_events(events).state.report
    tallies, repliers = report.tallies, report.repliers
    no_counts = dict.fromkeys(TALLIED, 0)

    def metrics(strategy: str, counts: dict[str, int], volunteers: Collection[str]) -> ArmMetrics:
        labeled = [u for u in volunteers if u in labels] if labels else []
        share = None
        if labeled:
            share = sum(labels[u] is LABEL_ON_TOPIC for u in labeled) / len(labeled)
        return ArmMetrics(strategy, **counts, volunteers=len(volunteers), on_topic_fraction=share)

    arm_order = [strategy for strategy in dict.fromkeys([*(arms or ()), *tallies]) if strategy]
    arms_out = [metrics(s, tallies.get(s, no_counts), repliers.get(s, ())) for s in arm_order]
    total = metrics(
        "all",
        {name: sum(getattr(a, name) for a in arms_out) for name in TALLIED},
        set().union(*repliers.values()),
    )

    def by_arm(pairs: Iterable[tuple[str, int]]) -> list[list[float]]:
        samples: dict[str, list[float]] = {strategy: [] for strategy in arm_order}
        for strategy, value in pairs:
            if strategy in samples:
                samples[strategy].append(float(value))
        return list(samples.values())

    anovas = {}
    if len(arm_order) >= 2 and report.conversations:
        contributors = ((arm, len(contributed)) for arm, contributed in report.conversations.values())
        replies = ((arm, report.message_replies.get(message, 0)) for message, arm in report.messages.items())
        for name, samples in (("anova_volunteers", by_arm(contributors)), ("anova_replies", by_arm(replies))):
            try:
                anovas[name] = one_way_anova(samples)
            except DegenerateInput:
                pass
    return MetricsReport(tuple(arms_out), total, **anovas)


# -- label ingestion -----------------------------------------------------------------

def read_labels(path: str) -> list[VolunteerLabel]:
    """Label file: one JSON record per line (user_id, label, coder_id)."""
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(VolunteerLabel.from_dict(json.loads(line)))
            except (json.JSONDecodeError, CampaignError) as exc:
                raise CampaignError(f"{path}:{lineno}: bad label record ({exc})") from exc
    return labels


def write_labels(labels: Iterable[VolunteerLabel], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(json.dumps(label.to_dict(), ensure_ascii=False) + "\n")


def labels_to_map(labels: Iterable[VolunteerLabel]) -> dict[str, LabelValue]:
    out: dict[str, LabelValue] = {}
    for label in labels:
        if label.user_id in out:
            raise CampaignError(f"duplicate label for {label.user_id} by one coder")
        out[label.user_id] = label.label
    return out


def merge_labels(
    labels_a: Mapping[str, LabelValue],
    labels_b: Mapping[str, LabelValue],
    tiebreaker: Mapping[str, LabelValue],
) -> dict[str, LabelValue]:
    """Agreements pass through; disagreements take the tiebreaker's label."""
    if set(labels_a) != set(labels_b):
        raise CampaignError("coders labeled different user sets")
    merged = {}
    for user in labels_a:
        if labels_a[user] == labels_b[user]:
            merged[user] = labels_a[user]
        else:
            if user not in tiebreaker:
                raise CampaignError(f"disagreement on {user} but tiebreaker has no label")
            merged[user] = tiebreaker[user]
    return merged


# -- key-term extraction ----------------------------------------------------------------

@slot_init
@dataclass(frozen=True, slots=True, init=False)
class TermScore:
    term: str
    score: float


@dataclass(frozen=True)
class KeyTermReport:
    group_a: tuple[TermScore, ...]  # full ranking, over-use score for A
    group_b: tuple[TermScore, ...]
    key_terms_a: tuple[str, ...]
    key_terms_b: tuple[str, ...]
    vocabulary_size: int


def check_top_fraction(top_fraction: float) -> None:
    """Raise DegenerateInput unless top_fraction lies in [0, 1]; NaN does not."""
    if not 0 <= top_fraction <= 1:
        raise DegenerateInput(f"top_fraction must lie in [0, 1], got {top_fraction}")


def mann_whitney_keyterms(
    corpus_a: Sequence[str],
    corpus_b: Sequence[str],
    top_fraction: float = 0.01,
) -> KeyTermReport:
    """Terms that distinguish corpus A's documents from corpus B's.

    A document is one author's pooled text; the per-document weight of a term
    is its relative frequency (count over document length), so prolific
    authors do not dominate. For each vocabulary term the normalized
    Mann-Whitney statistic rho = U_A / (n_A n_B) is counted over pairs of
    documents, one from each side: U_A is the number of pairs in which A's
    weight is the larger plus half the tied pairs. Only the documents that
    contain a term are listed for it; the weight is 0.0 in every other
    document, and those zeros form one tie block. rho > 0.5 means group A
    over-uses the term. Each group's ranking orders all terms by its own
    over-use score (rho for A, 1-rho for B) with ties broken
    lexicographically, and its key terms are the top ceil(top_fraction * V),
    for a top_fraction in [0, 1].
    """
    check_top_fraction(top_fraction)
    if len(corpus_a) < 2 or len(corpus_b) < 2:
        raise DegenerateInput("each corpus needs at least two documents")
    # term -> (weights in A's documents that contain it, weights in B's)
    postings: dict[str, tuple[list[float], list[float]]] = {}
    for side, corpus in enumerate((corpus_a, corpus_b)):
        for doc in corpus:
            tokens = tokenize(doc)
            total = len(tokens)
            for term, count in Counter(tokens).items():
                entry = postings.get(term)
                if entry is None:
                    entry = postings[term] = ([], [])
                entry[side].append(count / total)
    if not postings:
        raise EmptyVocabulary("no tokens in either corpus")
    vocabulary = sorted(postings)

    n_a = len(corpus_a)
    n_b = len(corpus_b)
    scores_a = []
    scores_b = []
    for term in vocabulary:
        weights_a, weights_b = postings[term]
        rho = mann_whitney_rho_sparse(weights_a, weights_b, n_a, n_b)
        scores_a.append(TermScore(term, rho))
        scores_b.append(TermScore(term, 1.0 - rho))

    # The scores follow the sorted vocabulary, and a sort with reverse=True
    # keeps equal scores in their order: ties stay lexicographic.
    def ranked(scores: list[TermScore]) -> tuple[TermScore, ...]:
        return tuple(sorted(scores, key=attrgetter("score"), reverse=True))

    group_a = ranked(scores_a)
    group_b = ranked(scores_b)
    top = math.ceil(top_fraction * len(vocabulary))
    return KeyTermReport(
        group_a=group_a,
        group_b=group_b,
        key_terms_a=tuple(s.term for s in group_a[:top]),
        key_terms_b=tuple(s.term for s in group_b[:top]),
        vocabulary_size=len(vocabulary),
    )


# -- report rendering -------------------------------------------------------------------

def _percent(x: float) -> str:
    return f"{round(100 * x)}%"


# Every report column, in JSON key order: (ArmMetrics attribute and JSON key,
# table row label or None, table cell formatter). A column whose value is None
# is left out of an arm's JSON and shown as "-" in the table, and a table row
# that is None in every column is left out.
_COLUMNS = (
    ("calls_to_action", "Calls to Action", str),
    ("followups", "Followup Questions", str),
    ("outbound_messages", "Outbound Messages", str),
    ("volunteers", "Volunteers", str),
    ("volunteer_replies", "Volunteer Replies", str),
    ("reply_rate", "Reply Rate", _percent),
    ("bot_interactions", "Interactions Bot", str),
    ("volunteer_interactions", "Interactions Volunteers", str),
    ("bot_interaction_rate", None, None),
    ("volunteer_interaction_rate", None, None),
    ("on_topic_fraction", "On-Topic Volunteers", _percent),
)
# (MetricsReport attribute and JSON key, name in the table)
_ANOVAS = (("anova_volunteers", "unique contributors"), ("anova_replies", "replies per message"))


def render_table(report: MetricsReport) -> str:
    """Plain-text table, one column per arm plus computed totals."""
    arms = (report.total, *report.arms)
    rows = [("", ["Total"] + [a.strategy for a in report.arms])]
    for key, label, cell in _COLUMNS:
        values = [getattr(a, key) for a in arms]
        if label and any(v is not None for v in values):
            rows.append((label, ["-" if v is None else cell(v) for v in values]))
    label_width = max(len(label) for label, _ in rows)
    widths = [max(len(values[i]) for _, values in rows) for i in range(len(arms))]
    lines = [
        label.ljust(label_width) + "  " + "  ".join(v.rjust(w) for v, w in zip(values, widths))
        for label, values in rows
    ]
    for key, name in _ANOVAS:
        anova = getattr(report, key)
        if anova is not None:
            f_text = "inf" if math.isinf(anova.F) else f"{anova.F:.3f}"
            lines.append(
                f"ANOVA {name}: F({anova.df_between},{anova.df_within}) = {f_text}, "
                f"p = {anova.p_value:.3g}"
            )
    return "\n".join(lines)


def report_to_dict(report: MetricsReport) -> dict:
    def arm_dict(a: ArmMetrics) -> dict:
        values = ((key, getattr(a, key)) for key, _, _ in _COLUMNS)
        return {"strategy": a.strategy, **{key: v for key, v in values if v is not None}}

    out = {"arms": [arm_dict(a) for a in report.arms], "total": arm_dict(report.total)}
    for key, _ in _ANOVAS:
        anova = getattr(report, key)
        if anova is not None:
            out[key] = asdict(anova)
    return out
