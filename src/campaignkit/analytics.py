"""Participation metrics and text analytics over a campaign event log.

Everything here is a pure function over an immutable list of events plus
optional label files; recomputing over a replayed log gives identical
results.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .eventlog import validate_events, volunteer_replies
from .model import (
    CampaignError,
    CampaignEvent,
    EventKind,
    INTERACTION_KINDS,
    LabelValue,
    OUTBOUND_KINDS,
    TargetAuthor,
    VolunteerLabel,
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


@dataclass(frozen=True)
class MetricsReport:
    arms: tuple[ArmMetrics, ...]
    total: ArmMetrics
    anova_volunteers: Optional[AnovaResult] = None
    anova_replies: Optional[AnovaResult] = None

    def arm(self, strategy: str) -> ArmMetrics:
        for arm in self.arms:
            if arm.strategy == strategy:
                return arm
        raise KeyError(strategy)


def compute_metrics(
    events: Sequence[CampaignEvent],
    labels: Optional[Mapping[str, LabelValue]] = None,
    arms: Optional[Sequence[str]] = None,
) -> MetricsReport:
    """Per-arm participation counts and rates from a validated log.

    The events are validated first; a sealed ``ValidatedLog`` from
    ``validate_events`` is taken as it is, with the volunteer replies it
    computed once. Replies count when their author is a member of the
    conversation they landed in; strangers are recorded in the log but are
    not volunteers.
    Totals are computed from the per-arm columns. The cross-arm comparisons
    are one-way ANOVAs over per-conversation unique contributors and over
    per-message reply counts.
    """
    events = validate_events(events)
    counted = {event.seq for event in volunteer_replies(events)}
    arm_order: list[str] = list(arms) if arms else []

    def order(strategy: str) -> None:
        if strategy and strategy not in arm_order:
            arm_order.append(strategy)

    counts: dict[str, dict[str, int]] = {}
    repliers: dict[str, set[str]] = {}
    conv_contributors: dict[str, set[str]] = {}
    conv_arm: dict[str, str] = {}
    message_replies: dict[str, int] = {}
    message_arm: dict[str, str] = {}

    def on_topic_fraction(volunteers: Iterable[str]) -> Optional[float]:
        labeled = [u for u in volunteers if u in labels] if labels else []
        if not labeled:
            return None
        return sum(1 for u in labeled if labels[u] is LabelValue.ON_TOPIC) / len(labeled)

    def bucket(strategy: str) -> dict[str, int]:
        order(strategy)
        return counts.setdefault(
            strategy,
            {
                "calls": 0,
                "followups": 0,
                "outbound": 0,
                "replies": 0,
                "bot_interactions": 0,
                "volunteer_interactions": 0,
            },
        )

    for event in events:
        strategy = event.strategy or ""
        if event.kind in OUTBOUND_KINDS:
            b = counts.get(strategy) or bucket(strategy)
            b["outbound"] += 1
            if event.kind is EventKind.OUTBOUND_CALL:
                b["calls"] += 1
                conv_arm[event.conversation_id] = strategy
                conv_contributors.setdefault(event.conversation_id, set())
            elif event.kind is EventKind.OUTBOUND_FOLLOWUP:
                b["followups"] += 1
            message_replies[event.message_id] = 0
            message_arm[event.message_id] = strategy
        elif event.kind is EventKind.INBOUND_REPLY:
            if event.seq not in counted:
                continue
            conv = event.conversation_id or ""
            strategy = conv_arm.get(conv, strategy)
            b = counts.get(strategy) or bucket(strategy)
            b["replies"] += 1
            repliers.setdefault(strategy, set()).add(event.actor)
            conv_contributors.setdefault(conv, set()).add(event.actor)
            if event.in_reply_to in message_replies:
                message_replies[event.in_reply_to] += 1
        elif event.kind in INTERACTION_KINDS:
            b = counts.get(strategy) or bucket(strategy)
            if event.target_author is TargetAuthor.BOT:
                b["bot_interactions"] += 1
            else:
                b["volunteer_interactions"] += 1

    arms_out = []
    for strategy in arm_order:
        b = counts.get(strategy)
        if b is None:
            arms_out.append(ArmMetrics(strategy=strategy))
            continue
        volunteers = repliers.get(strategy, set())
        arms_out.append(
            ArmMetrics(
                strategy=strategy,
                calls_to_action=b["calls"],
                followups=b["followups"],
                outbound_messages=b["outbound"],
                volunteers=len(volunteers),
                volunteer_replies=b["replies"],
                bot_interactions=b["bot_interactions"],
                volunteer_interactions=b["volunteer_interactions"],
                on_topic_fraction=on_topic_fraction(volunteers),
            )
        )

    all_volunteers = set()
    for volunteers in repliers.values():
        all_volunteers |= volunteers
    total = ArmMetrics(
        strategy="all",
        calls_to_action=sum(a.calls_to_action for a in arms_out),
        followups=sum(a.followups for a in arms_out),
        outbound_messages=sum(a.outbound_messages for a in arms_out),
        volunteers=len(all_volunteers),
        volunteer_replies=sum(a.volunteer_replies for a in arms_out),
        bot_interactions=sum(a.bot_interactions for a in arms_out),
        volunteer_interactions=sum(a.volunteer_interactions for a in arms_out),
        on_topic_fraction=on_topic_fraction(all_volunteers),
    )

    anova_volunteers = anova_replies = None
    if len(arm_order) >= 2 and conv_arm:
        volunteer_samples = []
        for strategy in arm_order:
            sample = [
                float(len(conv_contributors.get(conv, set())))
                for conv, arm in conv_arm.items()
                if arm == strategy
            ]
            volunteer_samples.append(sample)
        reply_samples = [
            [float(n) for msg, n in message_replies.items() if message_arm[msg] == strategy]
            for strategy in arm_order
        ]
        try:
            anova_volunteers = one_way_anova(volunteer_samples)
        except DegenerateInput:
            pass
        try:
            anova_replies = one_way_anova(reply_samples)
        except DegenerateInput:
            pass

    return MetricsReport(
        arms=tuple(arms_out),
        total=total,
        anova_volunteers=anova_volunteers,
        anova_replies=anova_replies,
    )


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

@dataclass(frozen=True)
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
    lexicographically, and its key terms are the top ceil(top_fraction * V).
    """
    if len(corpus_a) < 2 or len(corpus_b) < 2:
        raise DegenerateInput("each corpus needs at least two documents")
    # term -> (weights in A's documents that contain it, weights in B's)
    postings: dict[str, tuple[list[float], list[float]]] = {}
    for side, corpus in enumerate((corpus_a, corpus_b)):
        for doc in corpus:
            tokens = tokenize(doc)
            total = len(tokens)
            for term, count in Counter(tokens).items():
                if term not in postings:
                    postings[term] = ([], [])
                postings[term][side].append(count / total)
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

    def ranked(scores: list[TermScore]) -> tuple[TermScore, ...]:
        return tuple(sorted(scores, key=lambda s: (-s.score, s.term)))

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

def render_table(report: MetricsReport) -> str:
    """Plain-text table, one column per arm plus computed totals."""
    columns = ["Total"] + [a.strategy for a in report.arms]
    rows: list[tuple[str, list[str]]] = []

    def pct(x: float) -> str:
        return f"{round(100 * x)}%"

    arms = [report.total] + list(report.arms)
    rows.append(("Calls to Action", [str(a.calls_to_action) for a in arms]))
    rows.append(("Followup Questions", [str(a.followups) for a in arms]))
    rows.append(("Outbound Messages", [str(a.outbound_messages) for a in arms]))
    rows.append(("Volunteers", [str(a.volunteers) for a in arms]))
    rows.append(("Volunteer Replies", [str(a.volunteer_replies) for a in arms]))
    rows.append(("Reply Rate", [pct(a.reply_rate) for a in arms]))
    rows.append(("Interactions Bot", [str(a.bot_interactions) for a in arms]))
    rows.append(("Interactions Volunteers", [str(a.volunteer_interactions) for a in arms]))
    if any(a.on_topic_fraction is not None for a in arms):
        rows.append(
            (
                "On-Topic Volunteers",
                [
                    "-" if a.on_topic_fraction is None else pct(a.on_topic_fraction)
                    for a in arms
                ],
            )
        )

    label_width = max(len(label) for label, _ in rows)
    col_widths = [
        max(len(columns[i]), max(len(values[i]) for _, values in rows)) for i in range(len(columns))
    ]
    lines = [
        " " * label_width
        + "  "
        + "  ".join(columns[i].rjust(col_widths[i]) for i in range(len(columns)))
    ]
    for label, values in rows:
        lines.append(
            label.ljust(label_width)
            + "  "
            + "  ".join(values[i].rjust(col_widths[i]) for i in range(len(columns)))
        )
    for name, anova in (
        ("unique contributors", report.anova_volunteers),
        ("replies per message", report.anova_replies),
    ):
        if anova is not None:
            f_text = "inf" if math.isinf(anova.F) else f"{anova.F:.3f}"
            lines.append(
                f"ANOVA {name}: F({anova.df_between},{anova.df_within}) = {f_text}, "
                f"p = {anova.p_value:.3g}"
            )
    return "\n".join(lines)


def report_to_dict(report: MetricsReport) -> dict:
    def arm_dict(a: ArmMetrics) -> dict:
        out = {
            "strategy": a.strategy,
            "calls_to_action": a.calls_to_action,
            "followups": a.followups,
            "outbound_messages": a.outbound_messages,
            "volunteers": a.volunteers,
            "volunteer_replies": a.volunteer_replies,
            "reply_rate": a.reply_rate,
            "bot_interactions": a.bot_interactions,
            "volunteer_interactions": a.volunteer_interactions,
            "bot_interaction_rate": a.bot_interaction_rate,
            "volunteer_interaction_rate": a.volunteer_interaction_rate,
        }
        if a.on_topic_fraction is not None:
            out["on_topic_fraction"] = a.on_topic_fraction
        return out

    out = {"arms": [arm_dict(a) for a in report.arms], "total": arm_dict(report.total)}
    for key, anova in (
        ("anova_volunteers", report.anova_volunteers),
        ("anova_replies", report.anova_replies),
    ):
        if anova is not None:
            out[key] = {
                "df_between": anova.df_between,
                "df_within": anova.df_within,
                "F": anova.F,
                "p_value": anova.p_value,
            }
    return out
