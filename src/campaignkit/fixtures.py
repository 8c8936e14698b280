"""Shipped fixtures: the four default framing arms, the reference campaign
counts, and deterministic builders for fixture logs and label studies.

The reference campaign is a two-day field deployment of this design whose
published per-arm counts are frozen here; the fixture log reproduces those
columns exactly so the metrics pipeline can be checked end to end without a
live platform.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from . import strategy as strategy_mod
from .model import (
    BOT_ACTOR,
    BotIdentity,
    CampaignConfig,
    CampaignEvent,
    EventKind,
    JitterBounds,
    LabelValue,
    StrategySpec,
    TargetAuthor,
    Topic,
    VolunteerLabel,
    load_yaml,
)
from .strategy import EVENT_KIND_BY_MESSAGE, MessageKind

BASE_TS = 1_430_000_000_000


def _data_text(name: str) -> str:
    return importlib.resources.files("campaignkit").joinpath(f"data/{name}").read_text(
        encoding="utf-8"
    )


def default_strategies(language: str = "en") -> tuple[StrategySpec, ...]:
    """The four default framing arms (direct, loss, gain, solidarity).

    English texts are the canonical fixture; the Spanish set is a
    back-translation and marked as such in the data file.
    """
    raw = load_yaml(_data_text("strategies.yaml"))
    if language not in raw:
        raise KeyError(f"no strategy fixture for language {language!r}")
    return tuple(StrategySpec.from_dict(s) for s in raw[language]["strategies"])


def default_topics() -> tuple[Topic, ...]:
    return (
        Topic(name="corruption", keywords=("corrupcion",)),
        Topic(name="impunity", keywords=("impunidad",)),
    )


def default_config(
    *,
    groups_per_strategy_per_topic: int = 47,
    language: str = "en",
    random_seed: int = 7,
    simulation: Optional[Mapping[str, Any]] = None,
) -> CampaignConfig:
    return CampaignConfig(
        topics=default_topics(),
        strategies=default_strategies(language),
        groups_per_strategy_per_topic=groups_per_strategy_per_topic,
        group_size=3,
        jitter=JitterBounds(min_delay=60, max_delay=300),
        bot_identity=BotIdentity(
            display_name="cityfixbot",
            bio_text="I am a bot. I call volunteers to action on civic problems.",
            is_declared_bot=True,
        ),
        random_seed=random_seed,
        simulation=dict(simulation) if simulation is not None else {"profile": "reference"},
    )


# -- reference campaign counts ---------------------------------------------------------

@dataclass(frozen=True)
class ArmCounts:
    calls: int
    followups: int
    volunteers: int
    replies: int
    bot_interactions: int
    volunteer_interactions: int


# Per-arm columns of the reference deployment's summary table. The totals
# reported alongside that table do not all equal the sum of their columns;
# reports computed here always total the columns.
REFERENCE_COUNTS: dict[str, ArmCounts] = {
    "direct": ArmCounts(94, 158, 94, 204, 90, 274),
    "loss": ArmCounts(94, 80, 31, 53, 48, 71),
    "gain": ArmCounts(94, 79, 27, 74, 57, 85),
    "solidarity": ArmCounts(94, 120, 23, 92, 250, 62),
}


class _LogBuilder:
    def __init__(self) -> None:
        self.events: list[CampaignEvent] = []
        self._msg_counter = 0
        self._item_counter = 0
        self._ts = BASE_TS

    def next_ts(self) -> int:
        self._ts += 1000
        return self._ts

    def mint_message(self) -> str:
        self._msg_counter += 1
        return f"m{self._msg_counter:06d}"

    def mint_item(self) -> str:
        self._item_counter += 1
        return f"r{self._item_counter:06d}"

    def emit(self, kind: EventKind, **fields) -> CampaignEvent:
        event = CampaignEvent(seq=len(self.events) + 1, ts=self.next_ts(), kind=kind, **fields)
        self.events.append(event)
        return event


def _emit_turn(
    builder: _LogBuilder,
    spec: StrategySpec,
    topic: str,
    members: Sequence[str],
    conversation_id: str,
    *,
    followup_index: Optional[int] = None,
    turn: int = 0,
) -> list[str]:
    """Compose and append one outbound turn; returns the new message ids."""
    if followup_index is None:
        messages = strategy_mod.compose_call(
            spec, topic, members, conversation_id=conversation_id
        )
    else:
        messages = strategy_mod.compose_followup(
            spec, topic, members, followup_index, conversation_id=conversation_id, turn=turn
        )
    ids = []
    for message in messages:
        message_id = builder.mint_message()
        builder.emit(
            EVENT_KIND_BY_MESSAGE[message.kind],
            actor=BOT_ACTOR,
            strategy=spec.id,
            topic=topic,
            conversation_id=conversation_id,
            message_id=message_id,
            text=message.text,
            followup_index=followup_index if message.kind is MessageKind.FOLLOWUP else None,
        )
        ids.append(message_id)
    return ids


def build_fixture_log(
    counts: Mapping[str, ArmCounts],
    *,
    strategies: Optional[Sequence[StrategySpec]] = None,
    topics: Sequence[str] = ("corruption", "impunity"),
    group_size: int = 3,
) -> list[CampaignEvent]:
    """Deterministic synthetic log hitting the given per-arm counts exactly.

    Calls go out in rounds of one group per arm (so per-arm counts stay
    balanced at every prefix) alternating topics; replies, follow-ups and
    interactions are distributed round-robin under the log invariants (a
    follow-up only after a reply in its conversation, distinct question
    indices per conversation, one call mention per user).
    """
    specs = {s.id: s for s in (strategies or default_strategies("en"))}
    for arm in counts:
        if arm not in specs:
            raise KeyError(f"no strategy spec for arm {arm!r}")
    builder = _LogBuilder()
    arm_order = list(counts)
    rounds = max(c.calls for c in counts.values())
    call_ids: dict[str, list[str]] = {arm: [] for arm in arm_order}
    conv_ids: dict[str, list[str]] = {arm: [] for arm in arm_order}
    conv_topics: dict[str, str] = {}
    members: dict[str, list[str]] = {}

    for round_no in range(rounds):
        topic = topics[round_no % len(topics)]
        for arm in arm_order:
            if round_no >= counts[arm].calls:
                continue
            conversation_id = f"{arm}-{round_no:04d}"
            group = [f"{arm[0]}{round_no:04d}x{k}" for k in range(group_size)]
            ids = _emit_turn(builder, specs[arm], topic, group, conversation_id)
            call_ids[arm].append(ids[0])
            conv_ids[arm].append(conversation_id)
            conv_topics[conversation_id] = topic
            members[conversation_id] = group

    for arm in arm_order:
        c = counts[arm]
        spec = specs[arm]
        volunteers = []
        reply_ids: list[str] = []
        active = conv_ids[arm][: c.volunteers]
        # First reply from each volunteer (member 0 of its conversation).
        for i, conversation_id in enumerate(active):
            user = members[conversation_id][0]
            volunteers.append((user, conversation_id))
            reply_id = builder.mint_item()
            builder.emit(
                EventKind.INBOUND_REPLY,
                actor=user,
                strategy=arm,
                topic=conv_topics[conversation_id],
                conversation_id=conversation_id,
                message_id=reply_id,
                in_reply_to=call_ids[arm][i],
                text=f"count me in on {conv_topics[conversation_id]}",
            )
            reply_ids.append(reply_id)
        # Follow-ups round-robin over the conversations that replied.
        question_cursor: dict[str, int] = {conv: 0 for conv in active}
        turn_cursor: dict[str, int] = {conv: 0 for conv in active}
        for i in range(c.followups):
            conversation_id = active[i % len(active)]
            index = question_cursor[conversation_id]
            if index >= len(spec.followups):
                raise ValueError(f"arm {arm} needs more than {len(spec.followups)} questions")
            question_cursor[conversation_id] += 1
            turn_cursor[conversation_id] += 1
            user = members[conversation_id][0]
            _emit_turn(
                builder,
                spec,
                conv_topics[conversation_id],
                [user],
                conversation_id,
                followup_index=index,
                turn=turn_cursor[conversation_id],
            )
        # Remaining replies cycle through the volunteers.
        for i in range(c.replies - c.volunteers):
            user, conversation_id = volunteers[i % len(volunteers)]
            reply_id = builder.mint_item()
            builder.emit(
                EventKind.INBOUND_REPLY,
                actor=user,
                strategy=arm,
                topic=conv_topics[conversation_id],
                conversation_id=conversation_id,
                message_id=reply_id,
                in_reply_to=call_ids[arm][conv_ids[arm].index(conversation_id)],
                text="here is another idea",
            )
            reply_ids.append(reply_id)
        # Interactions: alternate retweet/favorite toward bot then volunteer content.
        for i in range(c.bot_interactions):
            user, _ = volunteers[i % len(volunteers)]
            target = call_ids[arm][i % len(call_ids[arm])]
            conversation_id = conv_ids[arm][i % len(call_ids[arm])]
            builder.emit(
                EventKind.RETWEET if i % 2 == 0 else EventKind.FAVORITE,
                actor=user,
                strategy=arm,
                topic=conv_topics[conversation_id],
                conversation_id=conversation_id,
                message_id=builder.mint_item(),
                in_reply_to=target,
                target_author=TargetAuthor.BOT,
            )
        for i in range(c.volunteer_interactions):
            user, _ = volunteers[(i + 1) % len(volunteers)]
            target = reply_ids[i % len(reply_ids)]
            conversation_id = volunteers[i % len(volunteers)][1]
            builder.emit(
                EventKind.RETWEET if i % 2 == 0 else EventKind.FAVORITE,
                actor=user,
                strategy=arm,
                topic=conv_topics[conversation_id],
                conversation_id=conversation_id,
                message_id=builder.mint_item(),
                in_reply_to=target,
                target_author=TargetAuthor.VOLUNTEER,
            )
    return builder.events


def build_reference_log() -> list[CampaignEvent]:
    """The shipped fixture log encoding the reference campaign's columns."""
    return build_fixture_log(REFERENCE_COUNTS)


# -- label study fixture ------------------------------------------------------------

# Arm sizes chosen so that every per-arm on-topic fraction and the overall
# fraction round to the reference percentages (94/74/89/82, overall 81).
LABEL_STUDY_VOLUNTEERS = {"direct": (50, 47), "loss": (130, 96), "gain": (18, 16), "solidarity": (100, 82)}


def build_label_study() -> tuple[
    list[CampaignEvent], list[VolunteerLabel], list[VolunteerLabel], list[VolunteerLabel]
]:
    """A log plus two coder files and a tiebreaker reproducing the reference
    on-topic fractions once merged.

    Coder B matches the intended final labels; coder A disagrees on every
    tenth volunteer, and the tiebreaker sides with B.
    """
    counts = {
        arm: ArmCounts(
            calls=math.ceil(v / 3), followups=0, volunteers=v, replies=v,
            bot_interactions=0, volunteer_interactions=0,
        )
        for arm, (v, _on) in LABEL_STUDY_VOLUNTEERS.items()
    }
    specs = {s.id: s for s in default_strategies("en")}
    builder = _LogBuilder()
    labels_a: list[VolunteerLabel] = []
    labels_b: list[VolunteerLabel] = []
    labels_c: list[VolunteerLabel] = []
    flip = {LabelValue.ON_TOPIC: LabelValue.OFF_TOPIC, LabelValue.OFF_TOPIC: LabelValue.ON_TOPIC}
    user_counter = 0

    for arm, (volunteers, on_topic) in LABEL_STUDY_VOLUNTEERS.items():
        spec = specs[arm]
        remaining = volunteers
        conv_no = 0
        labeled = 0
        while remaining > 0:
            conversation_id = f"study-{arm}-{conv_no:03d}"
            topic = ("corruption", "impunity")[conv_no % 2]
            group = [f"s{arm[:3]}{user_counter + k:04d}" for k in range(3)]
            user_counter += 3
            ids = _emit_turn(builder, spec, topic, group, conversation_id)
            for user in group[: min(3, remaining)]:
                builder.emit(
                    EventKind.INBOUND_REPLY,
                    actor=user,
                    strategy=arm,
                    topic=topic,
                    conversation_id=conversation_id,
                    message_id=builder.mint_item(),
                    in_reply_to=ids[0],
                    text=f"my two cents on {topic}",
                )
                final = LabelValue.ON_TOPIC if labeled < on_topic else LabelValue.OFF_TOPIC
                disagrees = labeled % 10 == 9
                labels_a.append(
                    VolunteerLabel(user, flip[final] if disagrees else final, "coder_a")
                )
                labels_b.append(VolunteerLabel(user, final, "coder_b"))
                labels_c.append(VolunteerLabel(user, final, "coder_c"))
                labeled += 1
            remaining -= min(3, remaining)
            conv_no += 1
    return builder.events, labels_a, labels_b, labels_c


# -- agreement fixture ----------------------------------------------------------------

# 2x2 contingency table over the reference study's 175 volunteers with 141
# agreements, chosen by brute-force search over all such tables as the one
# whose kappa lands closest to the reported 0.62 (see tests for the search).
KAPPA_TABLE = {"both_on": 66, "a_on_b_off": 3, "a_off_b_on": 31, "both_off": 75}


def build_kappa_labels() -> tuple[dict[str, LabelValue], dict[str, LabelValue]]:
    labels_a: dict[str, LabelValue] = {}
    labels_b: dict[str, LabelValue] = {}
    cells = (
        (KAPPA_TABLE["both_on"], LabelValue.ON_TOPIC, LabelValue.ON_TOPIC),
        (KAPPA_TABLE["a_on_b_off"], LabelValue.ON_TOPIC, LabelValue.OFF_TOPIC),
        (KAPPA_TABLE["a_off_b_on"], LabelValue.OFF_TOPIC, LabelValue.ON_TOPIC),
        (KAPPA_TABLE["both_off"], LabelValue.OFF_TOPIC, LabelValue.OFF_TOPIC),
    )
    i = 0
    for count, label_a, label_b in cells:
        for _ in range(count):
            user = f"v{i:03d}"
            labels_a[user] = label_a
            labels_b[user] = label_b
            i += 1
    return labels_a, labels_b


# -- history fixture for key-term analysis ----------------------------------------------

PLANTED_HASHTAG = "#fixmycity"

_RESPONDER_PHRASES = (
    "marching downtown for accountability {tag}",
    "we keep organizing neighbors against graft {tag}",
    "join the citizen audit this weekend {tag}",
)

_NON_RESPONDER_PHRASES = (
    "great thread from @nationaldesk on the budget",
    "did you watch the minister's interview @newsdaily",
    "poll numbers moving again says @pollwatch",
)


def build_history_fixture(
    responders: Sequence[str], non_responders: Sequence[str], tweets_per_user: int = 200
) -> dict[str, str]:
    """Synthetic per-user tweet histories: responders share a planted hashtag
    that never appears in non-responder documents."""
    histories: dict[str, str] = {}
    for i, user in enumerate(responders):
        lines = [
            _RESPONDER_PHRASES[(i + j) % len(_RESPONDER_PHRASES)].format(tag=PLANTED_HASHTAG)
            for j in range(tweets_per_user)
        ]
        histories[user] = "\n".join(lines)
    for i, user in enumerate(non_responders):
        lines = [
            _NON_RESPONDER_PHRASES[(i + j) % len(_NON_RESPONDER_PHRASES)]
            for j in range(tweets_per_user)
        ]
        histories[user] = "\n".join(lines)
    return histories
