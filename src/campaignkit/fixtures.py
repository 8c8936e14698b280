"""Shipped fixtures: the four default framing arms, the default config, the
reference campaign counts, and deterministic builders for fixture logs,
label studies, agreement labels and tweet histories.

The reference campaign is a two-day field deployment of this design whose
published per-arm counts are frozen here. :func:`build_reference_log` builds
a log that reproduces those columns exactly, and :func:`build_label_study` a
log with coder files that reproduce its on-topic fractions, so the metrics
pipeline can be checked end to end without a live platform.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Optional, Sequence

from . import strategy as strategy_mod
from .model import (
    BOT_ACTOR,
    EVENT_FAVORITE,
    EVENT_INBOUND_REPLY,
    EVENT_RETWEET,
    LABEL_OFF_TOPIC,
    LABEL_ON_TOPIC,
    TARGET_BOT,
    TARGET_VOLUNTEER,
    BotIdentity,
    CampaignConfig,
    CampaignEvent,
    EventKind,
    JitterBounds,
    LabelValue,
    StrategySpec,
    Topic,
    VolunteerLabel,
    load_yaml,
)
from .strategy import EVENT_KIND_BY_MESSAGE, MESSAGE_FOLLOWUP

BASE_TS = 1_430_000_000_000
# The fixture logs' topics: a call's topic alternates between them.
TOPICS = ("corruption", "impunity")


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


def default_config(*, groups_per_strategy_per_topic: int = 47, random_seed: int = 7) -> CampaignConfig:
    return CampaignConfig(
        topics=default_topics(),
        strategies=default_strategies(),
        groups_per_strategy_per_topic=groups_per_strategy_per_topic,
        group_size=3,
        jitter=JitterBounds(min_delay=60, max_delay=300),
        bot_identity=BotIdentity(
            display_name="cityfixbot",
            bio_text="I am a bot. I call volunteers to action on civic problems.",
            is_declared_bot=True,
        ),
        random_seed=random_seed,
        simulation={"profile": "reference"},
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

# An interaction's kind alternates between these, starting with a retweet.
_INTERACTIONS = (EVENT_RETWEET, EVENT_FAVORITE)


class _LogBuilder:
    """A fixture log in the making. Event ``seq`` is stamped ``BASE_TS +
    1000 * seq``; the bot's messages are numbered ``m000001``, ``m000002``…
    and replies and interactions ``r000001``… in the order they are added."""

    def __init__(self) -> None:
        self.events: list[CampaignEvent] = []
        self._counters = {"m": 0, "r": 0}

    def _add(self, kind: EventKind, prefix: str, **fields) -> str:
        self._counters[prefix] += 1
        message_id = f"{prefix}{self._counters[prefix]:06d}"
        seq = len(self.events) + 1
        self.events.append(CampaignEvent(seq, BASE_TS + 1000 * seq, kind, message_id=message_id, **fields))
        return message_id

    def turn(
        self, spec: StrategySpec, topic: str, members: Sequence[str], conv: str,
        question: Optional[int] = None, turn: int = 0,
    ) -> list[str]:
        """Compose one outbound turn, the call or (given ``question``) that
        follow-up, and add its messages; returns their ids."""
        if question is None:
            messages = strategy_mod.compose_call(spec, topic, members, conversation_id=conv)
        else:
            messages = strategy_mod.compose_followup(
                spec, topic, members, question, conversation_id=conv, turn=turn
            )
        return [
            self._add(
                EVENT_KIND_BY_MESSAGE[message.kind], "m", actor=BOT_ACTOR, strategy=spec.id,
                topic=topic, conversation_id=conv, text=message.text,
                followup_index=question if message.kind is MESSAGE_FOLLOWUP else None,
            )
            for message in messages
        ]

    def react(self, kind: EventKind, user: str, arm: str, topic: str, conv: str, to: str, **fields) -> str:
        """Add a reply or an interaction by ``user`` toward message ``to``;
        returns its id."""
        return self._add(
            kind, "r", actor=user, strategy=arm, topic=topic, conversation_id=conv, in_reply_to=to,
            **fields,
        )


def build_reference_log() -> list[CampaignEvent]:
    """The shipped fixture log: exactly :data:`REFERENCE_COUNTS` per arm.

    The calls go first, in rounds of one group of three per arm (so per-arm
    call counts stay balanced at every prefix), each round on the next topic.
    Then, arm by arm: one reply from member 0 of each of the arm's first
    ``volunteers`` conversations, the volunteers; follow-ups round-robin
    over those conversations, each asking the conversation's next question;
    the remaining replies, cycling through the volunteers; and retweets and
    favorites, alternately, of the arm's calls and then of its volunteers'
    replies.
    """
    specs = {spec.id: spec for spec in default_strategies()}
    builder = _LogBuilder()
    # Per arm, each call's (conversation, topic, call id, member 0).
    calls: dict[str, list[tuple[str, str, str, str]]] = {arm: [] for arm in REFERENCE_COUNTS}
    for round_no in range(max(counts.calls for counts in REFERENCE_COUNTS.values())):
        topic = TOPICS[round_no % 2]
        for arm, counts in REFERENCE_COUNTS.items():
            if round_no < counts.calls:
                conv = f"{arm}-{round_no:04d}"
                group = [f"{arm[0]}{round_no:04d}x{k}" for k in range(3)]
                calls[arm].append((conv, topic, builder.turn(specs[arm], topic, group, conv)[0], group[0]))

    for arm, counts in REFERENCE_COUNTS.items():
        volunteers = calls[arm][: counts.volunteers]
        n = len(volunteers)
        replies = [
            builder.react(EVENT_INBOUND_REPLY, user, arm, topic, conv, call, text=f"count me in on {topic}")
            for conv, topic, call, user in volunteers
        ]
        for i in range(counts.followups):
            conv, topic, _call, user = volunteers[i % n]
            builder.turn(specs[arm], topic, [user], conv, question=i // n, turn=i // n + 1)
        for i in range(counts.replies - n):
            conv, topic, call, user = volunteers[i % n]
            replies.append(
                builder.react(EVENT_INBOUND_REPLY, user, arm, topic, conv, call, text="here is another idea")
            )
        for i in range(counts.bot_interactions):
            conv, topic, call, _member = calls[arm][i % len(calls[arm])]
            builder.react(
                _INTERACTIONS[i % 2], volunteers[i % n][3], arm, topic, conv, call,
                target_author=TARGET_BOT,
            )
        for i in range(counts.volunteer_interactions):
            conv, topic, _call, _user = volunteers[i % n]
            builder.react(
                _INTERACTIONS[i % 2], volunteers[(i + 1) % n][3], arm, topic, conv,
                replies[i % len(replies)], target_author=TARGET_VOLUNTEER,
            )
    return builder.events


# -- label study fixture ------------------------------------------------------------

# Arm sizes chosen so that every per-arm on-topic fraction and the overall
# fraction round to the reference percentages (94/74/89/82, overall 81).
LABEL_STUDY_VOLUNTEERS = {"direct": (50, 47), "loss": (130, 96), "gain": (18, 16), "solidarity": (100, 82)}


def build_label_study() -> tuple[
    list[CampaignEvent], list[VolunteerLabel], list[VolunteerLabel], list[VolunteerLabel]
]:
    """A log plus two coder files and a tiebreaker reproducing the reference
    on-topic fractions once merged.

    Each arm calls groups of three, each on the next topic, until it has
    called its volunteers, and each volunteer replies once; in each arm the
    first ``on_topic`` volunteers are on-topic. Coder B matches the intended
    final labels; coder A disagrees on every tenth volunteer of an arm, and
    the tiebreaker sides with B.
    """
    specs = {spec.id: spec for spec in default_strategies()}
    builder = _LogBuilder()
    labels_a: list[VolunteerLabel] = []
    labels_b: list[VolunteerLabel] = []
    labels_c: list[VolunteerLabel] = []
    flip = {LABEL_ON_TOPIC: LABEL_OFF_TOPIC, LABEL_OFF_TOPIC: LABEL_ON_TOPIC}
    users = 0
    for arm, (volunteers, on_topic) in LABEL_STUDY_VOLUNTEERS.items():
        for start in range(0, volunteers, 3):
            conv = f"study-{arm}-{start // 3:03d}"
            topic = TOPICS[start // 3 % 2]
            group = [f"s{arm[:3]}{users + k:04d}" for k in range(3)]
            users += 3
            call = builder.turn(specs[arm], topic, group, conv)[0]
            for labeled, user in enumerate(group[: volunteers - start], start=start):
                builder.react(EVENT_INBOUND_REPLY, user, arm, topic, conv, call, text=f"my two cents on {topic}")
                final = LABEL_ON_TOPIC if labeled < on_topic else LABEL_OFF_TOPIC
                labels_a.append(VolunteerLabel(user, flip[final] if labeled % 10 == 9 else final, "coder_a"))
                labels_b.append(VolunteerLabel(user, final, "coder_b"))
                labels_c.append(VolunteerLabel(user, final, "coder_c"))
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
