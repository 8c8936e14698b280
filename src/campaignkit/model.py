"""Domain types shared by every other module.

Values are plain dataclasses, immutable after construction wherever the type
is a pure value; the orchestrator owns the only mutable working state
(conversation records and the contact registry) behind a single-writer loop.
Timestamps are integer milliseconds since the Unix epoch, UTC.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Optional

import yaml


class CampaignError(Exception):
    """Base class for all errors raised by this package."""


# Strategy identifiers are an open enumeration: the four default framing arms
# ship as a fixture but new framings are just new config entries.
StrategyId = str

BOT_ACTOR = "BOT"

DEFAULT_CHAR_LIMIT = 140


class ContactState(str, Enum):
    FRESH = "Fresh"
    QUEUED = "Queued"
    CONTACTED = "Contacted"
    REPLIED = "Replied"


# Contact states only move forward in this order; once Contacted a user is
# never re-targeted by a new call to action.
CONTACT_STATE_ORDER = (
    ContactState.FRESH,
    ContactState.QUEUED,
    ContactState.CONTACTED,
    ContactState.REPLIED,
)


class ConversationState(str, Enum):
    PENDING = "Pending"
    CALLED_TO_ACTION = "CalledToAction"
    ENGAGED = "Engaged"
    CLOSED = "Closed"


class EventKind(str, Enum):
    OUTBOUND_CALL = "OutboundCall"
    OUTBOUND_QUOTE = "OutboundQuote"
    OUTBOUND_FOLLOWUP = "OutboundFollowup"
    INBOUND_REPLY = "InboundReply"
    RETWEET = "Retweet"
    FAVORITE = "Favorite"
    # Emitted when the platform permanently rejects a scheduled outbound
    # message and the conversation is abandoned.
    ABORT = "Abort"


OUTBOUND_KINDS = frozenset(
    {EventKind.OUTBOUND_CALL, EventKind.OUTBOUND_QUOTE, EventKind.OUTBOUND_FOLLOWUP}
)
INTERACTION_KINDS = frozenset({EventKind.RETWEET, EventKind.FAVORITE})


class TargetAuthor(str, Enum):
    BOT = "Bot"
    VOLUNTEER = "Volunteer"


class LabelValue(str, Enum):
    ON_TOPIC = "OnTopic"
    OFF_TOPIC = "OffTopic"


@dataclass(frozen=True)
class Topic:
    name: str
    keywords: tuple[str, ...]

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Topic":
        return cls(name=str(raw["name"]), keywords=tuple(str(k) for k in raw["keywords"]))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "keywords": list(self.keywords)}


@dataclass(frozen=True)
class StrategySpec:
    """One framing arm: call-to-action template, follow-up questions, budget.

    Templates carry the named placeholders ``{topic}`` and ``{mentions}``;
    a template without ``{mentions}`` gets the mention block prepended when
    composed. ``messages_per_turn`` is 2 exactly when a solidarity quote is
    present (call plus quote per turn), 1 otherwise.
    """

    id: StrategyId
    call_to_action: str
    followups: tuple[str, ...]
    solidarity_quote: Optional[str] = None
    messages_per_turn: int = 1

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "StrategySpec":
        return cls(
            id=str(raw["id"]),
            call_to_action=str(raw["call_to_action"]),
            followups=tuple(str(q) for q in raw["followups"]),
            solidarity_quote=(
                None if raw.get("solidarity_quote") is None else str(raw["solidarity_quote"])
            ),
            messages_per_turn=int(raw.get("messages_per_turn", 1)),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "call_to_action": self.call_to_action,
            "followups": list(self.followups),
            "messages_per_turn": self.messages_per_turn,
        }
        if self.solidarity_quote is not None:
            out["solidarity_quote"] = self.solidarity_quote
        return out


@dataclass(frozen=True)
class JitterBounds:
    """Uniform outbound delay bounds, in seconds."""

    min_delay: int = 60
    max_delay: int = 300

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "JitterBounds":
        return cls(min_delay=int(raw["min_delay"]), max_delay=int(raw["max_delay"]))

    def to_dict(self) -> dict[str, Any]:
        return {"min_delay": self.min_delay, "max_delay": self.max_delay}


@dataclass(frozen=True)
class BotIdentity:
    display_name: str
    bio_text: str
    is_declared_bot: bool = True

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "BotIdentity":
        return cls(
            display_name=str(raw["display_name"]),
            bio_text=str(raw["bio_text"]),
            is_declared_bot=bool(raw["is_declared_bot"]),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "display_name": self.display_name,
            "bio_text": self.bio_text,
            "is_declared_bot": self.is_declared_bot,
        }


@dataclass(frozen=True)
class PartialGroupPolicy:
    """What to do with a group buffer that never fills.

    ``dispatch_partial`` sends the undersized group after ``timeout_s`` and
    flags the call event; ``discard`` drops the buffered users (they stay
    Queued and are never contacted).
    """

    policy: str = "dispatch_partial"
    timeout_s: int = 6 * 3600

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "PartialGroupPolicy":
        return cls(policy=str(raw.get("policy", "dispatch_partial")), timeout_s=int(raw.get("timeout_s", 6 * 3600)))

    def to_dict(self) -> dict[str, Any]:
        return {"policy": self.policy, "timeout_s": self.timeout_s}


@dataclass(frozen=True)
class CampaignConfig:
    topics: tuple[Topic, ...]
    strategies: tuple[StrategySpec, ...]
    groups_per_strategy_per_topic: int
    bot_identity: BotIdentity
    group_size: int = 3
    jitter: JitterBounds = field(default_factory=JitterBounds)
    random_seed: int = 0
    char_limit: int = DEFAULT_CHAR_LIMIT
    max_mentions_per_message: int = 3
    supports_favorites: bool = True
    partial_groups: PartialGroupPolicy = field(default_factory=PartialGroupPolicy)
    # Raw settings subtree for the simulated platform; parsed by the
    # simulator module so new profile knobs never touch the core model.
    simulation: Mapping[str, Any] = field(default_factory=dict)

    def strategy(self, strategy_id: StrategyId) -> StrategySpec:
        for spec in self.strategies:
            if spec.id == strategy_id:
                return spec
        raise KeyError(strategy_id)

    def keywords(self) -> tuple[str, ...]:
        out: list[str] = []
        for topic in self.topics:
            out.extend(topic.keywords)
        return tuple(out)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CampaignConfig":
        return cls(
            topics=tuple(Topic.from_dict(t) for t in raw["topics"]),
            strategies=tuple(StrategySpec.from_dict(s) for s in raw["strategies"]),
            groups_per_strategy_per_topic=int(raw["groups_per_strategy_per_topic"]),
            group_size=int(raw.get("group_size", 3)),
            jitter=JitterBounds.from_dict(raw.get("jitter", {"min_delay": 60, "max_delay": 300})),
            bot_identity=BotIdentity.from_dict(raw["bot_identity"]),
            random_seed=int(raw.get("random_seed", 0)),
            char_limit=int(raw.get("char_limit", DEFAULT_CHAR_LIMIT)),
            max_mentions_per_message=int(raw.get("max_mentions_per_message", 3)),
            supports_favorites=bool(raw.get("supports_favorites", True)),
            partial_groups=PartialGroupPolicy.from_dict(raw.get("partial_groups", {})),
            simulation=dict(raw.get("simulation", {})),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "topics": [t.to_dict() for t in self.topics],
            "strategies": [s.to_dict() for s in self.strategies],
            "groups_per_strategy_per_topic": self.groups_per_strategy_per_topic,
            "group_size": self.group_size,
            "jitter": self.jitter.to_dict(),
            "bot_identity": self.bot_identity.to_dict(),
            "random_seed": self.random_seed,
            "char_limit": self.char_limit,
            "max_mentions_per_message": self.max_mentions_per_message,
            "supports_favorites": self.supports_favorites,
            "partial_groups": self.partial_groups.to_dict(),
            "simulation": dict(self.simulation),
        }


def load_config(path: str) -> CampaignConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, Mapping):
        raise CampaignError(f"config file {path!r} is not a key/value document")
    return CampaignConfig.from_dict(raw)


def dump_config(config: CampaignConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=False, allow_unicode=True)


@dataclass
class TargetUser:
    user_id: str
    matched_keyword: str
    matched_message_id: str
    topic: str
    assigned_strategy: Optional[StrategyId] = None


@dataclass
class ConversationRecord:
    """Per-group state machine. Mutated only by the orchestrator loop."""

    conversation_id: str
    topic: str
    strategy: StrategyId
    members: tuple[str, ...]
    sent_messages: list[str] = field(default_factory=list)
    used_followups: set[int] = field(default_factory=set)
    replies: list[tuple[str, str, int]] = field(default_factory=list)
    state: ConversationState = ConversationState.PENDING


@dataclass(frozen=True)
class CampaignEvent:
    """One append-only log record; the single source of truth for analytics."""

    seq: int
    ts: int
    kind: EventKind
    actor: str
    strategy: Optional[StrategyId] = None
    topic: Optional[str] = None
    conversation_id: Optional[str] = None
    message_id: Optional[str] = None
    in_reply_to: Optional[str] = None
    target_author: Optional[TargetAuthor] = None
    text: Optional[str] = None
    partial: bool = False


@dataclass(frozen=True)
class VolunteerLabel:
    user_id: str
    label: LabelValue
    coder_id: str

    def to_dict(self) -> dict[str, Any]:
        return {"user_id": self.user_id, "label": self.label.value, "coder_id": self.coder_id}

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "VolunteerLabel":
        return cls(user_id=raw["user_id"], label=LabelValue(raw["label"]), coder_id=raw["coder_id"])


@dataclass(frozen=True)
class Violation:
    field: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.field}: {self.message}"


def validate_config(config: CampaignConfig) -> list[Violation]:
    """Check every config invariant; violations are data, not failures."""
    violations: list[Violation] = []

    if config.group_size < 1:
        violations.append(Violation("group_size", "must be at least 1"))
    if config.group_size > config.max_mentions_per_message:
        violations.append(
            Violation(
                "group_size",
                "exceeds max_mentions_per_message; the platform cannot address a full group",
            )
        )
    if config.groups_per_strategy_per_topic < 1:
        violations.append(Violation("groups_per_strategy_per_topic", "must be at least 1"))
    if config.jitter.min_delay > config.jitter.max_delay:
        violations.append(Violation("jitter", "min_delay must not exceed max_delay"))
    if config.jitter.min_delay < 0:
        violations.append(Violation("jitter.min_delay", "must be non-negative"))
    if config.char_limit < 1:
        violations.append(Violation("char_limit", "must be positive"))

    if not config.topics:
        violations.append(Violation("topics", "at least one topic is required"))
    for i, topic in enumerate(config.topics):
        if not topic.keywords:
            violations.append(Violation(f"topics[{i}].keywords", "must be non-empty"))
        if not topic.name:
            violations.append(Violation(f"topics[{i}].name", "must be non-empty"))

    if not config.strategies:
        violations.append(Violation("strategies", "at least one strategy is required"))
    seen_ids: set[str] = set()
    for i, spec in enumerate(config.strategies):
        prefix = f"strategies[{i}]"
        if not spec.id:
            violations.append(Violation(f"{prefix}.id", "must be non-empty"))
        elif spec.id in seen_ids:
            violations.append(Violation(f"{prefix}.id", f"duplicate strategy id {spec.id!r}"))
        seen_ids.add(spec.id)
        if not spec.followups:
            violations.append(Violation(f"{prefix}.followups", "must list at least one question"))
        if spec.messages_per_turn not in (1, 2):
            violations.append(Violation(f"{prefix}.messages_per_turn", "must be 1 or 2"))
        if (spec.solidarity_quote is not None) != (spec.messages_per_turn == 2):
            violations.append(
                Violation(
                    f"{prefix}.messages_per_turn",
                    "must be 2 exactly when solidarity_quote is present",
                )
            )
        for name, template in _iter_templates(spec):
            for placeholder in _unknown_placeholders(template):
                violations.append(
                    Violation(f"{prefix}.{name}", f"unknown placeholder {{{placeholder}}}")
                )

    if not config.bot_identity.is_declared_bot:
        violations.append(
            Violation(
                "bot_identity.is_declared_bot",
                "must be true: accounts that hide being bots break the campaign's transparency rule",
            )
        )
    if config.partial_groups.policy not in ("dispatch_partial", "discard"):
        violations.append(
            Violation("partial_groups.policy", "must be 'dispatch_partial' or 'discard'")
        )
    if config.partial_groups.timeout_s < 0:
        violations.append(Violation("partial_groups.timeout_s", "must be non-negative"))
    return violations


_KNOWN_PLACEHOLDERS = {"topic", "mentions"}


def _iter_templates(spec: StrategySpec):
    yield "call_to_action", spec.call_to_action
    if spec.solidarity_quote is not None:
        yield "solidarity_quote", spec.solidarity_quote
    for i, q in enumerate(spec.followups):
        yield f"followups[{i}]", q


def _unknown_placeholders(template: str) -> list[str]:
    import string as _string

    unknown = []
    for literal, name, spec, conv in _string.Formatter().parse(template):
        if name is not None and name not in _KNOWN_PLACEHOLDERS:
            unknown.append(name or "")
    return unknown


def replace(obj, **changes):
    """dataclasses.replace re-export; handy for tweaking frozen fixtures."""
    return dataclasses.replace(obj, **changes)
