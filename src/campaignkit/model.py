"""Domain types shared by every other module.

Values are plain dataclasses, immutable after construction wherever the type
is a pure value; the orchestrator owns the only mutable working state
(conversation records folded from the event log, plus the users it has
admitted) behind a single-writer loop.
Timestamps are integer milliseconds since the Unix epoch, UTC.

The config records, the simulation profile and ``VolunteerLabel`` share one
codec, ``FieldCodec``, driven by the dataclass fields and their type hints.
Decoding: a key is required iff its field has no default; null means omitted;
a key no field names fails, suggesting the nearest field; types are strict
(``type(v) is T`` for ``str``, ``int`` and ``bool``, so ``true`` is no int
and ``"no"`` no bool; a ``float`` takes an int, not a bool; a
``tuple[T, ...]`` takes a list of ``T``; a ``Mapping[str, T]`` decodes its
values as ``T`` unless ``T`` is ``Any``; a union decodes a mapping as its
last member, anything else as its first; records and enums recurse); a
failure raises ``CampaignError`` naming the key path
(``topics[0].keywords: expected a list, got str``).
Encoding writes fields in declaration order and omits None, so key order is
field order: ``CampaignConfig`` is keyword-only so that its required
``bot_identity`` can follow ``jitter``.

Per-item paths avoid two constant costs (``timeit``, Python 3.11.7, Intel
Xeon). They compare against enum members bound once to module globals next
to each enum (``EVENT_ABORT``, ``platform.ITEM_PUBLIC_POST``): a lookup such
as ``EventKind.ABORT`` goes through the enum metaclass, 140-190 ns against
13 ns for a global, and ``.value`` costs about 250 ns. And they build their
records (``CampaignEvent``, ``platform.InboundItem``,
``strategy.OutboundMessage``, ``analytics.TermScore``, ``VolunteerLabel``)
positionally through the ``__new__`` that :func:`slot_init` generates: an
``InboundItem`` costs 1.5 us by keyword through the frozen dataclass
``__init__``, 0.6 us this way.
Set-up parses YAML through :func:`load_yaml` with libyaml's loader (the
shipped data files: 12.1 ms with ``SafeLoader``, 1.2 ms) and builds agents
positionally (0.3 us, 0.8 us by keyword) and slotted (80 bytes, not 176).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import difflib
import functools
import string
import typing
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Any, Mapping, Optional, TypeVar, Union

import yaml

from .text import expand_template, fold


class CampaignError(Exception):
    """Base class for all errors raised by this package."""


# Strategy identifiers are an open enumeration: the four default framing arms
# ship as a fixture but new framings are just new config entries.
StrategyId = str

BOT_ACTOR = "BOT"

DEFAULT_CHAR_LIMIT = 140


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


# Each member bound once, in declaration order (see the module docstring).
(
    EVENT_OUTBOUND_CALL, EVENT_OUTBOUND_QUOTE, EVENT_OUTBOUND_FOLLOWUP, EVENT_INBOUND_REPLY,
    EVENT_RETWEET, EVENT_FAVORITE, EVENT_ABORT,
) = EventKind

OUTBOUND_KINDS = frozenset({EVENT_OUTBOUND_CALL, EVENT_OUTBOUND_QUOTE, EVENT_OUTBOUND_FOLLOWUP})
INTERACTION_KINDS = frozenset({EVENT_RETWEET, EVENT_FAVORITE})


class TargetAuthor(str, Enum):
    BOT = "Bot"
    VOLUNTEER = "Volunteer"


TARGET_BOT, TARGET_VOLUNTEER = TargetAuthor


class LabelValue(str, Enum):
    ON_TOPIC = "OnTopic"
    OFF_TOPIC = "OffTopic"


LABEL_ON_TOPIC, LABEL_OFF_TOPIC = LabelValue


_R = TypeVar("_R", bound="FieldCodec")
_type_hints = functools.cache(typing.get_type_hints)  # resolved once per class
_SCALARS = {str: (str,), int: (int,), bool: (bool,), float: (float, int)}  # a float takes an int


class FieldCodec:
    """Base of the config and label records: the codec in the module docstring."""

    # No instance dict of its own, so a slotted record built on it stays slotted.
    __slots__ = ()

    @classmethod
    def from_dict(cls: type[_R], raw: Any) -> _R:
        return _decode(cls, raw, "")

    def to_dict(self) -> dict[str, Any]:
        values = ((f.name, getattr(self, f.name)) for f in dataclasses.fields(self))
        return {name: _encode(value) for name, value in values if value is not None}


def _expect(ok: bool, what: str, value: Any, path: str) -> None:
    if not ok:
        raise CampaignError(f"{path}: expected {what}, got {type(value).__name__}")


def _decode(hint: Any, value: Any, path: str) -> Any:
    """The value at key ``path`` as a ``hint``: scalar, union, tuple, Mapping, enum or record."""
    if hint in _SCALARS:
        _expect(type(value) in _SCALARS[hint], hint.__name__, value, path)
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # a null never gets here; a mapping member is listed last
        arms = [arm for arm in args if arm is not type(None)]
        return _decode(arms[-1] if isinstance(value, Mapping) else arms[0], value, path)
    if origin is tuple:
        _expect(isinstance(value, list), "a list", value, path)
        return tuple(_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is collections.abc.Mapping:
        _expect(isinstance(value, Mapping), "a mapping", value, path)
        if args[1] is Any:
            return dict(value)
        return {k: _decode(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            choices = [member.value for member in hint]
            raise CampaignError(f"{path}: expected one of {choices}, got {value!r}") from None
    _expect(isinstance(value, Mapping), "a mapping", value, path or hint.__name__)
    hints, kwargs, prefix = _type_hints(hint), {}, f"{path}." if path else ""
    for key in value:
        if key not in hints:
            near = difflib.get_close_matches(str(key), hints, n=1)
            suggestion = f"; did you mean {near[0]!r}?" if near else ""
            raise CampaignError(f"{prefix}{key}: unknown key{suggestion}")
    for f in dataclasses.fields(hint):
        key = prefix + f.name
        if value.get(f.name) is not None:
            kwargs[f.name] = _decode(hints[f.name], value[f.name], key)
        elif f.default is f.default_factory is dataclasses.MISSING:  # no default: required
            raise CampaignError(f"{key}: missing required key")
    return hint(**kwargs)


def _encode(value: Any) -> Any:
    if isinstance(value, FieldCodec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value.value if isinstance(value, Enum) else value


@dataclass(frozen=True)
class Topic(FieldCodec):
    name: str
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class StrategySpec(FieldCodec):
    """One framing arm: call-to-action template, follow-up questions, budget.

    Templates carry the named placeholders ``{topic}`` and ``{mentions}``;
    a template without ``{mentions}`` gets the mention block prepended when
    composed; :func:`validate_config` checks each by composing sample text.
    ``messages_per_turn`` is 2 exactly when a solidarity quote is present
    (call plus quote per turn), 1 otherwise.
    """

    id: StrategyId
    call_to_action: str
    followups: tuple[str, ...]
    messages_per_turn: int = 1
    solidarity_quote: Optional[str] = None


@dataclass(frozen=True)
class JitterBounds(FieldCodec):
    """Uniform outbound delay bounds, in seconds."""

    min_delay: int = 60
    max_delay: int = 300


@dataclass(frozen=True)
class BotIdentity(FieldCodec):
    display_name: str
    bio_text: str
    is_declared_bot: bool


class PartialPolicy(str, Enum):
    DISPATCH_PARTIAL = "dispatch_partial"
    DISCARD = "discard"


@dataclass(frozen=True)
class PartialGroupPolicy(FieldCodec):
    """What to do with a group buffer that never fills.

    ``dispatch_partial`` sends the undersized group after ``timeout_s`` and
    flags the call event; ``discard`` drops the buffered users (they are
    never contacted, and the run does not admit them again).
    """

    policy: PartialPolicy = PartialPolicy.DISPATCH_PARTIAL
    timeout_s: int = 6 * 3600


# Keyword-only, so that the required ``bot_identity`` can follow ``jitter``:
# field order is the key order of a dumped config.
@dataclass(frozen=True, kw_only=True)
class CampaignConfig(FieldCodec):
    topics: tuple[Topic, ...]
    strategies: tuple[StrategySpec, ...]
    groups_per_strategy_per_topic: int
    group_size: int = 3
    jitter: JitterBounds = field(default_factory=JitterBounds)
    bot_identity: BotIdentity
    random_seed: int = 0
    char_limit: int = DEFAULT_CHAR_LIMIT
    max_mentions_per_message: int = 3
    supports_favorites: bool = True
    partial_groups: PartialGroupPolicy = field(default_factory=PartialGroupPolicy)
    # Raw settings subtree for the simulated platform, decoded by
    # ``simulator.resolve_profile`` so profile knobs never touch the core model.
    simulation: Mapping[str, Any] = field(default_factory=dict)


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # PyYAML may lack libyaml


def load_yaml(source: Union[str, IO[str]]) -> Any:
    """One YAML document, as ``yaml.safe_load`` would return it."""
    return yaml.load(source, Loader=_LOADER)


def load_config(path: str) -> CampaignConfig:
    """Read a YAML config; a malformed file raises ``CampaignError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return CampaignConfig.from_dict(load_yaml(fh))
    except (yaml.YAMLError, CampaignError) as exc:
        raise CampaignError(f"{path}: {exc}") from exc


def dump_config(config: CampaignConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=False, allow_unicode=True)


@dataclass
class ConversationRecord:
    """Per-group state, folded from the log by ``CampaignState.apply`` and
    keyed by its conversation id in ``CampaignState.records``."""

    topic: str
    strategy: StrategyId
    members: tuple[str, ...]
    sent_messages: list[str] = field(default_factory=list)
    used_followups: set[int] = field(default_factory=set)
    closed: bool = False  # an abort was logged for it: no more follow-ups


_C = TypeVar("_C", bound=type)


def slot_init(cls: _C) -> _C:
    """Give a frozen slotted dataclass a ``__new__`` that builds it whole:
    every field, in field order, with its default. Apply it above
    ``@dataclass(frozen=True, slots=True, init=False)``.

    The ``__new__`` allocates an instance of the class's twin,
    ``_<Name>Fill``: a class on the same bases with the same ``__slots__``
    and no ``__setattr__``, so each field is a plain attribute store. It
    then assigns ``__class__``, which CPython allows between the two because
    their layouts match (a twin on ``object`` does not match a record on a
    slotted base such as ``FieldCodec``), and the record is frozen from then
    on. Without an ``__init__`` of its own, ``type.__call__`` ends in
    ``object.__init__``, which ignores the arguments of a class that
    overrides ``__new__``; a dataclass ``__init__`` would set every field a
    second time, so a class that has one is refused. ``__reduce__`` rebuilds
    a record from its field values, so pickle and ``copy`` go through the
    ``__new__`` too instead of calling it with no arguments."""
    if "__init__" in cls.__dict__:
        raise TypeError(f"{cls.__name__}: slot_init needs @dataclass(init=False)")
    fields = dataclasses.fields(cls)
    # The class and twin, then the defaults, that the __new__ closes over.
    closure: dict[str, Any] = {
        "_cls": cls, "_fill": type(f"_{cls.__name__}Fill", cls.__bases__, {"__slots__": cls.__slots__}),
    }
    params = []
    for i, f in enumerate(fields):
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: slot_init takes no default_factory")
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            closure[f"_d{i}"] = f.default
            params.append(f"{f.name}=_d{i}")
    body = "".join(f"  self.{f.name} = {f.name}\n" for f in fields)
    source = (
        f"def make({', '.join(closure)}):\n"
        f" def __new__(cls, {', '.join(params)}):\n"
        f"  self = _fill()\n{body}"
        "  self.__class__ = _cls\n"
        "  return self\n"
        " return __new__\n"
    )
    namespace: dict[str, Any] = {}
    exec(source, namespace)
    new = namespace["make"](**closure)
    new.__module__, new.__qualname__ = cls.__module__, f"{cls.__qualname__}.__new__"
    names = [f.name for f in fields]

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in names)

    cls.__new__, cls.__reduce__ = staticmethod(new), __reduce__
    return cls


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class CampaignEvent:
    """One append-only log record; the single source of truth for analytics.

    Slotted: a log holds tens of thousands of events, and slots make each
    one smaller and cheaper to build than an instance ``__dict__``. Every
    event a run logs and every event a log is read back into is built by
    the ``__new__`` that :func:`slot_init` generates.
    """

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
    # Index of the question a follow-up asks (log key ``q``).
    followup_index: Optional[int] = None
    # The group of an aborted call (log key ``members``).
    members: Optional[tuple[str, ...]] = None


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class VolunteerLabel(FieldCodec):
    user_id: str
    label: LabelValue
    coder_id: str


@dataclass(frozen=True)
class Violation:
    field: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.field}: {self.message}"


def validate_config(config: CampaignConfig) -> list[Violation]:
    """Check every config invariant; violations are data, not failures. A
    template is checked by formatting it with sample values, as composing does."""
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
    seen_topics: set[str] = set()
    for i, topic in enumerate(config.topics):
        if not topic.keywords:
            violations.append(Violation(f"topics[{i}].keywords", "must be non-empty"))
        for j, keyword in enumerate(topic.keywords):
            if not fold(keyword).strip():  # matched folded, it would match every post
                violations.append(Violation(f"topics[{i}].keywords[{j}]", "must not be blank"))
        if not topic.name:
            violations.append(Violation(f"topics[{i}].name", "must be non-empty"))
        elif topic.name in seen_topics:  # two topics of one name share one quota
            violations.append(Violation(f"topics[{i}].name", f"duplicate topic name {topic.name!r}"))
        seen_topics.add(topic.name)

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
            try:
                unknown = _unknown_placeholders(template)
                if not unknown:  # named ones only: ``{topic.upper}`` formats an address
                    expand_template(template, topic="topic", members=("user",))
            except (ValueError, LookupError, AttributeError, TypeError) as exc:
                violations.append(Violation(f"{prefix}.{name}", f"malformed template ({exc})"))
                continue
            for placeholder in unknown:
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
    names = (name for _, name, _, _ in string.Formatter().parse(template))
    return [name for name in names if name is not None and name not in _KNOWN_PLACEHOLDERS]


def replace(obj, **changes):
    """dataclasses.replace re-export; handy for tweaking frozen fixtures."""
    return dataclasses.replace(obj, **changes)
