"""The append-only campaign event log.

Format: one JSON object per line, keys in the fixed order
``seq ts kind actor strategy topic conv msg reply_to target_author partial q
members text``; keys with null values are omitted. ``partial`` appears (as
true) only on calls dispatched for an undersized group; ``q`` is the index of
the question a follow-up asks; ``members`` lists the group of an aborted call
(a call names its group in its text). Appends are flushed in blocks and
fsynced so a crashed run leaves a valid prefix.

The codec's contract: :func:`format_event` writes ``orjson.dumps`` of the
record, with the keys in that order; for every record it accepts these are
exactly the bytes of ``json.dumps(record, ensure_ascii=False,
separators=(",", ":"))``. :func:`iter_events` raises :class:`MalformedLog`,
naming the first bad line, on a line that is not valid UTF-8 (its number
counted as the text reader splits lines, so a raw U+2028 does not end one),
that is not a JSON object (a blank or whitespace-only one too), whose
``seq``, ``ts`` or ``q`` is not an integer (``bool`` is not one), whose
string keys hold anything but strings, whose ``members`` is not a list of
strings, or whose ``partial`` is anything but ``true``.

Lines are decoded by ``orjson`` too, which is stricter than the stdlib
decoder: an integer outside [-2**63, 2**64 - 1] decodes as a float, so such
a ``seq``, ``ts`` or ``q`` is not an event record; ``NaN``, ``Infinity``, a
number that overflows a double, a ``\\ud800`` escape without its low
surrogate and a value nested more than 1,024 deep are not valid JSON. The
depth is checked before the line is decoded, since orjson 3.8 builds nested
values recursively and a line some 10**5 levels deep crashes the
interpreter. The writer produces none of these: orjson refuses to encode an
integer outside the range or a string holding a lone surrogate, so
:meth:`EventLogWriter.append` refuses such an event, and its records nest
two deep.

The log is the single source of truth, and :meth:`CampaignState.apply`
both checks an event against the state folded so far and folds it in. The
live run applies each event before it writes it, so it never writes one
that its reader refuses; its state only checks and routes. A log read back
is walked once, by :func:`validate_events`, which applies each event to a
fresh state that also carries ``report``, the report's indices (a
:class:`ReportIndex`), and returns a :class:`ValidatedLog`, a list sealed
against change (its mutators raise ``TypeError``, events are frozen) that
carries the state. Only a read log's state carries ``report``.
:func:`replay`, :func:`conversation_members`, :func:`volunteer_replies`,
``simulator.derive_labels`` and ``analytics.compute_metrics`` read the state
of a sealed log without walking it, and validate a plain list first.

The log has one writer mode: :class:`EventLogWriter` creates its file and
appends to it, and nothing truncates a log. A resume reads no events: it
runs afresh into a new file, which replaces the log only if its bytes begin
with the old log's complete lines (see ``orchestrator.run_campaign``).
"""

from __future__ import annotations

import os
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, Optional

import orjson

from .model import (
    BOT_ACTOR, EVENT_ABORT, EVENT_INBOUND_REPLY, EVENT_OUTBOUND_CALL, EVENT_OUTBOUND_FOLLOWUP,
    INTERACTION_KINDS, OUTBOUND_KINDS, CampaignError, CampaignEvent, ConversationRecord,
    TARGET_BOT, EventKind, TargetAuthor,
)
from .text import mentions_in_text


class MalformedLog(CampaignError):
    """The log failed validation; the message names the offending line."""


_FSYNC_BLOCK = 512
_KINDS = {kind.value: kind for kind in EventKind}
_TARGETS = {target.value: target for target in TargetAuthor}
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # what surrogateescape decodes a bad byte to
# A line long enough to nest deeper than this is checked before orjson
# builds it (the module docstring says why).
_MAX_DEPTH = 1024
# A string (closing quote optional, so every match succeeds and a scan stays
# linear) or a bracket.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]')


def format_event(event: CampaignEvent) -> bytes:
    """One log line, without its newline: ``orjson.dumps`` of the event's
    record in the fixed key order, which is ``json.dumps(record,
    ensure_ascii=False, separators=(",", ":"))`` encoded to UTF-8.

    Raises ValueError for what orjson cannot encode: a ``seq``, ``ts`` or
    ``q`` outside [-2**63, 2**64 - 1], which :func:`iter_events` would not
    read back as an integer, and a string that holds a lone surrogate.
    """
    # A member's ``_value_`` is its plain string: orjson reads a str-Enum's
    # ``value`` through the Enum property, a Python call per line.
    record = {"seq": event.seq, "ts": event.ts, "kind": event.kind._value_, "actor": event.actor}
    if event.strategy is not None:
        record["strategy"] = event.strategy
    if event.topic is not None:
        record["topic"] = event.topic
    if event.conversation_id is not None:
        record["conv"] = event.conversation_id
    if event.message_id is not None:
        record["msg"] = event.message_id
    if event.in_reply_to is not None:
        record["reply_to"] = event.in_reply_to
    if event.target_author is not None:
        record["target_author"] = event.target_author._value_
    if event.partial:
        record["partial"] = True
    if event.followup_index is not None:
        record["q"] = event.followup_index
    if event.members is not None:
        record["members"] = event.members
    if event.text is not None:
        record["text"] = event.text
    try:
        return orjson.dumps(record)
    except orjson.JSONEncodeError as exc:
        raise ValueError(f"seq {event.seq}: cannot be logged ({exc})") from None


def record_to_event(record: dict) -> CampaignEvent:
    """The event of one parsed log line; the inverse of :func:`format_event`.

    Raises ValueError unless the record is a JSON object with a known
    ``kind``, a string ``actor``, integer ``seq`` and ``ts`` and, if present,
    an integer ``q``, a known ``target_author``, a list of strings in
    ``members``, ``true`` in ``partial`` and strings in the other string
    keys; ``bool`` is not an integer.
    """
    try:
        get = record.get
        seq, ts, q, target = get("seq"), get("ts"), get("q"), get("target_author")
        actor, strategy, topic, conv = record["actor"], get("strategy"), get("topic"), get("conv")
        msg, reply_to, text, members = get("msg"), get("reply_to"), get("text"), get("members")
        partial = get("partial")
        if (
            type(seq) is int and type(ts) is int and (q is None or type(q) is int)
            and type(actor) is str
            and (strategy is None or type(strategy) is str)
            and (topic is None or type(topic) is str)
            and (conv is None or type(conv) is str)
            and (msg is None or type(msg) is str)
            and (reply_to is None or type(reply_to) is str)
            and (text is None or type(text) is str)
            and (members is None or (type(members) is list and all(type(m) is str for m in members)))
            and (partial is None or partial is True)
        ):
            return CampaignEvent(
                seq, ts, _KINDS[record["kind"]], actor, strategy, topic, conv, msg, reply_to,
                None if target is None else _TARGETS[target], text,
                partial is True, q, None if members is None else tuple(members),
            )
    except (AttributeError, KeyError, TypeError):
        pass
    raise ValueError(f"not an event record: {record!r:.80}")


class EventLogWriter:
    """The log's one writer: it creates the file afresh and appends to it,
    fsyncing every block of records and on close. A resume writes a new
    file through one too, and keeps it only if it extends the old log.

    A None path keeps the events in memory only (handy for property tests).
    ``events`` holds every event appended.
    """

    def __init__(self, path: Optional[str]):
        self._fh: Optional[IO[bytes]] = open(path, "wb") if path is not None else None
        self._since_sync = 0
        self.events: list[CampaignEvent] = []

    def append(self, event: CampaignEvent, fold: Optional[Callable[[CampaignEvent], None]] = None) -> None:
        """Log the event. :func:`format_event` encodes it first, with or
        without a path, and raises ValueError if its ``seq``, ``ts`` or ``q``
        lies outside [-2**63, 2**64 - 1] or one of its strings holds a lone
        surrogate. Then ``fold(event)`` is called, if given, and only then is
        the event kept and written: one that the encoder or ``fold`` refuses
        is neither."""
        line = format_event(event)
        if fold is not None:
            fold(event)
        self.events.append(event)
        if self._fh is not None:
            self._fh.write(line + b"\n")
            self._since_sync += 1
            if self._since_sync >= _FSYNC_BLOCK:
                self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if self._fh is not None:
            self._sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_events(events: Iterable[CampaignEvent], path: str) -> None:
    with EventLogWriter(path) as writer:
        for event in events:
            writer.append(event)


def iter_events(path: str) -> Iterator[CampaignEvent]:
    """The log's events in order; raises :class:`MalformedLog` at the first
    bad line, a blank or whitespace-only one included."""
    # Each undecodable byte is read as a lone surrogate, so the loop reaches
    # the line that holds it and names the first bad line of any kind. A
    # strict read would fail on a whole 8 KiB chunk before yielding its first
    # line. The UTF-8 codec calls the handler only on a bad byte.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if len(line) > 2 * _MAX_DEPTH and _too_deep(line):
                raise MalformedLog(f"line {lineno}: not valid JSON (nested deeper than {_MAX_DEPTH})")
            try:
                record = orjson.loads(line)  # rejects trailing data itself
            except orjson.JSONDecodeError as exc:
                # orjson refuses any str holding a surrogate, and only an
                # escaped byte puts one in a line: the JSON escape is ASCII.
                if _ESCAPED_BYTE.search(line):
                    raise MalformedLog(f"line {lineno}: not valid UTF-8") from None
                raise MalformedLog(f"line {lineno}: not valid JSON ({exc})") from exc
            try:
                yield record_to_event(record)
            except ValueError as exc:
                raise MalformedLog(f"line {lineno}: {exc}") from exc


def _too_deep(line: str) -> bool:
    """Whether the line's brackets outside strings nest past the limit."""
    depth = 0
    for token in _TOKEN.findall(line):
        if token == "[" or token == "{":
            depth += 1
            if depth > _MAX_DEPTH:
                return True
        elif token == "]" or token == "}":
            depth -= 1
    return False


def read_events(path: str) -> list[CampaignEvent]:
    return list(iter_events(path))


def conversation_members(events: Iterable[CampaignEvent]) -> dict[str, tuple[str, ...]]:
    """Each called conversation's members, the handles its call mentions; a
    fresh copy of the members that validation folded."""
    return dict(validate_events(events).state.members)


def volunteer_replies(events: Iterable[CampaignEvent]) -> Iterator[CampaignEvent]:
    """The replies that count, in log order: those whose author is a member
    of the conversation they name. Strangers' replies are logged, but they
    make nobody a volunteer. Read from the fold of the validated log."""
    return iter(validate_events(events).state.report.replies)


# The report's per-arm counts that the fold tallies; ``analytics`` checks on
# import that they are the integer fields of ``ArmMetrics`` but ``volunteers``.
TALLIED = (
    "calls_to_action", "followups", "outbound_messages", "volunteer_replies",
    "bot_interactions", "volunteer_interactions",
)


@dataclass
class ReportIndex:
    """The report's indices, folded from a log that is read: ``replies``
    (the volunteer replies, in log order), ``tallies`` (per arm, the
    :data:`TALLIED` counts), ``repliers`` (per arm, its volunteers),
    ``conversations`` (per called conversation, its arm and the set of
    volunteers who replied in it), ``messages`` (per outbound message, its
    arm) and ``message_replies`` (per message, the volunteer replies to it).

    Only :func:`validate_events` builds one, for the state it folds; the
    live run reads none of them. They are kept apart from the state's
    ``records``, so editing a record changes no report.
    """

    replies: list[CampaignEvent] = field(default_factory=list)
    tallies: defaultdict[str, dict[str, int]] = field(
        default_factory=lambda: defaultdict(lambda: dict.fromkeys(TALLIED, 0))
    )
    repliers: defaultdict[str, set[str]] = field(default_factory=lambda: defaultdict(set))
    conversations: dict[str, tuple[str, set[str]]] = field(default_factory=dict)
    messages: dict[str, str] = field(default_factory=dict)
    message_replies: Counter = field(default_factory=Counter)


@dataclass
class CampaignState:
    """Records and message routing, folded from the log, and the report's
    indices when the log is read. ``records`` holds each conversation's
    :class:`ConversationRecord` under its id, and ``message_conversations``
    the conversation of each bot message and reply in the log.

    :meth:`apply` is the one fold and the one check of an event: the
    orchestrator calls it on every event before it writes it, and
    :func:`validate_events` on every event of a log it reads. It checks the
    event against the state it already holds and raises
    :class:`MalformedLog` on the first invariant the event breaks, folding
    nothing. The invariants: strictly increasing seq; outbound messages
    authored by the bot, carrying a non-empty strategy, a conversation id
    and a message id not already in the log; one call per conversation (an
    abort that opens a conversation stands for its call), logged before any
    other outbound message of that conversation; replies reference a message
    already in the log and belonging to the same conversation; every
    follow-up is preceded by a reply in its conversation and never repeats a
    question index (``q``) already asked there; interactions carry a target
    author and reference a message already in the log; an abort names its
    conversation, and an abort that opens one (no call for it logged before)
    names the group it called.

    The live state checks and routes: ``members`` holds, per called
    conversation, the handles its call mentions, and ``replied`` the
    conversations that have a reply. Only a read log's state carries
    ``report``, a :class:`ReportIndex` that :meth:`apply` also folds; the
    orchestrator's is None, so the campaign loop pays for no index it does
    not read. A conversation's members are fixed by its one call, which
    precedes every message a reply in it can answer, so a reply is known to
    be a volunteer's when it is folded.
    """

    records: dict[str, ConversationRecord] = field(default_factory=dict)
    message_conversations: dict[str, str] = field(default_factory=dict)
    last_seq: int = 0
    # When the last outbound message was posted; None before the first.
    last_outbound_ts: Optional[int] = None
    replied: set[str] = field(default_factory=set)
    members: dict[str, tuple[str, ...]] = field(default_factory=dict)
    report: Optional[ReportIndex] = None

    def apply(self, event: CampaignEvent) -> None:
        """Check the event against the state, then fold it in; raises
        :class:`MalformedLog`, folding nothing, if it breaks an invariant."""
        if event.seq <= self.last_seq:
            raise MalformedLog("seq not strictly increasing")
        kind, conv, strategy = event.kind, event.conversation_id, event.strategy or ""
        records, routes, report = self.records, self.message_conversations, self.report
        if kind in OUTBOUND_KINDS:
            message = event.message_id
            if event.actor != BOT_ACTOR:
                raise MalformedLog(f"outbound message not authored by {BOT_ACTOR}")
            if conv is None or message is None:
                raise MalformedLog("outbound message missing conv or msg")
            if not strategy:  # an empty strategy names no arm
                raise MalformedLog("outbound message missing strategy")
            if message in routes:
                raise MalformedLog(f"message {message} already in the log")
            if kind is EVENT_OUTBOUND_CALL:
                if conv in records:
                    raise MalformedLog(f"{conv} called twice")
                members = tuple(mentions_in_text(event.text or ""))
                record = records[conv] = ConversationRecord(event.topic or "", strategy, members)
                self.members[conv] = members
                counted = "calls_to_action"
            elif kind is EVENT_OUTBOUND_FOLLOWUP:
                if conv not in self.replied:
                    raise MalformedLog(f"follow-up before any reply in {conv}")
                record = records[conv]  # a conversation with a reply was called
                q = event.followup_index
                if q is not None:
                    if q in record.used_followups:
                        raise MalformedLog(f"question {q} asked twice in {conv}")
                    record.used_followups.add(q)
                counted = "followups"
            else:
                if conv not in self.members:
                    raise MalformedLog(f"{kind.value} before the call of {conv}")
                record = records[conv]
                counted = None
            record.sent_messages.append(message)
            routes[message] = conv
            self.last_outbound_ts = event.ts
            if report is not None:
                if kind is EVENT_OUTBOUND_CALL:
                    report.conversations[conv] = (strategy, set())
                report.messages[message] = strategy
                tally = report.tallies[strategy]
                if counted is not None:
                    tally[counted] += 1
                tally["outbound_messages"] += 1
        elif kind is EVENT_INBOUND_REPLY:
            to = event.in_reply_to
            routed = routes.get(to)
            if routed is None:
                raise MalformedLog("reply references unknown message")
            if conv is not None and conv != routed:
                raise MalformedLog("reply conversation mismatch")
            if event.message_id is not None:
                routes[event.message_id] = routed
            self.replied.add(routed)
            if report is not None and event.actor in self.members.get(conv, ()):
                report.replies.append(event)
                arm, contributed = report.conversations[conv]
                report.tallies[arm]["volunteer_replies"] += 1
                report.repliers[arm].add(event.actor)
                contributed.add(event.actor)
                report.message_replies[to] += 1
        elif kind in INTERACTION_KINDS:
            if event.target_author is None:
                raise MalformedLog(f"{kind.value} missing target_author")
            if event.in_reply_to not in routes:
                raise MalformedLog(f"{kind.value} toward unknown message")
            if report is not None:
                counted = "bot_interactions" if event.target_author is TARGET_BOT else "volunteer_interactions"
                report.tallies[strategy][counted] += 1
        elif kind is EVENT_ABORT:
            if conv is None:
                raise MalformedLog("abort missing conversation")
            if conv not in self.members and not event.members:
                raise MalformedLog(f"abort opens {conv} without members")
            record = records.get(conv)
            if record is None:  # a rejected call leaves a record of the group it named
                record = records[conv] = ConversationRecord(event.topic or "", strategy, event.members)
            record.closed = True
        self.last_seq = event.seq


class ValidatedLog(list):
    """A log that passed :func:`validate_events`, sealed against change, and
    ``state``, the :class:`CampaignState` that validation folded from it.

    Only :func:`validate_events` should build one. Every mutating list method
    raises ``TypeError``; reading, equality with a list, slicing and ``+``
    work as for a list, and their results are plain lists. Copies and
    pickles validate the events again.
    """

    def _sealed(self, *args, **kwargs):
        raise TypeError("a validated log is sealed; edit a list() copy of it")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _sealed
    append = extend = insert = pop = remove = clear = sort = reverse = _sealed

    def __reduce__(self):
        return validate_events, (list(self),)


def validate_events(events: Iterable[CampaignEvent]) -> ValidatedLog:
    """The events as a sealed :class:`ValidatedLog`, folded through
    :meth:`CampaignState.apply`, which checks each of them; raises
    MalformedLog, naming the record, at the first that breaks an invariant.
    A ValidatedLog is returned as it is."""
    if isinstance(events, ValidatedLog):
        return events
    log = ValidatedLog(events)
    log.state = state = CampaignState(report=ReportIndex())
    apply = state.apply
    for i, event in enumerate(log, start=1):
        try:
            apply(event)
        except MalformedLog as exc:
            raise MalformedLog(f"record {i} (seq {event.seq}): {exc}") from None
    return log


def replay(events: Iterable[CampaignEvent]) -> CampaignState:
    """The :class:`CampaignState` that :func:`validate_events` folded from a
    log: the state the orchestrator built live while writing it, plus the
    report's indices. A sealed log is not walked again: every replay of it
    returns the one state, whose records the report does not read."""
    return validate_events(events).state
