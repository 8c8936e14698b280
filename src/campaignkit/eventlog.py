"""The append-only campaign event log.

Format: one JSON object per line, keys in the fixed order
``seq ts kind actor strategy topic conv msg reply_to target_author partial
text``; keys with null values are omitted. ``partial`` appears (as true) only
on calls dispatched for an undersized group. Appends are flushed in blocks
and fsynced so a crashed run leaves a valid prefix.

The log is the single source of truth: the contact registry and every
conversation record can be rebuilt from it with :func:`replay`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Optional

from .model import (
    BOT_ACTOR,
    CampaignError,
    CampaignEvent,
    ConversationRecord,
    ConversationState,
    EventKind,
    INTERACTION_KINDS,
    OUTBOUND_KINDS,
    TargetAuthor,
)
from .text import mentions_in_text


class MalformedLog(CampaignError):
    """The log failed validation; the message names the offending line."""


_FSYNC_BLOCK = 512


def event_to_record(event: CampaignEvent) -> dict:
    record: dict = {"seq": event.seq, "ts": event.ts, "kind": event.kind.value, "actor": event.actor}
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
        record["target_author"] = event.target_author.value
    if event.partial:
        record["partial"] = True
    if event.text is not None:
        record["text"] = event.text
    return record


def record_to_event(record: dict) -> CampaignEvent:
    return CampaignEvent(
        seq=int(record["seq"]),
        ts=int(record["ts"]),
        kind=EventKind(record["kind"]),
        actor=record["actor"],
        strategy=record.get("strategy"),
        topic=record.get("topic"),
        conversation_id=record.get("conv"),
        message_id=record.get("msg"),
        in_reply_to=record.get("reply_to"),
        target_author=(
            TargetAuthor(record["target_author"]) if "target_author" in record else None
        ),
        text=record.get("text"),
        partial=bool(record.get("partial", False)),
    )


def format_event(event: CampaignEvent) -> str:
    return json.dumps(event_to_record(event), ensure_ascii=False, separators=(",", ":"))


class EventLogWriter:
    """Append-only writer; fsyncs every block of records and on close.

    A None path keeps the events in memory only (handy for property tests).
    """

    def __init__(self, path: Optional[str], append: bool = False):
        self.path = path
        self._fh: Optional[IO[str]] = (
            open(path, "a" if append else "w", encoding="utf-8") if path is not None else None
        )
        self._since_sync = 0
        self.events: list[CampaignEvent] = []

    def append(self, event: CampaignEvent) -> None:
        self.events.append(event)
        if self._fh is None:
            return
        self._fh.write(format_event(event) + "\n")
        self._since_sync += 1
        if self._since_sync >= _FSYNC_BLOCK:
            self._sync()

    def _sync(self) -> None:
        if self._fh is None:
            return
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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLog(f"line {lineno}: not valid JSON ({exc})") from exc
            try:
                yield record_to_event(record)
            except (KeyError, ValueError) as exc:
                raise MalformedLog(f"line {lineno}: {exc}") from exc


def read_events(path: str) -> list[CampaignEvent]:
    return list(iter_events(path))


def conversation_members(events: Iterable[CampaignEvent]) -> dict[str, tuple[str, ...]]:
    """Conversation members recovered from the mentions of each call."""
    members: dict[str, tuple[str, ...]] = {}
    for event in events:
        if event.kind is EventKind.OUTBOUND_CALL and event.conversation_id is not None:
            members[event.conversation_id] = tuple(mentions_in_text(event.text or ""))
    return members


def validate_events(events: Iterable[CampaignEvent]) -> list[CampaignEvent]:
    """Check log invariants; raises MalformedLog on the first violation.

    Enforced: strictly increasing seq; outbound messages authored by the bot
    and carrying conversation ids; replies reference a message already in
    the log and belonging to the same conversation; every follow-up is
    preceded by a reply in its conversation; interactions carry a target
    author. Returns the validated list.
    """
    validated: list[CampaignEvent] = []
    last_seq = 0
    known_messages: dict[str, str] = {}  # message_id -> conversation_id
    replied_conversations: set[str] = set()
    for i, event in enumerate(events, start=1):
        where = f"record {i} (seq {event.seq})"
        if event.seq <= last_seq:
            raise MalformedLog(f"{where}: seq not strictly increasing")
        last_seq = event.seq
        if event.kind in OUTBOUND_KINDS:
            if event.actor != BOT_ACTOR:
                raise MalformedLog(f"{where}: outbound message not authored by {BOT_ACTOR}")
            if event.conversation_id is None or event.message_id is None:
                raise MalformedLog(f"{where}: outbound message missing conv or msg")
            if event.strategy is None:
                raise MalformedLog(f"{where}: outbound message missing strategy")
            if event.kind is EventKind.OUTBOUND_FOLLOWUP:
                if event.conversation_id not in replied_conversations:
                    raise MalformedLog(
                        f"{where}: follow-up before any reply in {event.conversation_id}"
                    )
            known_messages[event.message_id] = event.conversation_id
        elif event.kind is EventKind.INBOUND_REPLY:
            if event.in_reply_to is None or event.in_reply_to not in known_messages:
                raise MalformedLog(f"{where}: reply references unknown message")
            conversation = known_messages[event.in_reply_to]
            if event.conversation_id is not None and event.conversation_id != conversation:
                raise MalformedLog(f"{where}: reply conversation mismatch")
            if event.message_id is not None:
                known_messages[event.message_id] = conversation
            replied_conversations.add(conversation)
        elif event.kind in INTERACTION_KINDS:
            if event.target_author is None:
                raise MalformedLog(f"{where}: {event.kind.value} missing target_author")
        elif event.kind is EventKind.ABORT:
            if event.conversation_id is None:
                raise MalformedLog(f"{where}: abort missing conversation")
        validated.append(event)
    return validated


@dataclass
class ReplayState:
    """Campaign state reconstructed from a validated log."""

    records: dict[str, ConversationRecord] = field(default_factory=dict)
    message_conversations: dict[str, str] = field(default_factory=dict)
    bot_messages: set[str] = field(default_factory=set)
    calls_per_topic_arm: dict[tuple[str, str], int] = field(default_factory=dict)
    followup_turns: dict[str, int] = field(default_factory=dict)
    last_seq: int = 0
    last_ts: int = 0

    def registry(self):
        from .targeting import ContactRegistry

        registry = ContactRegistry()
        for record in self.records.values():
            registry.mark_contacted(record.members)
        for record in self.records.values():
            members = set(record.members)
            for user, _msg, _ts in record.replies:
                if user in members:
                    registry.mark_replied(user)
        return registry


def replay(events: Iterable[CampaignEvent]) -> ReplayState:
    """Rebuild conversation records and counters from a validated log."""
    state = ReplayState()
    for event in validate_events(events):
        state.last_seq = event.seq
        state.last_ts = max(state.last_ts, event.ts)
        conv = event.conversation_id
        if event.kind is EventKind.OUTBOUND_CALL:
            members = tuple(mentions_in_text(event.text or ""))
            record = ConversationRecord(
                conversation_id=conv,
                topic=event.topic or "",
                strategy=event.strategy or "",
                members=members,
                state=ConversationState.CALLED_TO_ACTION,
            )
            record.sent_messages.append(event.message_id)
            state.records[conv] = record
            state.message_conversations[event.message_id] = conv
            state.bot_messages.add(event.message_id)
            key = (event.topic or "", event.strategy or "")
            state.calls_per_topic_arm[key] = state.calls_per_topic_arm.get(key, 0) + 1
        elif event.kind in (EventKind.OUTBOUND_QUOTE, EventKind.OUTBOUND_FOLLOWUP):
            record = state.records.get(conv)
            if record is not None:
                record.sent_messages.append(event.message_id)
            state.message_conversations[event.message_id] = conv
            state.bot_messages.add(event.message_id)
            if event.kind is EventKind.OUTBOUND_FOLLOWUP and record is not None:
                turn = state.followup_turns.get(conv, 0) + 1
                state.followup_turns[conv] = turn
                # The question index is not in the log; track the count so a
                # resumed campaign never exceeds the question list.
                record.used_followups.add(turn - 1)
        elif event.kind is EventKind.INBOUND_REPLY:
            target_conv = state.message_conversations.get(event.in_reply_to or "")
            if target_conv is None:
                raise MalformedLog(f"orphan reply at seq {event.seq}")
            record = state.records[target_conv]
            record.replies.append((event.actor, event.message_id or "", event.ts))
            if event.message_id:
                state.message_conversations[event.message_id] = target_conv
            if event.actor in record.members and record.state is not ConversationState.CLOSED:
                record.state = ConversationState.ENGAGED
    return state
