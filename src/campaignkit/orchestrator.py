"""The campaign state machine.

One single-writer event loop owns all mutable state: the contact registry,
the arm allocator, the group buffers, the conversation records and the
append-only log. The platform's one ordered inbound stream feeds it; analytics
reads log snapshots.

Dispatch discipline: admitted targets are assigned arms through shuffled
permutation blocks (one occurrence of each arm per block), buffered per
(topic, arm), and called in serialized batches of one group per arm so that
per-arm call counts never differ by more than one at any log prefix. All
calls of a batch are scheduled within one jitter window; batches alternate
topics whenever both topics have work.
"""

from __future__ import annotations

import heapq
import logging
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import strategy as strategy_mod
from .eventlog import EventLogWriter, ReplayState, replay
from .model import (
    BOT_ACTOR,
    CampaignConfig,
    CampaignError,
    CampaignEvent,
    ConversationRecord,
    ConversationState,
    EventKind,
    StrategyId,
    TargetAuthor,
    TargetUser,
    validate_config,
)
from .platform import (
    InboundItem,
    ItemKind,
    Platform,
    PlatformCapabilities,
    PlatformRejected,
    RateLimited,
)
from .strategy import EVENT_KIND_BY_MESSAGE, MessageKind, OutboundMessage, TemplateOverflow
from .targeting import AdmitResult, ContactRegistry, match_target

logger = logging.getLogger(__name__)

# How long after the last outbound message the loop keeps draining inbound
# reactions before closing the log. Covers a reply at the maximum simulated
# delay plus an interaction with that reply at the maximum delay again.
DRAIN_WINDOW_MS = 13 * 3600 * 1000


class AllQuotasExhausted(CampaignError):
    """Every arm has reached its target quota for the given topic."""


class ArmAllocator:
    """Balanced random arm assignment via shuffled permutation blocks.

    Each block holds every arm exactly once; assignments walk the block and
    reshuffle when the cursor wraps, so after every ``len(arms)`` consecutive
    assignments each arm received exactly one. Arms whose per-topic user
    quota is exhausted are skipped (their block slot is consumed).
    """

    def __init__(
        self,
        arms: Sequence[StrategyId],
        topics: Sequence[str],
        users_per_topic_arm: int,
        rng: random.Random,
    ):
        self.arms = tuple(arms)
        self.topics = tuple(topics)
        self.quota = users_per_topic_arm
        self.rng = rng
        self.assigned: dict[tuple[str, str], int] = {
            (topic, arm): 0 for topic in self.topics for arm in self.arms
        }
        self._block: list[StrategyId] = []
        self._cursor = 0

    def _refill(self) -> None:
        self._block = list(self.arms)
        self.rng.shuffle(self._block)
        self._cursor = 0

    def remaining(self, topic: str, arm: StrategyId) -> int:
        return self.quota - self.assigned[(topic, arm)]

    def has_capacity(self, topic: str) -> bool:
        return any(self.remaining(topic, arm) > 0 for arm in self.arms)

    def any_capacity(self) -> bool:
        return any(self.has_capacity(topic) for topic in self.topics)

    def assign(self, topic: str) -> StrategyId:
        if not self.has_capacity(topic):
            raise AllQuotasExhausted(topic)
        while True:
            if self._cursor >= len(self._block):
                self._refill()
            arm = self._block[self._cursor]
            self._cursor += 1
            if self.remaining(topic, arm) > 0:
                self.assigned[(topic, arm)] += 1
                return arm


@dataclass
class _Buffer:
    targets: list[TargetUser] = field(default_factory=list)
    oldest_ts: Optional[int] = None


class GroupBuffer:
    """Queued targets per (topic, arm); emits groups of exactly group_size."""

    def __init__(self, group_size: int):
        self.group_size = group_size
        self._buffers: dict[tuple[str, str], _Buffer] = {}

    def _buffer(self, topic: str, arm: StrategyId) -> _Buffer:
        return self._buffers.setdefault((topic, arm), _Buffer())

    def add(self, target: TargetUser, now: int) -> Optional[list[TargetUser]]:
        assert target.assigned_strategy is not None
        buf = self._buffer(target.topic, target.assigned_strategy)
        if buf.oldest_ts is None:
            buf.oldest_ts = now
        buf.targets.append(target)
        if len(buf.targets) >= self.group_size:
            group = buf.targets[: self.group_size]
            buf.targets = buf.targets[self.group_size:]
            buf.oldest_ts = now if buf.targets else None
            return group
        return None

    def stale(self, now: int, timeout_ms: int) -> list[tuple[str, str, list[TargetUser]]]:
        """Pop every partial buffer older than the timeout."""
        out = []
        for (topic, arm), buf in self._buffers.items():
            if buf.targets and buf.oldest_ts is not None and now - buf.oldest_ts >= timeout_ms:
                out.append((topic, arm, buf.targets))
                buf.targets = []
                buf.oldest_ts = None
        return out

    def drain(self) -> list[tuple[str, str, list[TargetUser]]]:
        out = []
        for (topic, arm), buf in self._buffers.items():
            if buf.targets:
                out.append((topic, arm, buf.targets))
                buf.targets = []
                buf.oldest_ts = None
        return out


@dataclass(frozen=True)
class _Send:
    """One scheduled outbound turn (a call or a follow-up, plus its quote)."""

    kind: str  # "call" | "followup"
    conversation_id: str
    topic: str
    arm: StrategyId
    messages: tuple[OutboundMessage, ...]
    members: tuple[str, ...] = ()
    partial: bool = False


class DispatchSchedule:
    """Time-ordered queue of scheduled sends."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, _Send]] = []
        self._n = 0

    def push(self, due: int, send: _Send) -> None:
        self._n += 1
        heapq.heappush(self._heap, (due, self._n, send))

    def peek_due(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[int, _Send]:
        due, _, send = heapq.heappop(self._heap)
        return due, send

    def __len__(self) -> int:
        return len(self._heap)


class Orchestrator:
    """Drives one campaign run against a platform adapter."""

    def __init__(
        self,
        config: CampaignConfig,
        platform: Platform,
        writer: EventLogWriter,
        *,
        resume_state: Optional[ReplayState] = None,
    ):
        violations = validate_config(config)
        if violations:
            raise CampaignError(f"invalid config: {violations[0]}")
        self.config = config
        self.platform = platform
        self.writer = writer
        seed = config.random_seed
        self.rng_assign = random.Random(f"{seed}:assign")
        self.rng_jitter = random.Random(f"{seed}:jitter")
        self.rng_followup = random.Random(f"{seed}:followup")

        self.arm_ids = tuple(s.id for s in config.strategies)
        self.specs = {s.id: s for s in config.strategies}
        self.topic_names = tuple(t.name for t in config.topics)
        self.allocator = ArmAllocator(
            self.arm_ids,
            self.topic_names,
            config.groups_per_strategy_per_topic * config.group_size,
            self.rng_assign,
        )
        self.buffers = GroupBuffer(config.group_size)
        self.ready: dict[str, dict[str, list[tuple[list[TargetUser], int]]]] = {
            topic: {arm: [] for arm in self.arm_ids} for topic in self.topic_names
        }
        self.schedule = DispatchSchedule()
        self.registry = ContactRegistry()
        self.records: dict[str, ConversationRecord] = {}
        self.message_conversations: dict[str, str] = {}
        self.bot_messages: set[str] = set()
        self.dispatched_groups: dict[tuple[str, str], int] = {
            (topic, arm): 0 for topic in self.topic_names for arm in self.arm_ids
        }
        self.followup_turns: dict[str, int] = {}
        self.seq = 0
        self.conv_counter = 0
        self.now = platform.now_ms()
        self.last_outbound: Optional[int] = None
        self._calls_in_flight = 0
        self._last_batch_topic: Optional[str] = None

        if resume_state is not None:
            self._restore(resume_state)

    def _restore(self, state: ReplayState) -> None:
        self.records = state.records
        self.message_conversations = state.message_conversations
        self.bot_messages = state.bot_messages
        self.followup_turns = state.followup_turns
        self.registry = state.registry()
        self.seq = state.last_seq
        self.now = max(self.now, state.last_ts)
        self.conv_counter = len(state.records)
        for (topic, arm), calls in state.calls_per_topic_arm.items():
            if (topic, arm) in self.dispatched_groups:
                self.dispatched_groups[(topic, arm)] = calls
        for record in state.records.values():
            key = (record.topic, record.strategy)
            if key in self.allocator.assigned:
                self.allocator.assigned[key] += len(record.members)

    # -- event emission -------------------------------------------------------

    def _emit(self, kind: EventKind, ts: int, **fields) -> CampaignEvent:
        self.seq += 1
        event = CampaignEvent(seq=self.seq, ts=ts, kind=kind, **fields)
        self.writer.append(event)
        return event

    # -- group formation --------------------------------------------------------

    def _handle_public(self, item: InboundItem) -> None:
        target = match_target(item, self.config.topics)
        if target is None:
            return
        if not self.allocator.has_capacity(target.topic):
            return
        if self.registry.admit(target) is AdmitResult.DUPLICATE_REJECTED:
            return
        target.assigned_strategy = self.allocator.assign(target.topic)
        group = self.buffers.add(target, self.now)
        if group is not None:
            self.ready[target.topic][target.assigned_strategy].append((group, self.now))
            self._try_release_batch()

    def _arm_can_produce(self, topic: str, arm: StrategyId) -> bool:
        if self.ready[topic][arm]:
            return True
        return self.allocator.remaining(topic, arm) > 0

    def _topic_ready(self, topic: str) -> bool:
        producible = [a for a in self.arm_ids if self._arm_can_produce(topic, a)]
        return bool(producible) and all(self.ready[topic][a] for a in producible)

    def _topic_alive(self, topic: str) -> bool:
        return any(self._arm_can_produce(topic, arm) for arm in self.arm_ids)

    def _try_release_batch(self) -> None:
        # Serialize batches: the next block of calls goes out only after the
        # previous block was fully posted, keeping arm counts in lockstep.
        if self._calls_in_flight > 0:
            return
        # Strict topic alternation at group granularity: hold a topic's batch
        # while a less recently served topic can still produce one. Stuck
        # groups are rescued by the staleness flush, and finalize drains all.
        if self._last_batch_topic in self.topic_names:
            pivot = self.topic_names.index(self._last_batch_topic)
            preference = self.topic_names[pivot + 1 :] + self.topic_names[: pivot + 1]
        else:
            preference = self.topic_names
        for topic in preference:
            if not self._topic_alive(topic):
                continue
            if not self._topic_ready(topic):
                return  # wait for the preferred topic rather than skip it
            self._last_batch_topic = topic
            for arm in self.arm_ids:
                if self.ready[topic][arm]:
                    group, _formed = self.ready[topic][arm].pop(0)
                    self._schedule_call(topic, arm, group, partial=False)
            return

    def _jitter_ms(self) -> int:
        j = self.config.jitter
        return int(round(self.rng_jitter.uniform(j.min_delay, j.max_delay) * 1000))

    def _schedule_call(
        self, topic: str, arm: StrategyId, group: list[TargetUser], *, partial: bool
    ) -> None:
        self.conv_counter += 1
        conversation_id = f"c{self.conv_counter:06d}"
        members = tuple(t.user_id for t in group)
        messages = strategy_mod.compose_call(
            self.specs[arm],
            topic,
            members,
            conversation_id=conversation_id,
            char_limit=self.config.char_limit,
        )
        send = _Send(
            kind="call",
            conversation_id=conversation_id,
            topic=topic,
            arm=arm,
            messages=tuple(messages),
            members=members,
            partial=partial,
        )
        self.schedule.push(self.now + self._jitter_ms(), send)
        self._calls_in_flight += 1

    # -- dispatch -----------------------------------------------------------------

    def _dispatch(self, due: int, send: _Send) -> None:
        self.now = max(self.now, due)
        self.platform.advance_to(due)
        record = self.records.get(send.conversation_id)
        if record is None:
            # A call's first attempt; a rate-limited retry keeps this record,
            # with the ids already posted and the replies they drew.
            record = ConversationRecord(
                conversation_id=send.conversation_id,
                topic=send.topic,
                strategy=send.arm,
                members=send.members,
                state=ConversationState.CALLED_TO_ACTION,
            )
            # Contacted before the post attempt: a rejected call still counts
            # as the one touch; these users are never re-targeted.
            self.registry.mark_contacted(send.members)
            self.records[send.conversation_id] = record

        for message in send.messages:
            try:
                message_id = self.platform.post(message, turn=message.turn)
            except RateLimited as exc:
                self.schedule.push(due + max(1, exc.retry_after_ms), send)
                return
            except PlatformRejected as exc:
                self._emit(
                    EventKind.ABORT,
                    ts=due,
                    actor=BOT_ACTOR,
                    strategy=send.arm,
                    topic=send.topic,
                    conversation_id=send.conversation_id,
                    text=f"platform rejected {message.kind.value}: {exc}",
                )
                record.state = ConversationState.CLOSED
                if send.kind == "call":
                    self._finish_call(send)
                return
            if message_id in self.bot_messages:
                continue  # idempotent re-post after a rate-limit retry
            self._emit(
                EVENT_KIND_BY_MESSAGE[message.kind],
                ts=due,
                actor=BOT_ACTOR,
                strategy=send.arm,
                topic=send.topic,
                conversation_id=send.conversation_id,
                message_id=message_id,
                text=message.text,
                partial=send.partial and message.kind is MessageKind.CALL,
            )
            record.sent_messages.append(message_id)
            self.message_conversations[message_id] = send.conversation_id
            self.bot_messages.add(message_id)
            self.last_outbound = due
        if send.kind == "call":
            self._finish_call(send)

    def _finish_call(self, send: _Send) -> None:
        self.dispatched_groups[(send.topic, send.arm)] += 1
        self._calls_in_flight -= 1
        self._try_release_batch()

    # -- inbound ------------------------------------------------------------------

    def _handle_notification(self, item: InboundItem) -> None:
        if item.kind is ItemKind.REPLY_TO_BOT:
            self._handle_reply(item)
        else:
            self._handle_interaction(item)

    def _handle_reply(self, item: InboundItem) -> None:
        conversation_id = self.message_conversations.get(item.in_reply_to or "")
        if conversation_id is None:
            logger.warning("reply %s references unknown conversation; ignored", item.message_id)
            return
        record = self.records[conversation_id]
        self._emit(
            EventKind.INBOUND_REPLY,
            ts=item.timestamp,
            actor=item.author,
            strategy=record.strategy,
            topic=record.topic,
            conversation_id=conversation_id,
            message_id=item.message_id,
            in_reply_to=item.in_reply_to,
            text=item.text,
        )
        record.replies.append((item.author, item.message_id, item.timestamp))
        if item.message_id:
            self.message_conversations[item.message_id] = conversation_id
        if item.author not in record.members:
            return  # logged, never answered
        self.registry.mark_replied(item.author)
        if record.state is ConversationState.CLOSED:
            return
        record.state = ConversationState.ENGAGED
        spec = self.specs[record.strategy]
        index = strategy_mod.select_followup(record, spec, self.rng_followup)
        if index is None:
            # Question list exhausted: the conversation closes silently. The
            # registry stays at Replied so it remains log-derivable.
            record.state = ConversationState.CLOSED
            return
        record.used_followups.add(index)
        turn = self.followup_turns.get(conversation_id, 0) + 1
        self.followup_turns[conversation_id] = turn
        try:
            messages = strategy_mod.compose_followup(
                spec,
                record.topic,
                [item.author],
                index,
                conversation_id=conversation_id,
                turn=turn,
                char_limit=self.config.char_limit,
            )
        except TemplateOverflow as exc:
            logger.warning("follow-up overflow in %s: %s", conversation_id, exc)
            return
        send = _Send(
            kind="followup",
            conversation_id=conversation_id,
            topic=record.topic,
            arm=record.strategy,
            messages=tuple(messages),
        )
        self.schedule.push(self.now + self._jitter_ms(), send)

    def _handle_interaction(self, item: InboundItem) -> None:
        target_id = item.in_reply_to or ""
        conversation_id = self.message_conversations.get(target_id)
        if conversation_id is None:
            logger.warning("%s toward unknown message %s; ignored", item.kind.value, target_id)
            return
        record = self.records[conversation_id]
        author = (
            TargetAuthor.BOT if target_id in self.bot_messages else TargetAuthor.VOLUNTEER
        )
        self._emit(
            EventKind.RETWEET if item.kind is ItemKind.RETWEET else EventKind.FAVORITE,
            ts=item.timestamp,
            actor=item.author,
            strategy=record.strategy,
            topic=record.topic,
            conversation_id=conversation_id,
            message_id=item.message_id,
            in_reply_to=target_id,
            target_author=author,
        )

    # -- staleness and teardown ------------------------------------------------------

    def _flush_stale(self) -> None:
        timeout_ms = self.config.partial_groups.timeout_s * 1000
        for topic, arm, targets in self.buffers.stale(self.now, timeout_ms):
            self._flush_partial(topic, arm, targets)
        # Full groups stuck waiting for a batch peer go out alone.
        for topic in self.topic_names:
            for arm in self.arm_ids:
                kept = []
                for group, formed in self.ready[topic][arm]:
                    if self.now - formed >= timeout_ms:
                        self._schedule_call(topic, arm, group, partial=False)
                    else:
                        kept.append((group, formed))
                self.ready[topic][arm] = kept

    def _flush_partial(self, topic: str, arm: StrategyId, targets: list[TargetUser]) -> None:
        if self.config.partial_groups.policy == "discard":
            logger.info("discarding %d queued targets for (%s, %s)", len(targets), topic, arm)
            return
        self._schedule_call(topic, arm, targets, partial=True)

    def _finalize(self) -> None:
        """End of stream or deadline: flush buffers, then drain the schedule."""
        for topic in self.topic_names:
            for arm in self.arm_ids:
                for group, _formed in self.ready[topic][arm]:
                    self._schedule_call(topic, arm, group, partial=False)
                self.ready[topic][arm] = []
        for topic, arm, targets in self.buffers.drain():
            self._flush_partial(topic, arm, targets)
        while len(self.schedule):
            due, send = self.schedule.pop()
            self._dispatch(due, send)

    # -- main loop ------------------------------------------------------------------

    def run(self, max_hours: Optional[float] = None) -> None:
        deadline = None if max_hours is None else self.now + int(max_hours * 3_600_000)
        stream = self.platform.inbound(list(self.config.keywords()))
        pending: Optional[InboundItem] = None
        stream_done = False
        while True:
            if pending is None and not stream_done:
                pending = next(stream, None)
                if pending is None:
                    stream_done = True
            due = self.schedule.peek_due()
            if due is not None and (pending is None or due <= pending.timestamp):
                due, send = self.schedule.pop()
                self._dispatch(due, send)
            elif pending is not None:
                item = pending
                pending = None
                if deadline is not None and item.timestamp > deadline:
                    break
                if self._drained(item.timestamp):
                    break
                self.now = max(self.now, item.timestamp)
                if item.kind is ItemKind.PUBLIC_POST:
                    self._handle_public(item)
                else:
                    self._handle_notification(item)
            else:
                break
            self._flush_stale()
        self._finalize()

    def _drained(self, next_ts: int) -> bool:
        """True once quotas are met, nothing is scheduled, and the reaction
        tail has been given time to arrive."""
        if self.allocator.any_capacity() or len(self.schedule) or self._calls_in_flight:
            return False
        if any(self.ready[t][a] for t in self.topic_names for a in self.arm_ids):
            return False
        horizon = (self.last_outbound or self.now) + DRAIN_WINDOW_MS
        return next_ts > horizon


def build_simulated_platform(config: CampaignConfig, seed: Optional[int] = None) -> Platform:
    """Construct the simulated platform described by the config's
    ``simulation`` subtree (optionally a named built-in profile)."""
    from .fixtures import load_profile
    from .platform import SimulatedPlatform
    from .simulator import AgentPopulation, SimulationProfile

    raw = dict(config.simulation)
    profile_name = raw.pop("profile", None)
    if profile_name:
        base = load_profile(str(profile_name))
        base.update(raw)
        raw = base
    profile = SimulationProfile.from_dict(raw)
    if seed is None:
        seed = config.random_seed
    rng = random.Random(f"{seed}:platform")
    population = AgentPopulation(profile, config.topics, rng)
    capabilities = PlatformCapabilities(
        char_limit=config.char_limit,
        max_mentions_per_message=config.max_mentions_per_message,
        supports_favorites=config.supports_favorites,
    )
    return SimulatedPlatform(
        population,
        rng,
        capabilities=capabilities,
        posts_per_minute_limit=profile.posts_per_minute_limit,
    )


def run_campaign(
    config: CampaignConfig,
    platform: Platform,
    out_path: str,
    *,
    resume: bool = False,
    max_hours: Optional[float] = None,
) -> list[CampaignEvent]:
    """Drive a full campaign and return the events written to ``out_path``."""
    resume_state = None
    prior: list[CampaignEvent] = []
    if resume:
        from .eventlog import read_events

        prior = read_events(out_path)
        resume_state = replay(prior)
    with EventLogWriter(out_path, append=resume) as writer:
        orchestrator = Orchestrator(config, platform, writer, resume_state=resume_state)
        orchestrator.run(max_hours=max_hours)
        return prior + list(writer.events)
