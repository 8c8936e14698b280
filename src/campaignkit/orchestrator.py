"""The campaign state machine.

One single-writer event loop owns all mutable state: the users it has
admitted, the arm allocator, the group buffers, the conversation state and
the append-only log. The platform's one ordered inbound stream feeds it;
analytics reads log snapshots. The loop adds no conversation record, sent id
or message mapping itself: the log's writer encodes each event, applies it
to the loop's ``CampaignState``, the state that ``replay`` folds from the
log, and only then writes it. ``CampaignState.apply`` both checks and folds,
so an event that the log cannot hold or its reader would refuse stops the
run unwritten and unfolded. The live state only checks and routes: it
carries no ``report``, since the report's indices are folded where the log
is read. A reply's text is logged with U+FFFD in place of each lone
surrogate, which UTF-8 cannot encode; a post, reply or interaction whose
author's handle holds one is ignored, since a handle is an identity. A
resume is a fresh run from the start on a platform rebuilt from the seed,
written to a new file, so every state comes back; its bytes must begin with
the old log's complete lines, and only then does the new file replace the
log. A ``max_hours`` deadline stops the loop and flushes nothing: the cut
log is a byte prefix of the uninterrupted log, without the calls not yet
posted.

Dispatch discipline: admitted targets are assigned arms through shuffled
permutation blocks (one occurrence of each arm per block), buffered per
(topic, arm), and called in serialized batches of one group per arm so that
per-arm call counts never differ by more than one at any log prefix. All
calls of a batch are scheduled within one jitter window; batches alternate
topics whenever both topics have work. Composing a message never fails: the
platform alone judges what may be posted, and a message it refuses (too long,
say) is logged as the abort that closes its conversation; the run goes on.

The loop does work per inbound item only where it has some. Partial buffers
and ready groups that wait past the partial-group timeout are flushed, but the
flush is called only once the clock reaches one stored deadline, a lower
bound on the earliest of them; quota checks read counters the allocator keeps.
The keywords are folded once per run, not per post. Each skip leaves out only
work that could not change a decision, so for a given seed the log is
byte-identical to one that does all of it after every item.

The admit that fills the last quota closes the platform's public stream; the
loop then reads only reactions, and asks the stream again after each dispatch,
since a post may restart a stream that has stopped. A stream that stops while
a group waits for its timeout moves the clock to that timeout. A run ends only
with nothing buffered, ready or scheduled, once the stream stops or, on one
that never stops, the drain window has passed: every call it posts has its
reactions read, and nothing is flushed on the way out.
"""

from __future__ import annotations

import heapq
import logging
import math
import os
import random
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from . import strategy as strategy_mod
from .eventlog import CampaignState, EventLogWriter, MalformedLog
from .model import (
    BOT_ACTOR, EVENT_ABORT, EVENT_FAVORITE, EVENT_INBOUND_REPLY, EVENT_RETWEET, TARGET_BOT,
    TARGET_VOLUNTEER, CampaignConfig, CampaignError, CampaignEvent, StrategyId, slot_init,
    validate_config,
)
from .platform import (
    ITEM_PUBLIC_POST, ITEM_REPLY_TO_BOT, ITEM_RETWEET, InboundItem, Platform,
    PlatformCapabilities, PlatformRejected, RateLimited, SimulatedPlatform,
)
from .simulator import AgentPopulation, resolve_profile
from .strategy import EVENT_KIND_BY_MESSAGE, MESSAGE_CALL, MESSAGE_FOLLOWUP, OutboundMessage
from .targeting import DUPLICATE_REJECTED, ContactRegistry, TopicKeywords, match_target
from .text import replace_surrogates

logger = logging.getLogger(__name__)

# How long after the last outbound message a stream that never stops is read
# before the run ends. Covers a reply at the maximum simulated delay plus an
# interaction with that reply at the maximum delay again, as long as
# ``reply_delay.max_s`` is at most 6.5 h (the reference profile uses 6 h).
DRAIN_WINDOW_MS = 13 * 3600 * 1000

# Stale deadline while no target is buffered and no group waits.
_NO_DEADLINE = sys.maxsize


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
        # Arms with quota left, per topic and in total; kept by ``assign``.
        self._open = {topic: len(self.arms) if self.quota > 0 else 0 for topic in self.topics}
        self._open_total = sum(self._open.values())
        self._block: list[StrategyId] = []
        self._cursor = 0

    def _refill(self) -> None:
        self._block = list(self.arms)
        self.rng.shuffle(self._block)
        self._cursor = 0

    def remaining(self, topic: str, arm: StrategyId) -> int:
        return self.quota - self.assigned[(topic, arm)]

    def has_capacity(self, topic: str) -> bool:
        return self._open[topic] > 0

    def any_capacity(self) -> bool:
        return self._open_total > 0

    def assign(self, topic: str) -> StrategyId:
        """The next arm with quota left for ``topic``, charged one target.

        The only writer of ``assigned``, so the capacity counters stay exact.
        """
        if not self.has_capacity(topic):
            raise AllQuotasExhausted(topic)
        while True:
            if self._cursor >= len(self._block):
                self._refill()
            arm = self._block[self._cursor]
            self._cursor += 1
            if self.remaining(topic, arm) > 0:
                self.assigned[(topic, arm)] += 1
                if self.remaining(topic, arm) == 0:
                    self._open[topic] -= 1
                    self._open_total -= 1
                return arm


@dataclass
class _Buffer:
    targets: list[str] = field(default_factory=list)
    oldest_ts: Optional[int] = None


class GroupBuffer:
    """Queued target handles per (topic, arm); emits groups of exactly
    group_size. Targets are added one at a time, so a full group is the
    whole buffer."""

    def __init__(self, group_size: int):
        self.group_size = group_size
        self._buffers: dict[tuple[str, str], _Buffer] = {}

    def _buffer(self, topic: str, arm: StrategyId) -> _Buffer:
        key = (topic, arm)
        buf = self._buffers.get(key)
        if buf is None:  # built only on a miss, not on every add
            buf = self._buffers[key] = _Buffer()
        return buf

    def add(self, user: str, topic: str, arm: StrategyId, now: int) -> Optional[list[str]]:
        buf = self._buffer(topic, arm)
        if buf.oldest_ts is None:
            buf.oldest_ts = now
        buf.targets.append(user)
        if len(buf.targets) == self.group_size:
            group, buf.targets, buf.oldest_ts = buf.targets, [], None
            return group
        return None

    def stale(self, now: int, timeout_ms: int) -> list[tuple[str, str, list[str]]]:
        """Pop every partial buffer older than the timeout."""
        out = []
        for (topic, arm), buf in self._buffers.items():
            if buf.targets and buf.oldest_ts is not None and now - buf.oldest_ts >= timeout_ms:
                out.append((topic, arm, buf.targets))
                buf.targets = []
                buf.oldest_ts = None
        return out

    def oldest(self) -> Optional[int]:
        """When the oldest target still queued was added, or None if all are empty."""
        return min((b.oldest_ts for b in self._buffers.values() if b.oldest_ts is not None), default=None)


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class _Send:
    """One scheduled outbound turn: a call or a follow-up, plus its quote.
    The messages name the conversation, arm, topic and mentions; the send
    holds only what they lack. It is a call exactly when its messages are
    turn 0, as is a rate-limited call's remainder that starts with the quote."""

    messages: tuple[OutboundMessage, ...]
    partial: bool = False  # a call to an undersized group
    question: Optional[int] = None  # the follow-up's question index


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

    def __init__(self, config: CampaignConfig, platform: Platform, writer: EventLogWriter):
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
        self.topic_keywords = TopicKeywords(config.topics)
        self.allocator = ArmAllocator(
            self.arm_ids,
            self.topic_names,
            config.groups_per_strategy_per_topic * config.group_size,
            self.rng_assign,
        )
        self.buffers = GroupBuffer(config.group_size)
        self.ready: dict[str, dict[str, list[tuple[list[str], int]]]] = {
            topic: {arm: [] for arm in self.arm_ids} for topic in self.topic_names
        }
        self.schedule = DispatchSchedule()
        self.state = CampaignState()
        # Per conversation, the follow-up questions drawn so far, posted or
        # not, so that a reply that arrives before a follow-up is posted
        # draws another question.
        self._drawn: dict[str, set[int]] = {}
        self.registry = ContactRegistry()
        self.conv_counter = 0
        self.now = platform.now_ms()
        self._calls_in_flight = 0
        self._last_batch_topic: Optional[str] = None
        self._timeout_ms = config.partial_groups.timeout_s * 1000
        # Lower bound on the earliest stale deadline of a buffered target or a
        # ready group; _flush_stale scans nothing before it.
        self._stale_deadline = _NO_DEADLINE

    # -- event emission -------------------------------------------------------

    def _emit(self, *fields) -> None:
        """Append the next event to the log: the writer encodes it, the state
        checks and folds it, and only then is it written. An event the
        encoder refuses raises ``ValueError``, and one the state refuses
        ``MalformedLog``; either leaves state and log as they were.

        ``fields`` are the event's fields after ``seq``, in field order."""
        self.writer.append(CampaignEvent(self.state.last_seq + 1, *fields), self.state.apply)

    # -- group formation --------------------------------------------------------

    def _handle_public(self, item: InboundItem) -> None:
        topic = match_target(item, self.topic_keywords)
        if topic is None:
            return
        if not self.allocator.has_capacity(topic):
            return  # after the close, every topic's quotas are met
        if self.registry.admit(item.author) is DUPLICATE_REJECTED:
            return
        arm = self.allocator.assign(topic)
        if not self.allocator.any_capacity():
            self.platform.close_public()
        group = self.buffers.add(item.author, topic, arm, self.now)
        # Every buffer start and every ready group's formation time is the
        # ``now`` of some add, so this keeps the deadline a lower bound.
        self._stale_deadline = min(self._stale_deadline, self.now + self._timeout_ms)
        if group is not None:
            self.ready[topic][arm].append((group, self.now))
            self._try_release_batch()

    def _try_release_batch(self) -> None:
        # Serialize batches: the next block of calls goes out only after the
        # previous block was fully posted, keeping arm counts in lockstep.
        if self._calls_in_flight > 0:
            return
        # Strict topic alternation at group granularity: hold a topic's batch
        # while a less recently served topic can still produce one. Stuck
        # groups are rescued by the staleness flush; the run does not end
        # while one waits.
        if self._last_batch_topic in self.topic_names:
            pivot = self.topic_names.index(self._last_batch_topic)
            preference = self.topic_names[pivot + 1 :] + self.topic_names[: pivot + 1]
        else:
            preference = self.topic_names
        # An arm can produce a group if one is ready or it still has quota.
        for topic in preference:
            ready = self.ready[topic]
            producible = [
                arm for arm in self.arm_ids
                if ready[arm] or self.allocator.remaining(topic, arm) > 0
            ]
            if not producible:
                continue
            if not all(ready[arm] for arm in producible):
                return  # wait for the preferred topic rather than skip it
            self._last_batch_topic = topic
            for arm in producible:
                group, _formed = ready[arm].pop(0)
                self._schedule_call(topic, arm, group, partial=False)
            return

    def _jitter_ms(self) -> int:
        j = self.config.jitter
        return int(round(self.rng_jitter.uniform(j.min_delay, j.max_delay) * 1000))

    def _schedule_call(
        self, topic: str, arm: StrategyId, group: list[str], *, partial: bool
    ) -> None:
        self.conv_counter += 1
        messages = strategy_mod.compose_call(
            self.specs[arm], topic, group, conversation_id=f"c{self.conv_counter:06d}"
        )
        self.schedule.push(self.now + self._jitter_ms(), _Send(tuple(messages), partial))
        self._calls_in_flight += 1

    # -- dispatch -----------------------------------------------------------------

    def _dispatch(self, due: int, send: _Send) -> None:
        if due > self.now:
            self.now = due
        self.platform.advance_to(due)
        for i, message in enumerate(send.messages):
            try:
                message_id = self.platform.post(message)
            except RateLimited as exc:
                rest = replace(send, messages=send.messages[i:])  # from the refused one
                self.schedule.push(due + max(1, exc.retry_after_ms), rest)
                return
            except PlatformRejected as exc:
                # Every refusal ends here, an over-long message included. A
                # rejected call still counts as the one touch: its abort
                # names the group. A follow-up's names none.
                self._emit(
                    due, EVENT_ABORT, BOT_ACTOR, message.strategy, message.topic,
                    message.conversation_id, None, None, None,
                    f"platform rejected {message.kind.value}: {exc}", False, None,
                    message.mentions if message.turn == 0 else None,
                )
                break
            kind = message.kind
            self._emit(
                due, EVENT_KIND_BY_MESSAGE[kind], BOT_ACTOR, message.strategy, message.topic,
                message.conversation_id, message_id, None, None, message.text,
                send.partial and kind is MESSAGE_CALL,
                send.question if kind is MESSAGE_FOLLOWUP else None,
            )
        if send.messages[0].turn == 0:  # a call, posted or aborted: the next batch may go
            self._calls_in_flight -= 1
            self._try_release_batch()

    # -- inbound ------------------------------------------------------------------

    def _handle_notification(self, item: InboundItem) -> None:
        if replace_surrogates(item.author) != item.author:
            logger.warning("%s %s by a handle the log cannot hold; ignored", item.kind.value, item.message_id)
        elif item.kind is ITEM_REPLY_TO_BOT:
            self._handle_reply(item)
        else:
            self._handle_interaction(item)

    def _handle_reply(self, item: InboundItem) -> None:
        conversation_id = self.state.message_conversations.get(item.in_reply_to or "")
        if conversation_id is None:
            logger.warning("reply %s references unknown conversation; ignored", item.message_id)
            return
        record = self.state.records[conversation_id]
        self._emit(
            item.timestamp, EVENT_INBOUND_REPLY, item.author, record.strategy, record.topic,
            conversation_id, item.message_id, item.in_reply_to, None, replace_surrogates(item.text),
        )
        if record.closed or item.author not in record.members:
            return  # logged, never answered
        spec = self.specs[record.strategy]
        drawn = self._drawn.setdefault(conversation_id, set())
        index = strategy_mod.select_followup(drawn, spec, self.rng_followup)
        if index is None:
            return  # every question drawn: the conversation goes quiet
        drawn.add(index)
        messages = strategy_mod.compose_followup(
            spec, record.topic, [item.author], index, conversation_id=conversation_id, turn=len(drawn)
        )
        self.schedule.push(self.now + self._jitter_ms(), _Send(tuple(messages), question=index))

    def _handle_interaction(self, item: InboundItem) -> None:
        target_id = item.in_reply_to or ""
        conversation_id = self.state.message_conversations.get(target_id)
        if conversation_id is None:
            logger.warning("%s toward unknown message %s; ignored", item.kind.value, target_id)
            return
        record = self.state.records[conversation_id]
        self._emit(
            item.timestamp, EVENT_RETWEET if item.kind is ITEM_RETWEET else EVENT_FAVORITE,
            item.author, record.strategy, record.topic, conversation_id, item.message_id,
            target_id, TARGET_BOT if target_id in record.sent_messages else TARGET_VOLUNTEER,
        )

    # -- staleness ------------------------------------------------------------------

    def _flush_stale(self) -> None:
        """Dispatch partial buffers and stuck ready groups older than the timeout.

        The loop calls it only once ``now`` reaches the stale deadline: before
        it nothing can be stale, so skipping the call changes no decision and
        the log stays byte-identical. A call visits the buffers, then the
        ready lists by topic and arm, and then sets the deadline to the exact
        earliest one left.
        """
        timeout_ms = self._timeout_ms
        discard = self.config.partial_groups.policy == "discard"
        for topic, arm, targets in self.buffers.stale(self.now, timeout_ms):
            if discard:
                logger.info("discarding %d queued targets for (%s, %s)", len(targets), topic, arm)
            else:
                self._schedule_call(topic, arm, targets, partial=True)
        earliest = self.buffers.oldest()
        # Full groups stuck waiting for a batch peer go out alone.
        for topic in self.topic_names:
            for arm in self.arm_ids:
                kept = []
                for group, formed in self.ready[topic][arm]:
                    if self.now - formed >= timeout_ms:
                        self._schedule_call(topic, arm, group, partial=False)
                    else:
                        kept.append((group, formed))
                        earliest = formed if earliest is None else min(earliest, formed)
                self.ready[topic][arm] = kept
        self._stale_deadline = _NO_DEADLINE if earliest is None else earliest + timeout_ms

    # -- main loop ------------------------------------------------------------------

    def run(self, max_hours: Optional[float] = None) -> None:
        """Run until nothing is buffered, ready or scheduled, and then either
        the stream has stopped or, on a stream that never stops, the drain
        window has passed; or stop before the first send, item or timeout
        later than ``max_hours`` past the start, flushing nothing."""
        deadline = None if max_hours is None else self.now + int(max_hours * 3_600_000)
        stream = self.platform.inbound(list(self.topic_keywords.topic_of))
        pending: Optional[InboundItem] = None
        while True:
            if pending is None:
                # Asked again after each dispatch: a post may restart a stopped stream.
                pending = next(stream, None)
            # Next comes a scheduled send, the pending item or, once the
            # stream has stopped, the timeout of a group still waiting, so
            # that it goes out then and its reactions are read.
            next_ts = self.schedule.peek_due()
            sending = next_ts is not None and (pending is None or next_ts <= pending.timestamp)
            if not sending:
                next_ts = self._stale_deadline if pending is None else pending.timestamp
                if next_ts == _NO_DEADLINE:
                    return  # the stream stopped with nothing scheduled or waiting
            if deadline is not None and next_ts > deadline:
                return
            if sending:
                self._dispatch(*self.schedule.pop())
            elif pending is None:  # the platform's clock moves when a send is due
                self.now = next_ts
            else:
                item, pending = pending, None
                if self._drained(next_ts):
                    return
                if next_ts > self.now:
                    self.now = next_ts
                if item.kind is ITEM_PUBLIC_POST:
                    self._handle_public(item)
                else:
                    self._handle_notification(item)
            if self.now >= self._stale_deadline:
                self._flush_stale()

    def _drained(self, next_ts: int) -> bool:
        """True once quotas are met, nothing is buffered, ready or scheduled,
        and the reaction tail has been given time to arrive."""
        if self.allocator.any_capacity() or len(self.schedule):
            return False
        # The window runs from the last outbound message in the log. A log
        # with no outbound message has no reaction to wait for.
        last_outbound = self.state.last_outbound_ts
        if last_outbound is not None and next_ts <= last_outbound + DRAIN_WINDOW_MS:
            return False
        return self.buffers.oldest() is None and not any(
            self.ready[t][a] for t in self.topic_names for a in self.arm_ids
        )


def build_simulated_platform(config: CampaignConfig) -> Platform:
    """Construct the simulated platform described by the config's
    ``simulation`` subtree (optionally a named built-in profile), seeded by
    its ``random_seed``."""
    profile = resolve_profile(config.simulation)
    rng = random.Random(f"{config.random_seed}:platform")
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
    """Drive a full campaign and return the events of the log at ``out_path``.

    An invalid config (see ``validate_config``), or a ``max_hours`` that is
    not a finite number at least 0, raises ``CampaignError`` before any file
    is opened; ``max_hours`` counts from the campaign start.
    With ``resume`` the run continues that log: ``platform`` must be
    ``replayable`` (or ``CampaignError`` is raised before the log is read)
    and built afresh from the interrupted run's config and seed. The
    campaign runs again from its start into ``<out_path>.resume``, and that
    file replaces the log only if its bytes begin with the log's complete
    lines; a torn final line left by a crash is not kept (with a warning).
    Otherwise the new file is removed and ``MalformedLog`` names the seq
    where the run diverged, or the first seq it did not reach (a
    ``max_hours`` that ends before the cut, say). A failed resume leaves
    the log as it was.
    """
    violations = validate_config(config)
    if violations:
        raise CampaignError(f"invalid config: {violations[0]}")
    # Checked in milliseconds, as the loop counts: hours whose milliseconds
    # overflow a float are refused too.
    if max_hours is not None and not 0 <= max_hours * 3_600_000 < math.inf:
        raise CampaignError(f"max_hours must be a finite number of hours, at least 0: got {max_hours}")
    if not resume:
        with EventLogWriter(out_path) as writer:
            Orchestrator(config, platform, writer).run(max_hours=max_hours)
        return writer.events
    if not platform.replayable:
        raise CampaignError(
            f"cannot resume on {type(platform).__name__}: it does not replay its stream"
        )
    with open(out_path, "rb") as fh:
        logged = fh.read()
    kept = logged[: logged.rfind(b"\n") + 1]
    if len(kept) < len(logged):
        logger.warning("ignoring a torn final line (%d bytes) of %s", len(logged) - len(kept), out_path)
    resumed = out_path + ".resume"
    try:
        events = run_campaign(config, platform, resumed, max_hours=max_hours)
        with open(resumed, "rb") as fh:
            written = fh.read()
        if not written.startswith(kept):
            if kept.startswith(written):
                raise MalformedLog(f"resume stopped before seq {len(events) + 1} of the log")
            # Line i of a log holds seq i, so the first line that differs
            # names the seq where the runs part.
            lines = zip(written.split(b"\n"), kept.split(b"\n"))
            seq = next(i for i, (new, old) in enumerate(lines, start=1) if new != old)
            raise MalformedLog(f"resume diverged at seq {seq}")
    except BaseException:
        if os.path.exists(resumed):
            os.remove(resumed)
        raise
    os.replace(resumed, out_path)
    directory = os.open(os.path.dirname(os.path.abspath(out_path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return events
