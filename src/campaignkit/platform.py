"""The boundary to a social platform.

The port contract: post one message or refuse it (the one judge of a
message's length and mentions), consume one inbound stream that merges
the public posts matching the campaign keywords with the bot's notifications
(replies to the bot, retweets, favorites) in timestamp order, and close the
public half of that stream once the campaign needs no more targets. One
concrete adapter ships: a deterministic SimulatedPlatform driven by the agent
population model. A real HTTP adapter would implement the same surface;
credentials and network clients are out of scope here.

The stream is single-consumer and ordered; post() must be called from one
dispatcher thread only. It may stop while nothing is pending and yield again
after a post.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .model import DEFAULT_CHAR_LIMIT, CampaignError, slot_init
from .strategy import MESSAGE_CALL, OutboundMessage
from .text import FoldedKeywords, match_keyword

if TYPE_CHECKING:  # the simulator imports this module; this one needs it for hints only
    from .simulator import AgentPopulation


class RateLimited(CampaignError):
    """Transient rejection: the caller must back off and retry."""

    def __init__(self, retry_after_ms: int):
        super().__init__(f"rate limited, retry after {retry_after_ms} ms")
        self.retry_after_ms = retry_after_ms


class PlatformRejected(CampaignError):
    """Permanent rejection: the conversation is aborted and logged."""


@dataclass(frozen=True)
class PlatformCapabilities:
    char_limit: int = DEFAULT_CHAR_LIMIT
    max_mentions_per_message: int = 3
    supports_favorites: bool = True


class ItemKind(str, Enum):
    PUBLIC_POST = "PublicPost"
    REPLY_TO_BOT = "ReplyToBot"
    RETWEET = "Retweet"
    FAVORITE = "Favorite"


ITEM_PUBLIC_POST, ITEM_REPLY_TO_BOT, ITEM_RETWEET, ITEM_FAVORITE = ItemKind


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class InboundItem:
    kind: ItemKind
    author: str
    message_id: str
    timestamp: int
    in_reply_to: Optional[str] = None
    text: str = ""


class Platform(ABC):
    """Port every adapter implements.

    A campaign resumes by re-running on an adapter rebuilt from its seed, so
    only a ``replayable`` one (the same stream and message ids for the same
    posts), like the simulated platform, can be resumed. A real network
    adapter cannot until the log records write-ahead call intents.
    """

    capabilities: PlatformCapabilities
    replayable = False

    @abstractmethod
    def now_ms(self) -> int: ...

    def advance_to(self, ts: int) -> None:
        """Move the platform clock forward; a no-op for real-time adapters."""

    @abstractmethod
    def post(self, message: OutboundMessage) -> str:
        """Deliver one outbound message, at most once per idempotency key
        (conversation, kind, turn); returns the durable message id. Raises
        ``PlatformRejected`` for a message over the adapter's limits, which
        only it can apply: a live platform counts length its own way
        (Twitter weights URLs and CJK characters, say)."""

    @abstractmethod
    def inbound(self, keywords: Sequence[str]) -> Iterator[InboundItem]:
        """Public posts whose text contains any keyword (folded substring),
        merged with replies to the bot, retweets and favorites, in timestamp
        order; what the campaign loop consumes. It may stop while nothing is
        pending and yield again after a later ``post``. A run on a stream that
        never stops ends once the drain window has passed since its last
        outbound message."""

    def close_public(self) -> None:
        """Stop delivering public posts; notifications keep coming. Called
        once, when every quota is full. A no-op by default; a real adapter
        would close its keyword-filter stream."""

    def _check_message(self, message: OutboundMessage) -> None:
        if len(message.mentions) > self.capabilities.max_mentions_per_message:
            raise PlatformRejected(
                f"message mentions {len(message.mentions)} users, "
                f"limit is {self.capabilities.max_mentions_per_message}"
            )
        if len(message.text) > self.capabilities.char_limit:
            raise PlatformRejected(
                f"message is {len(message.text)} characters, "
                f"limit is {self.capabilities.char_limit}"
            )


class SimulatedPlatform(Platform):
    """Deterministic adapter over an agent population and a virtual clock.

    One master queue orders every pending item (agent posts and scheduled
    reactions); consuming items or posting messages advances the clock, never
    the wall clock. A fixed rng makes two runs byte-identical. The close
    drops every agent's next post from the queue, so no post is drawn after it.
    """

    replayable = True

    def __init__(
        self,
        population: "AgentPopulation",
        rng,
        *,
        capabilities: PlatformCapabilities = PlatformCapabilities(),
        start_ms: int = 1_430_000_000_000,
        posts_per_minute_limit: Optional[int] = None,
    ):
        self.capabilities = capabilities
        self.population = population
        self.rng = rng
        self._now = start_ms
        self._heap: list[tuple[int, int, str, object]] = []
        self._posted: dict[tuple, str] = {}
        self._message_counter = 0
        self._conversation_members: dict[str, tuple[str, ...]] = {}
        self._posts_limit = posts_per_minute_limit
        self._post_times: deque[int] = deque()
        heap = self._heap
        for agent in population.agents:
            gap = population.next_post_gap_ms(agent, rng)
            if gap is not None:
                heap.append((start_ms + gap, len(heap) + 1, "post", agent))
        self._tiebreak = len(heap)
        # Pops match one heappush per agent: the (ts, tiebreak) keys are
        # unique, so they pop in one total order whatever the heap's layout.
        heapq.heapify(heap)

    # -- clock ---------------------------------------------------------------

    def now_ms(self) -> int:
        return self._now

    def advance_to(self, ts: int) -> None:
        if ts > self._now:
            self._now = ts

    # -- internal queue -------------------------------------------------------

    def _push(self, ts: int, tag: str, payload: object) -> None:
        self._tiebreak += 1
        heapq.heappush(self._heap, (ts, self._tiebreak, tag, payload))

    # -- port operations --------------------------------------------------------

    def post(self, message: OutboundMessage) -> str:
        kind = message.kind
        key = (message.conversation_id, kind, message.turn)
        already = self._posted.get(key)
        if already is not None:
            return already
        self._check_message(message)
        if self._posts_limit is not None:
            cutoff = self._now - 60_000
            while self._post_times and self._post_times[0] <= cutoff:
                self._post_times.popleft()
            if len(self._post_times) >= self._posts_limit:
                raise RateLimited(retry_after_ms=self._post_times[0] + 60_000 - self._now)
            self._post_times.append(self._now)

        self._message_counter += 1
        message_id = f"m{self._message_counter:07d}"
        self._posted[key] = message_id
        if kind is MESSAGE_CALL:
            self._conversation_members[message.conversation_id] = tuple(message.mentions)
        members = self._conversation_members.get(message.conversation_id, tuple(message.mentions))
        favorites = self.capabilities.supports_favorites
        for user in message.mentions:
            reactions = self.population.react(
                user, message, message_id, self._now, self.rng, favorites_enabled=favorites
            )
            for item in reactions:
                self._push(item.timestamp, "item", item)
                if item.kind is ITEM_REPLY_TO_BOT:
                    # Co-members see the reply in their thread and may share it.
                    for other in members:
                        if other == user:
                            continue
                        for extra in self.population.interaction_draws(
                            other,
                            message.strategy,
                            item.message_id,
                            item.timestamp,
                            self.rng,
                            favorites_enabled=favorites,
                        ):
                            self._push(extra.timestamp, "item", extra)
        return message_id

    def inbound(self, keywords: Sequence[str]) -> Iterator[InboundItem]:
        return _SimulatedStream(self, keywords)

    def close_public(self) -> None:
        # Reactions keep their unique (ts, tiebreak) keys, so they pop in the
        # same order from the re-heapified queue.
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] != "post"]
        heapq.heapify(heap)


class _SimulatedStream:
    """The simulated platform's inbound stream: pops its queue in order and
    drops public posts that match no keyword. ``next`` raises StopIteration
    while the queue is empty, and yields again once a post refills it."""

    def __init__(self, platform: SimulatedPlatform, keywords: Sequence[str]):
        self._platform = platform
        self._folded = FoldedKeywords(keywords)
        # Whether a post text matches, by text: the population formats its
        # post texts once, so this holds one entry per distinct text.
        self._matches: dict[str, bool] = {}

    def __iter__(self) -> "_SimulatedStream":
        return self

    def __next__(self) -> InboundItem:
        sim = self._platform
        heap, population, rng = sim._heap, sim.population, sim.rng
        while heap:
            ts, _, tag, payload = heap[0]
            if ts > sim._now:
                sim._now = ts
            if tag != "post":
                heapq.heappop(heap)
                return payload  # a scheduled reaction, already an InboundItem
            # The agent's next post takes this one's place in the heap: the
            # draws, their order and the tiebreak of a pop and a push. Only
            # an agent with a positive post rate is queued, so it has one.
            item = population.make_public_post(payload, ts, rng)
            gap = population.next_post_gap_ms(payload, rng)
            sim._tiebreak += 1
            heapq.heapreplace(heap, (ts + gap, sim._tiebreak, "post", payload))
            text = item.text
            keep = self._matches.get(text)
            if keep is None:
                keep = self._matches[text] = match_keyword(text, self._folded) is not None
            if keep:
                return item
        raise StopIteration
