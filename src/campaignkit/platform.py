"""The boundary to a social platform.

The port contract: post one message, and consume one inbound stream that
merges the public posts matching the campaign keywords with the bot's
notifications (replies to the bot, retweets, favorites) in timestamp order.
One concrete adapter ships: a deterministic SimulatedPlatform driven by the
agent population model. A real HTTP adapter would implement the same
surface; credentials and network clients are out of scope here.

The stream is single-consumer and ordered; post() must be called from one
dispatcher thread only.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .model import CampaignError
from .text import match_keyword

if TYPE_CHECKING:  # avoid a runtime cycle with the strategy module
    from .simulator import AgentPopulation
    from .strategy import OutboundMessage


class RateLimited(CampaignError):
    """Transient rejection: the caller must back off and retry."""

    def __init__(self, retry_after_ms: int):
        super().__init__(f"rate limited, retry after {retry_after_ms} ms")
        self.retry_after_ms = retry_after_ms


class PlatformRejected(CampaignError):
    """Permanent rejection: the conversation is aborted and logged."""


@dataclass(frozen=True)
class PlatformCapabilities:
    char_limit: int = 140
    max_mentions_per_message: int = 3
    supports_favorites: bool = True


class ItemKind(str, Enum):
    PUBLIC_POST = "PublicPost"
    REPLY_TO_BOT = "ReplyToBot"
    RETWEET = "Retweet"
    FAVORITE = "Favorite"


@dataclass(frozen=True)
class InboundItem:
    kind: ItemKind
    author: str
    message_id: str
    timestamp: int
    in_reply_to: Optional[str] = None
    text: str = ""


MENTION_SIGIL = "@"


def format_mention(user_id: str) -> str:
    return MENTION_SIGIL + user_id


def format_mentions(user_ids: Sequence[str]) -> str:
    return " ".join(format_mention(u) for u in user_ids)


class Platform(ABC):
    """Port every adapter implements."""

    capabilities: PlatformCapabilities

    @abstractmethod
    def now_ms(self) -> int: ...

    def advance_to(self, ts: int) -> None:
        """Move the platform clock forward; a no-op for real-time adapters."""

    @abstractmethod
    def post(self, message: "OutboundMessage", *, turn: int = 0) -> str:
        """Deliver one outbound message, at most once per idempotency key
        (conversation, kind, turn); returns the durable message id."""

    @abstractmethod
    def inbound(self, keywords: Sequence[str]) -> Iterator[InboundItem]:
        """Public posts whose text contains any keyword (folded substring),
        merged with replies to the bot, retweets and favorites, in timestamp
        order; what the campaign loop consumes."""

    def _check_message(self, message: "OutboundMessage") -> None:
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
    the wall clock. A fixed rng makes two runs byte-identical.
    """

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
        self._tiebreak = 0
        self._posted: dict[tuple, str] = {}
        self._message_counter = 0
        self._conversation_members: dict[str, tuple[str, ...]] = {}
        self._posts_limit = posts_per_minute_limit
        self._post_times: deque[int] = deque()
        for agent in population.agents:
            self._schedule_agent_post(agent, start_ms)

    # -- clock ---------------------------------------------------------------

    def now_ms(self) -> int:
        return self._now

    def advance_to(self, ts: int) -> None:
        self._now = max(self._now, ts)

    # -- internal queue -------------------------------------------------------

    def _push(self, ts: int, tag: str, payload: object) -> None:
        self._tiebreak += 1
        heapq.heappush(self._heap, (ts, self._tiebreak, tag, payload))

    def _schedule_agent_post(self, agent, base_ts: int) -> None:
        gap = self.population.next_post_gap_ms(agent, self.rng)
        if gap is not None:
            self._push(base_ts + gap, "post", agent)

    # -- port operations --------------------------------------------------------

    def post(self, message: "OutboundMessage", *, turn: int = 0) -> str:
        key = (message.conversation_id, message.kind.value, turn)
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

        from .simulator import BotMessageMeta
        from .strategy import MessageKind

        self._message_counter += 1
        message_id = f"m{self._message_counter:07d}"
        self._posted[key] = message_id
        meta = BotMessageMeta(
            message_id=message_id,
            conversation_id=message.conversation_id,
            strategy=message.strategy,
            topic=message.topic,
            solicits=message.kind is not MessageKind.QUOTE,
        )
        if message.kind is MessageKind.CALL:
            self._conversation_members[message.conversation_id] = tuple(message.mentions)
        members = self._conversation_members.get(message.conversation_id, tuple(message.mentions))
        favorites = self.capabilities.supports_favorites
        for user in message.mentions:
            reactions = self.population.react(
                user, meta, self._now, self.rng, favorites_enabled=favorites
            )
            for item in reactions:
                self._push(item.timestamp, "item", item)
                if item.kind is ItemKind.REPLY_TO_BOT:
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
        while self._heap:
            ts, _, tag, payload = heapq.heappop(self._heap)
            self._now = max(self._now, ts)
            if tag == "post":
                item = self.population.make_public_post(payload, ts, self.rng)
                self._schedule_agent_post(payload, ts)
                if match_keyword(item.text, keywords) is None:
                    continue
                yield item
            else:
                yield payload  # a scheduled reaction, already an InboundItem
