from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

import pytest

from campaignkit import analytics, fixtures, model
from campaignkit.orchestrator import build_simulated_platform, run_campaign
from campaignkit.platform import (
    InboundItem,
    Platform,
    PlatformCapabilities,
    PlatformRejected,
    RateLimited,
)

# Configuration used by the statistical acceptance campaign: 500 groups per
# strategy per topic over two topics = 1,000 groups per arm.
ACCEPTANCE_SEED = 7


def acceptance_config() -> model.CampaignConfig:
    config = fixtures.default_config(
        groups_per_strategy_per_topic=500, random_seed=ACCEPTANCE_SEED
    )
    return model.replace(
        config,
        jitter=model.JitterBounds(min_delay=5, max_delay=20),
        simulation={"profile": "reference", "population": 30000},
    )


def small_sim_config(seed: int = 5, groups: int = 8, population: int = 1500) -> model.CampaignConfig:
    config = fixtures.default_config(groups_per_strategy_per_topic=groups, random_seed=seed)
    return model.replace(
        config,
        jitter=model.JitterBounds(min_delay=5, max_delay=20),
        simulation={"profile": "reference", "population": population},
    )


@pytest.fixture(scope="session")
def reference_log():
    return fixtures.build_reference_log()


@pytest.fixture(scope="session")
def small_campaign(tmp_path_factory):
    """One modest simulated campaign shared by tests that only read the log."""
    config = small_sim_config()
    out = tmp_path_factory.mktemp("smallrun") / "campaign.log"
    platform = build_simulated_platform(config)
    events = run_campaign(config, platform, str(out))
    return config, events, out


@pytest.fixture(scope="session")
def acceptance_campaign(tmp_path_factory):
    """The 1,000-groups-per-arm seeded campaign used by several criteria."""
    import time

    config = acceptance_config()
    out = tmp_path_factory.mktemp("acceptance") / "campaign.log"
    platform = build_simulated_platform(config)
    start = time.perf_counter()
    events = run_campaign(config, platform, str(out))
    elapsed = time.perf_counter() - start
    return config, events, out, elapsed


class StubPlatform(Platform):
    """Scripted adapter for orchestrator unit tests.

    Yields a fixed list of public posts, generates no reactions, and can be
    told to rate-limit or reject the first N posts.
    """

    def __init__(
        self,
        public: Sequence[InboundItem] = (),
        *,
        capabilities: PlatformCapabilities = PlatformCapabilities(),
        rate_limit_first: int = 0,
        reject_all: bool = False,
    ):
        self.capabilities = capabilities
        self._public = list(public)
        self._now = self._public[0].timestamp if self._public else 0
        self._rate_limit_first = rate_limit_first
        self._reject_all = reject_all
        self._counter = 0
        self.posted: list = []
        self._seen: dict[tuple, str] = {}

    def now_ms(self) -> int:
        return self._now

    def advance_to(self, ts: int) -> None:
        self._now = max(self._now, ts)

    def post(self, message, *, turn: int = 0) -> str:
        if self._reject_all:
            raise PlatformRejected("scripted rejection")
        if self._rate_limit_first > 0:
            self._rate_limit_first -= 1
            raise RateLimited(retry_after_ms=1000)
        key = (message.conversation_id, message.kind.value, turn)
        if key in self._seen:
            return self._seen[key]
        self._check_message(message)
        self._counter += 1
        message_id = f"stub{self._counter:05d}"
        self._seen[key] = message_id
        self.posted.append((message_id, message, turn))
        return message_id

    def inbound(self, keywords: Sequence[str]) -> Iterator[InboundItem]:
        from campaignkit.text import match_keyword

        for item in self._public:
            self._now = max(self._now, item.timestamp)
            if match_keyword(item.text, keywords) is not None:
                yield item


def public_post(author: str, text: str, ts: int, message_id: Optional[str] = None) -> InboundItem:
    from campaignkit.platform import ItemKind

    return InboundItem(
        kind=ItemKind.PUBLIC_POST,
        author=author,
        message_id=message_id or f"p-{author}-{ts}",
        timestamp=ts,
        text=text,
    )
