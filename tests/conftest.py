from __future__ import annotations

from typing import Iterator, Optional, Sequence

import pytest

from campaignkit import fixtures, model
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


def reference_record(event: model.CampaignEvent) -> dict:
    """The reference encoding of an event: the dict whose ``json.dumps(...,
    ensure_ascii=False, separators=(",", ":"))`` is its log line."""
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
    if event.followup_index is not None:
        record["q"] = event.followup_index
    if event.members is not None:
        record["members"] = list(event.members)
    if event.text is not None:
        record["text"] = event.text
    return record


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

    def skip_message_ids(self, used) -> None:
        for message_id in used:
            if message_id.startswith("stub"):
                self._counter = max(self._counter, int(message_id[4:]))

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
