from __future__ import annotations

import math
import signal
from typing import Iterator, Optional, Sequence

import pytest

from campaignkit import fixtures, model, simulator
from campaignkit.orchestrator import build_simulated_platform, run_campaign
from campaignkit.platform import (
    InboundItem,
    ItemKind,
    Platform,
    PlatformCapabilities,
    PlatformRejected,
    RateLimited,
    SimulatedPlatform,
)
from campaignkit.strategy import MessageKind

# Each test may take this long, set-up and teardown included, before it
# fails; the slowest takes about 4 s on a 2-core Intel Xeon. A loop that
# never ends then fails its test with a traceback instead of hanging the
# suite.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that ran past ``TEST_TIME_LIMIT_S``. Not an
    ``Exception``, so hypothesis does not retry the example without a limit."""


def _time_is_up(signum, frame):
    raise TimeLimitExceeded(f"the test ran for more than {TEST_TIME_LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Arm the limit around each test's whole protocol: a function-scoped
    fixture would arm it only after the session fixtures that run campaigns
    are built."""
    previous = signal.signal(signal.SIGALRM, _time_is_up)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def reference_platform(population, rng, start_ms: int = 1_430_000_000_000) -> SimulatedPlatform:
    """A simulated platform whose first post schedule is built the reference
    way: one heappush per agent, in agent order, with the same draws."""
    agents, population.agents = population.agents, []
    platform = SimulatedPlatform(population, rng, start_ms=start_ms)
    population.agents = agents
    for agent in agents:
        gap = population.next_post_gap_ms(agent, rng)
        if gap is not None:
            platform._push(start_ms + gap, "post", agent)
    return platform


class ReferencePopulation(simulator.AgentPopulation):
    """The agent population with every draw made by the stdlib call the
    simulator reproduces: ``choice``, ``expovariate`` and ``uniform`` on the
    rng, and each text formatted when it is made. Keeps every public post it
    makes in ``posts``."""

    def __init__(self, profile, topics, rng):
        super().__init__(profile, topics, rng)
        self.posts: list[InboundItem] = []

    def next_post_gap_ms(self, agent, rng):
        if agent.post_rate <= 0:
            return None
        return max(1, int(round(rng.expovariate(agent.post_rate / simulator.HOUR_MS))))

    def make_public_post(self, agent, ts, rng):
        topic = rng.choice(self.topics)
        keyword = rng.choice(topic.keywords)
        pattern = rng.choice(simulator._POST_PATTERNS)
        item = InboundItem(
            ItemKind.PUBLIC_POST, agent.user_id, self._mint("t"), ts, None,
            pattern.format(keyword=keyword),
        )
        self.posts.append(item)
        return item

    def _reply_delay_ms(self, rng):
        return int(round(math.exp(rng.uniform(*self._log_delay_ms))))

    def react(self, user_id, message, message_id, now, rng, *, favorites_enabled=True):
        agent = self.by_id.get(user_id)
        if agent is None:
            return []
        items = []
        if message.kind is not MessageKind.QUOTE and agent.replies_made < agent.max_turns:
            if rng.random() < simulator.resolve_propensity(agent.reply_propensity, message.strategy):
                agent.replies_made += 1
                if agent.on_topic is None:
                    agent.on_topic = rng.random() < simulator.resolve_propensity(
                        agent.on_topic_probability, message.strategy
                    )
                pattern = rng.choice(
                    simulator._ON_TOPIC_PATTERNS if agent.on_topic else simulator._OFF_TOPIC_PATTERNS
                )
                tag = simulator.ON_TOPIC_TAG if agent.on_topic else simulator.OFF_TOPIC_TAG
                items.append(InboundItem(
                    ItemKind.REPLY_TO_BOT, user_id, self._mint("r"),
                    now + self._reply_delay_ms(rng), message_id,
                    pattern.format(topic=message.topic, tag=tag),
                ))
        items.extend(self.interaction_draws(
            user_id, message.strategy, message_id, now, rng,
            favorites_enabled=favorites_enabled,
        ))
        return items


def reference_config_dict(config: model.CampaignConfig) -> dict:
    """The reference encoding of a config, written out key by key: the dict
    ``dump_config`` writes as YAML, in the same key order."""

    def strategy(spec: model.StrategySpec) -> dict:
        out: dict = {
            "id": spec.id,
            "call_to_action": spec.call_to_action,
            "followups": list(spec.followups),
            "messages_per_turn": spec.messages_per_turn,
        }
        if spec.solidarity_quote is not None:
            out["solidarity_quote"] = spec.solidarity_quote
        return out

    identity = config.bot_identity
    return {
        "topics": [{"name": t.name, "keywords": list(t.keywords)} for t in config.topics],
        "strategies": [strategy(s) for s in config.strategies],
        "groups_per_strategy_per_topic": config.groups_per_strategy_per_topic,
        "group_size": config.group_size,
        "jitter": {"min_delay": config.jitter.min_delay, "max_delay": config.jitter.max_delay},
        "bot_identity": {
            "display_name": identity.display_name,
            "bio_text": identity.bio_text,
            "is_declared_bot": identity.is_declared_bot,
        },
        "random_seed": config.random_seed,
        "char_limit": config.char_limit,
        "max_mentions_per_message": config.max_mentions_per_message,
        "supports_favorites": config.supports_favorites,
        "partial_groups": {
            "policy": config.partial_groups.policy,
            "timeout_s": config.partial_groups.timeout_s,
        },
        "simulation": dict(config.simulation),
    }


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
    told to rate-limit or reject the first N posts. Keeps delivering posts
    after ``close_public``, which records the clock in ``closes``. It
    replays: the same script yields the same stream and message ids.
    """

    replayable = True

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
        self.closes: list[int] = []
        self._seen: dict[tuple, str] = {}

    def now_ms(self) -> int:
        return self._now

    def advance_to(self, ts: int) -> None:
        self._now = max(self._now, ts)

    def post(self, message) -> str:
        if self._reject_all:
            raise PlatformRejected("scripted rejection")
        if self._rate_limit_first > 0:
            self._rate_limit_first -= 1
            raise RateLimited(retry_after_ms=1000)
        key = (message.conversation_id, message.kind.value, message.turn)
        if key in self._seen:
            return self._seen[key]
        self._check_message(message)
        self._counter += 1
        message_id = f"stub{self._counter:05d}"
        self._seen[key] = message_id
        self.posted.append((message_id, message))
        return message_id

    def close_public(self) -> None:
        self.closes.append(self._now)

    def inbound(self, keywords: Sequence[str]) -> Iterator[InboundItem]:
        from campaignkit.text import FoldedKeywords, match_keyword

        folded = FoldedKeywords(keywords)
        for item in self._public:
            self._now = max(self._now, item.timestamp)
            if match_keyword(item.text, folded) is not None:
                yield item


def keep_stream_open(platform: Platform) -> Platform:
    """Make the platform's ``close_public`` a no-op, so its public stream goes
    on past the last quota, as a stream that never stops would."""
    platform.close_public = lambda: None
    return platform


def public_post(author: str, text: str, ts: int, message_id: Optional[str] = None) -> InboundItem:
    return InboundItem(
        kind=ItemKind.PUBLIC_POST,
        author=author,
        message_id=message_id or f"p-{author}-{ts}",
        timestamp=ts,
        text=text,
    )
