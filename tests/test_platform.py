import itertools
import math
import random

import pytest

from campaignkit import fixtures
from campaignkit.model import replace
from campaignkit.platform import (
    ItemKind,
    PlatformCapabilities,
    PlatformRejected,
    RateLimited,
    SimulatedPlatform,
)
from campaignkit.simulator import AgentPopulation, MixtureComponent, SimulationProfile
from campaignkit.strategy import MessageKind, OutboundMessage

TOPICS = fixtures.default_topics()


def make_sim(profile: SimulationProfile, seed: int = 1, **kwargs) -> SimulatedPlatform:
    rng = random.Random(f"{seed}:platform")
    population = AgentPopulation(profile, TOPICS, rng)
    return SimulatedPlatform(population, rng, **kwargs)


def call_message(user: str, conv: str, strategy: str = "direct") -> OutboundMessage:
    return OutboundMessage(
        kind=MessageKind.CALL,
        text=f"@{user} hello",
        mentions=(user,),
        strategy=strategy,
        topic="corruption",
        conversation_id=conv,
    )


# -- simulated adapter -------------------------------------------------------------

def test_reply_propensity_one_yields_one_reply_per_member():
    profile = SimulationProfile(
        population=3, post_rate=0.0, mean_turns=1.0, reply_propensity=1.0,
        interaction_propensity=0.0,
    )
    sim = make_sim(profile)
    message = OutboundMessage(
        kind=MessageKind.CALL,
        text="@u00000 @u00001 @u00002 join in",
        mentions=("u00000", "u00001", "u00002"),
        strategy="direct",
        topic="corruption",
        conversation_id="c1",
    )
    sim.post(message)
    items = list(sim.inbound([]))
    replies = [i for i in items if i.kind is ItemKind.REPLY_TO_BOT]
    assert len(replies) == 3
    assert sorted(r.author for r in replies) == ["u00000", "u00001", "u00002"]


def test_reply_count_within_three_sigma_of_binomial():
    # 10,000 single-recipient messages at propensity 0.81: the reply count is
    # Binomial(10000, 0.81); 3 sigma = 3 * sqrt(n p (1-p)) ~= 118.
    n, p = 10_000, 0.81
    profile = SimulationProfile(
        population=n, post_rate=0.0, mean_turns=1.0, reply_propensity=p,
        interaction_propensity=0.0,
    )
    sim = make_sim(profile, seed=8)
    for i in range(n):
        sim.post(call_message(f"u{i:05d}", f"c{i}"))
    replies = sum(1 for item in sim.inbound([]) if item.kind is ItemKind.REPLY_TO_BOT)
    assert abs(replies - n * p) <= 3 * math.sqrt(n * p * (1 - p))


def test_post_idempotency_key():
    profile = SimulationProfile(population=3, post_rate=0.0, reply_propensity=1.0,
                                interaction_propensity=0.0, mean_turns=1.0)
    sim = make_sim(profile)
    message = call_message("u00000", "c1")
    first = sim.post(message)
    second = sim.post(message)
    assert first == second
    replies = [i for i in sim.inbound([]) if i.kind is ItemKind.REPLY_TO_BOT]
    assert len(replies) == 1  # delivered at most once
    # A different turn is a different key.
    assert sim.post(replace(call_message("u00001", "c1"), turn=1)) != first


def test_post_enforces_capabilities():
    profile = SimulationProfile(population=5, post_rate=0.0)
    sim = make_sim(profile, capabilities=PlatformCapabilities(char_limit=20, max_mentions_per_message=2))
    with pytest.raises(PlatformRejected):
        sim.post(
            OutboundMessage(
                kind=MessageKind.CALL,
                text="@u00000 way too long for this platform limit",
                mentions=("u00000",),
                strategy="direct",
                topic="corruption",
                conversation_id="c1",
            )
        )
    with pytest.raises(PlatformRejected):
        sim.post(
            OutboundMessage(
                kind=MessageKind.CALL,
                text="@a @b @c",
                mentions=("a", "b", "c"),
                strategy="direct",
                topic="corruption",
                conversation_id="c2",
            )
        )


def test_rate_limit_backoff():
    profile = SimulationProfile(population=5, post_rate=0.0, reply_propensity=0.0,
                                interaction_propensity=0.0)
    sim = make_sim(profile, posts_per_minute_limit=1)
    sim.post(call_message("u00000", "c1"))
    with pytest.raises(RateLimited) as excinfo:
        sim.post(call_message("u00001", "c2"))
    assert excinfo.value.retry_after_ms > 0
    sim.advance_to(sim.now_ms() + 61_000)
    sim.post(call_message("u00001", "c2"))  # window has passed


def test_public_stream_matches_keywords_case_and_accent_folded():
    profile = SimulationProfile(population=50, post_rate=2.0, reply_propensity=0.0)
    sim = make_sim(profile, seed=4)
    items = list(itertools.islice(sim.inbound(["CORRUPCIÓN", "impunidad"]), 40))
    assert len(items) == 40
    assert all(i.kind is ItemKind.PUBLIC_POST for i in items)


def test_sim_streams_are_time_ordered_and_deterministic():
    # Calls go out while the stream is consumed, so the replies and
    # interactions they draw interleave with later public posts.
    profile = SimulationProfile(population=30, post_rate=1.0, reply_propensity=1.0,
                                interaction_propensity=0.5)
    runs = []
    for _ in range(2):
        sim = make_sim(profile, seed=6)
        items = []
        for item in itertools.islice(sim.inbound(["corrupcion", "impunidad"]), 120):
            items.append(item)
            if item.kind is ItemKind.PUBLIC_POST:
                sim.post(call_message(item.author, f"c{len(items)}"))
        runs.append(items)
    assert runs[0] == runs[1]
    stamps = [i.timestamp for i in runs[0]]
    assert stamps == sorted(stamps)
    kinds = [i.kind for i in runs[0]]
    first_notification = next(i for i, k in enumerate(kinds) if k is not ItemKind.PUBLIC_POST)
    assert ItemKind.PUBLIC_POST in kinds[first_notification:]


def test_closed_stream_yields_only_reactions_in_time_order_and_restarts_after_a_post(monkeypatch):
    profile = SimulationProfile(population=30, post_rate=1.0, reply_propensity=1.0,
                                interaction_propensity=0.5)
    sim = make_sim(profile, seed=6)
    stream = sim.inbound(["corrupcion", "impunidad"])
    items = list(itertools.islice(stream, 40))
    called = sorted({i.author for i in items if i.kind is ItemKind.PUBLIC_POST})
    for user in called:
        sim.post(call_message(user, f"c{user}"))
    made = []
    monkeypatch.setattr(sim.population, "make_public_post", lambda *args: made.append(args))
    sim.close_public()
    assert [tag for _, _, tag, _ in sim._heap if tag == "post"] == []
    reactions = list(stream)
    assert next(stream, None) is None  # stopped while nothing is pending
    # A post after the stream stopped is answered on the same stream.
    uncalled = next(a.user_id for a in sim.population.agents if a.user_id not in called)
    message_id = sim.post(call_message(uncalled, "late"))
    late = list(stream)
    assert [i.in_reply_to for i in late if i.kind is ItemKind.REPLY_TO_BOT] == [message_id]
    assert made == []
    assert reactions and {i.kind for i in reactions + late} <= {
        ItemKind.REPLY_TO_BOT, ItemKind.RETWEET, ItemKind.FAVORITE
    }
    stamps = [i.timestamp for i in items + reactions + late]
    assert stamps == sorted(stamps)


def test_first_post_schedule_pops_as_if_pushed_one_agent_at_a_time():
    from conftest import reference_platform

    # Equal weights put agent i in component i modulo 3, so agents cycle
    # through all three; the middle component never posts.
    profile = SimulationProfile(population=50, post_rate=1.0, reply_propensity=0.5, mixture=(
        MixtureComponent(weight=0.01),
        MixtureComponent(weight=0.01, post_rate=0.0),
        MixtureComponent(weight=0.01, post_rate=3.0, interaction_propensity=0.5),
    ))
    streams, set_ups = [], []
    for build in (SimulatedPlatform, reference_platform):
        rng = random.Random("11:platform")
        sim = build(AgentPopulation(profile, TOPICS, rng), rng)
        set_ups.append((rng.getstate(), sorted(sim._heap), sim._tiebreak))
        items = []
        for item in itertools.islice(sim.inbound(["corrupcion", "impunidad"]), 200):
            items.append((item.kind, item.author, item.message_id, item.timestamp, item.text))
            if item.kind is ItemKind.PUBLIC_POST and len(items) % 10 == 0:
                sim.post(call_message(item.author, f"c{len(items)}"))
        streams.append(items)
    assert set_ups[0] == set_ups[1]  # same draws, same keys
    assert streams[0] == streams[1]
    kinds = {kind for kind, *_ in streams[0]}
    assert ItemKind.REPLY_TO_BOT in kinds and len(kinds) > 2
    posters = {author for kind, author, *_ in streams[0] if kind is ItemKind.PUBLIC_POST}
    assert len(posters) > 20 and not posters & {f"u{i:05d}" for i in range(1, 50, 3)}
