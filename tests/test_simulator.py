import itertools
import math
import random
import typing
from types import MappingProxyType

from hypothesis import example, given, strategies as st

from campaignkit import fixtures
from campaignkit.eventlog import conversation_members
from campaignkit.model import EventKind, LabelValue, OUTBOUND_KINDS
from campaignkit.platform import ItemKind
from campaignkit.simulator import (
    ON_TOPIC_TAG,
    AgentPopulation,
    BotMessageMeta,
    SimulationProfile,
    derive_labels,
    resolve_propensity,
)

from test_platform import make_sim

TOPICS = fixtures.default_topics()


def _resolve_reference(value, strategy):
    if isinstance(value, typing.Mapping):
        if strategy in value:
            return float(value[strategy])
        return float(value.get("default", 0.0))
    return float(value)


_PROBABILITIES = st.floats(min_value=0.0, max_value=1.0)
_ARMS = st.sampled_from(["direct", "loss", "gain", "solidarity"])


@given(st.one_of(_PROBABILITIES, st.integers(-3, 3), st.booleans()), _ARMS)
def test_number_propensities_resolve_like_the_reference(value, strategy):
    resolved = resolve_propensity(value, strategy)
    assert type(resolved) is float and resolved == _resolve_reference(value, strategy)


@given(
    st.dictionaries(st.sampled_from(["direct", "loss", "default"]), _PROBABILITIES),
    st.booleans(),
    _ARMS,
)
@example({"direct": 0.5, "default": 0.25}, True, "direct")
@example({"direct": 0.5, "default": 0.25}, True, "loss")
@example({"direct": 0.5}, False, "loss")
def test_mapping_propensities_resolve_like_the_reference(mapping, proxied, strategy):
    value = MappingProxyType(mapping) if proxied else mapping
    assert resolve_propensity(value, strategy) == _resolve_reference(value, strategy)


def test_zero_post_rate_yields_empty_stream():
    sim = make_sim(SimulationProfile(population=100, post_rate=0.0))
    assert list(sim.inbound(["corrupcion"])) == []


def test_every_generated_post_matches_a_keyword():
    from campaignkit.text import FoldedKeywords, match_keyword

    sim = make_sim(SimulationProfile(population=40, post_rate=1.0), seed=2)
    keywords = ["corrupcion", "impunidad"]
    for item in itertools.islice(sim.inbound(keywords), 500):
        assert match_keyword(item.text, FoldedKeywords(keywords)) is not None


def test_poisson_post_volume_within_three_sigma():
    # 1,000 agents at one post per hour over 10 virtual hours: Poisson(10000).
    profile = SimulationProfile(population=1000, post_rate=1.0, reply_propensity=0.0)
    sim = make_sim(profile, seed=3)
    horizon = sim.now_ms() + 10 * 3_600_000
    count = 0
    for item in sim.inbound(["corrupcion", "impunidad"]):
        if item.timestamp > horizon:
            break
        count += 1
    assert abs(count - 10_000) <= 3 * math.sqrt(10_000)


def test_single_turn_agent_replies_once_then_goes_silent():
    rng = random.Random(0)
    profile = SimulationProfile(
        population=1, post_rate=0.0, mean_turns=1.0, reply_propensity=1.0,
        interaction_propensity=0.0,
    )
    population = AgentPopulation(profile, TOPICS, rng)
    meta1 = BotMessageMeta("m1", "c1", "direct", "corruption", solicits=True)
    meta2 = BotMessageMeta("m2", "c1", "direct", "corruption", solicits=True)
    first = population.react("u00000", meta1, 0, rng)
    second = population.react("u00000", meta2, 0, rng)
    assert [i.kind for i in first] == [ItemKind.REPLY_TO_BOT]
    assert second == []


def test_quotes_do_not_solicit_replies():
    rng = random.Random(0)
    profile = SimulationProfile(population=1, post_rate=0.0, reply_propensity=1.0,
                                interaction_propensity=0.0)
    population = AgentPopulation(profile, TOPICS, rng)
    quote = BotMessageMeta("m1", "c1", "solidarity", "corruption", solicits=False)
    assert population.react("u00000", quote, 0, rng) == []


def test_on_topic_fraction_tracks_probability():
    # 3,000 first replies at on-topic probability 0.94: fraction within 0.02.
    rng = random.Random(17)
    profile = SimulationProfile(
        population=3000, post_rate=0.0, mean_turns=1.0, reply_propensity=1.0,
        interaction_propensity=0.0, on_topic_probability=0.94,
    )
    population = AgentPopulation(profile, TOPICS, rng)
    on = 0
    for i, agent in enumerate(population.agents):
        meta = BotMessageMeta(f"m{i}", f"c{i}", "direct", "corruption", solicits=True)
        (reply,) = population.react(agent.user_id, meta, 0, rng)
        on += ON_TOPIC_TAG in reply.text
    assert abs(on / 3000 - 0.94) <= 0.02


def test_max_turns_has_geometric_mean_two():
    rng = random.Random(5)
    profile = SimulationProfile(population=4000, post_rate=0.0, mean_turns=2.0)
    population = AgentPopulation(profile, TOPICS, rng)
    mean = sum(a.max_turns for a in population.agents) / len(population.agents)
    assert abs(mean - 2.0) <= 0.1


def test_off_topic_replies_mention_bots():
    rng = random.Random(11)
    profile = SimulationProfile(
        population=200, post_rate=0.0, mean_turns=1.0, reply_propensity=1.0,
        interaction_propensity=0.0, on_topic_probability=0.0,
    )
    population = AgentPopulation(profile, TOPICS, rng)
    for i in range(50):
        meta = BotMessageMeta(f"m{i}", f"c{i}", "loss", "corruption", solicits=True)
        (reply,) = population.react(f"u{i:05d}", meta, 0, rng)
        assert "bots" in reply.text
        assert "#offtopic" in reply.text


def test_mixture_components_assign_distinct_profiles():
    rng = random.Random(9)
    profile = SimulationProfile(
        population=100, post_rate=1.0,
        mixture=({"weight": 0.5, "post_rate": 0.0}, {"weight": 0.5, "post_rate": 2.0}),
    )
    population = AgentPopulation(profile, TOPICS, rng)
    rates = {a.post_rate for a in population.agents}
    assert rates == {0.0, 2.0}


def test_simulator_never_replies_to_unsent_messages(small_campaign):
    _config, events, _path = small_campaign
    bot_message_ids = {e.message_id for e in events if e.kind in OUTBOUND_KINDS}
    for event in events:
        if event.kind is EventKind.INBOUND_REPLY:
            assert event.in_reply_to in bot_message_ids


def test_derive_labels_covers_every_volunteer(small_campaign):
    _config, events, _path = small_campaign
    labels = derive_labels(events)
    members = conversation_members(events)
    volunteers = {
        e.actor
        for e in events
        if e.kind is EventKind.INBOUND_REPLY and e.actor in members.get(e.conversation_id, ())
    }
    assert {l.user_id for l in labels} == volunteers
    assert all(l.label in (LabelValue.ON_TOPIC, LabelValue.OFF_TOPIC) for l in labels)


def test_population_build_is_deterministic():
    profiles = []
    for _ in range(2):
        rng = random.Random("42:platform")
        population = AgentPopulation(SimulationProfile(population=500), TOPICS, rng)
        profiles.append([(a.user_id, a.max_turns, a.post_rate) for a in population.agents])
    assert profiles[0] == profiles[1]
