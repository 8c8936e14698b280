import itertools
import math
import random
import typing
from types import MappingProxyType

import pytest
from hypothesis import example, given, strategies as st

from campaignkit import fixtures, platform, simulator
from campaignkit.eventlog import conversation_members
from campaignkit.model import EventKind, LabelValue, OUTBOUND_KINDS, Topic
from campaignkit.platform import ItemKind, SimulatedPlatform
from campaignkit.simulator import (
    HOUR_MS,
    ON_TOPIC_TAG,
    AgentPopulation,
    MixtureComponent,
    ReplyDelay,
    SimulationProfile,
    derive_labels,
    draw_exponential,
    draw_index,
    draw_uniform,
    resolve_profile,
    resolve_propensity,
)
from campaignkit.strategy import MessageKind, OutboundMessage
from campaignkit.text import FoldedKeywords, match_keyword

from conftest import ReferencePopulation
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


_NUMBERS = st.one_of(st.integers(-5, 10**6), st.floats(allow_nan=False))
_PROPENSITIES = st.one_of(
    _NUMBERS, st.dictionaries(st.sampled_from(["direct", "loss", "default"]), _NUMBERS)
)


_PROFILES = st.builds(
    SimulationProfile,
    population=st.integers(),
    post_rate=_NUMBERS,
    mean_turns=_NUMBERS,
    reply_propensity=_PROPENSITIES,
    interaction_propensity=_PROPENSITIES,
    on_topic_probability=_PROPENSITIES,
    reply_delay=st.builds(ReplyDelay, min_s=st.integers(), max_s=st.integers()),
    posts_per_minute_limit=st.none() | st.integers(),
    mixture=st.lists(
        st.builds(
            MixtureComponent,
            weight=_NUMBERS,
            post_rate=st.none() | _NUMBERS,
            mean_turns=st.none() | _NUMBERS,
            reply_propensity=st.none() | _PROPENSITIES,
            interaction_propensity=st.none() | _PROPENSITIES,
            on_topic_probability=st.none() | _PROPENSITIES,
        ),
        max_size=3,
    ).map(tuple),
)


@given(_PROFILES)
def test_simulation_profile_round_trips(profile):
    assert SimulationProfile.from_dict(profile.to_dict()) == profile


def test_zero_post_rate_yields_empty_stream():
    sim = make_sim(SimulationProfile(population=100, post_rate=0.0))
    assert list(sim.inbound(["corrupcion"])) == []


def test_every_generated_post_matches_a_keyword():
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


def _bot_message(kind, strategy):
    """A bot message of ``kind`` in arm ``strategy`` on corruption."""
    return OutboundMessage(kind, "", (), strategy, "corruption", "c1")


def test_single_turn_agent_replies_once_then_goes_silent():
    rng = random.Random(0)
    profile = SimulationProfile(
        population=1, post_rate=0.0, mean_turns=1.0, reply_propensity=1.0,
        interaction_propensity=0.0,
    )
    population = AgentPopulation(profile, TOPICS, rng)
    first = population.react("u00000", _bot_message(MessageKind.CALL, "direct"), "m1", 0, rng)
    second = population.react("u00000", _bot_message(MessageKind.FOLLOWUP, "direct"), "m2", 0, rng)
    assert [i.kind for i in first] == [ItemKind.REPLY_TO_BOT]
    assert second == []
    # A mean of one turn or less is one turn, with no draw.
    state = rng.getstate()
    assert [simulator._geometric(mean, rng) for mean in (1.0, 0.5)] == [1, 1]
    assert rng.getstate() == state


def test_quotes_do_not_solicit_replies():
    rng = random.Random(0)
    profile = SimulationProfile(population=1, post_rate=0.0, reply_propensity=1.0,
                                interaction_propensity=0.0)
    population = AgentPopulation(profile, TOPICS, rng)
    quote = _bot_message(MessageKind.QUOTE, "solidarity")
    assert population.react("u00000", quote, "m1", 0, rng) == []


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
        (reply,) = population.react(agent.user_id, _bot_message(MessageKind.CALL, "direct"), f"m{i}", 0, rng)
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
        (reply,) = population.react(f"u{i:05d}", _bot_message(MessageKind.CALL, "loss"), f"m{i}", 0, rng)
        assert "bots" in reply.text
        assert "#offtopic" in reply.text


def test_mixture_components_assign_distinct_profiles():
    rng = random.Random(9)
    profile = SimulationProfile(
        population=100, post_rate=1.0,
        mixture=(
            MixtureComponent(weight=0.5, post_rate=0.0), MixtureComponent(weight=0.5, post_rate=2.0)
        ),
    )
    population = AgentPopulation(profile, TOPICS, rng)
    rates = {a.post_rate for a in population.agents}
    assert rates == {0.0, 2.0}


@pytest.mark.parametrize(
    "weights, population, expected",
    [((0.7, 0.3), 50, [35, 15]), ((1.0, 1.0), 150, [75, 75])],
)
def test_mixture_shares_hold_in_a_population_of_any_size(weights, population, expected):
    profile = resolve_profile({
        "population": population,
        "mixture": [{"weight": w, "post_rate": float(j)} for j, w in enumerate(weights)],
    })
    agents = AgentPopulation(profile, TOPICS, random.Random(9)).agents
    assert [sum(a.post_rate == j for a in agents) for j in range(len(weights))] == expected
    if len(set(weights)) == 1:  # equal weights cycle through the components
        assert [a.post_rate for a in agents] == [float(i % len(weights)) for i in range(population)]


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


# -- draws: each reproduces a stdlib call, value and rng state alike ------------

_DRAW_SEEDS = (0, 7, 4243, "11:platform")


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
def test_draw_index_draws_what_choice_draws(seed):
    ours, stdlib = random.Random(seed), random.Random(seed)
    for n in [*range(1, 71), 2**31 - 1, 2**32, 2**32 + 1, 10**12 + 39, 2**62 + 5]:
        for _ in range(5):
            assert draw_index(ours, n) == stdlib.choice(range(n))
            assert ours.getstate() == stdlib.getstate()


def test_draw_index_of_nothing_fails_without_drawing():
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(IndexError):
        random.Random(1).choice(())
    with pytest.raises(IndexError):
        draw_index(rng, 0)
    assert rng.getstate() == state


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
def test_exponential_and_uniform_draws_equal_the_stdlib_calls(seed):
    ours, stdlib = random.Random(seed), random.Random(seed)
    for lambd in (0.2 / HOUR_MS, 1.0 / HOUR_MS, 3e-9, 0.5, 1.0, 7.25, 1e6):
        for _ in range(200):
            assert draw_exponential(ours, lambd) == stdlib.expovariate(lambd)
            assert ours.getstate() == stdlib.getstate()
    delays = ReplyDelay()
    for low, high in (
        (math.log(delays.min_s * 1000), math.log(delays.max_s * 1000)),
        (0.0, 1.0), (-3.5, 2.25), (1e-300, 1e300), (5.0, 5.0),
    ):
        for _ in range(200):
            assert draw_uniform(ours, low, high) == stdlib.uniform(low, high)
            assert ours.getstate() == stdlib.getstate()


# Topics whose keyword counts (1, 2 and 5) make the keyword pick redraw
# differently; the stream keeps the posts with one of _STREAM_KEYWORDS only.
_STREAM_TOPICS = (
    Topic("corruption", ("corrupcion", "soborno")),
    Topic("impunity", ("impunidad",)),
    Topic("violence", ("violencia", "inseguridad", "asalto", "robo", "extorsion")),
)
_STREAM_KEYWORDS = ["Corrupción", "impunidad", "asalto", "robo"]
_ARMS = ("direct", "loss", "gain", "solidarity")


def _bot_stream(population_type, profile, seed, length):
    """``length`` items of a platform over ``population_type``, with the bot
    calling every three public posters and following up every reply; returns
    the items, the population and the rng."""
    rng = random.Random(f"{seed}:platform")
    population = population_type(profile, _STREAM_TOPICS, rng)
    sim = SimulatedPlatform(population, rng)
    items, posters, sent, turns = [], [], {}, {}
    for item in itertools.islice(sim.inbound(_STREAM_KEYWORDS), length):
        items.append(item)
        if item.kind is ItemKind.PUBLIC_POST:
            posters.append(item.author)
            if len(posters) == 3:
                conv = f"c{len(items)}"
                call = OutboundMessage(
                    MessageKind.CALL, "call", tuple(posters), _ARMS[len(items) % 4],
                    _STREAM_TOPICS[len(items) % 3].name, conv,
                )
                sent[sim.post(call)] = call
                posters = []
        elif item.kind is ItemKind.REPLY_TO_BOT and item.in_reply_to in sent:
            asked = sent[item.in_reply_to]
            turns[asked.conversation_id] = turn = turns.get(asked.conversation_id, 0) + 1
            followup = OutboundMessage(
                MessageKind.FOLLOWUP, "question", (item.author,), asked.strategy, asked.topic,
                asked.conversation_id, turn,
            )
            sent[sim.post(followup)] = followup
    return items, population, rng


def test_post_and_reaction_stream_matches_the_stdlib_reference(monkeypatch):
    profile = SimulationProfile(
        population=60, post_rate=2.0, mean_turns=3.0, reply_propensity=0.6,
        interaction_propensity=0.4, on_topic_probability=0.7,
        mixture=(MixtureComponent(weight=2.0), MixtureComponent(weight=1.0, post_rate=0.0)),
    )
    ref_items, reference, ref_rng = _bot_stream(ReferencePopulation, profile, 5, 2000)
    matched = []
    monkeypatch.setattr(
        platform, "match_keyword", lambda text, folded: matched.append(text) or match_keyword(text, folded)
    )
    items, _population, rng = _bot_stream(AgentPopulation, profile, 5, 2000)
    assert items == ref_items
    assert rng.getstate() == ref_rng.getstate()
    # The stream keeps exactly the matching posts, matching each text once.
    folded = FoldedKeywords(_STREAM_KEYWORDS)
    kept = [p for p in reference.posts if match_keyword(p.text, folded) is not None]
    assert [i for i in items if i.kind is ItemKind.PUBLIC_POST] == kept
    assert sorted(matched) == sorted({p.text for p in reference.posts})
    assert len(kept) < len(reference.posts)
    assert {i.kind for i in items} == set(ItemKind)
    repliers = [i.author for i in items if i.kind is ItemKind.REPLY_TO_BOT]
    assert len(repliers) > len(set(repliers))  # follow-ups drew second replies
