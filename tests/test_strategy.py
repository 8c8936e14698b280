import random

from campaignkit import fixtures, model
from campaignkit.strategy import (
    MessageKind,
    compose_call,
    compose_followup,
    select_followup,
)

SPECS = {s.id: s for s in fixtures.default_strategies("en")}
MEMBERS = ("ana", "beto", "carla")

# Critical value of the chi-square distribution with 6 degrees of freedom at
# the 0.01 upper tail; a statistic below it means p > 0.01.
CHI2_CRIT_6DF_P01 = 16.812


def test_direct_call_golden():
    msgs = compose_call(SPECS["direct"], "corruption", MEMBERS, conversation_id="c1")
    assert len(msgs) == 1
    assert msgs[0].kind is MessageKind.CALL
    assert msgs[0].text == (
        "@ana @beto @carla Could we collaborate to brainstorm solutions "
        "to the problem of corruption?"
    )
    assert msgs[0].mentions == MEMBERS


def test_solidarity_call_sends_two_tweets():
    msgs = compose_call(SPECS["solidarity"], "corruption", MEMBERS, conversation_id="c1")
    assert [m.kind for m in msgs] == [MessageKind.CALL, MessageKind.QUOTE]
    assert msgs[1].text == "@ana @beto @carla Remember, that: One for all, all for one!"


def test_gain_call_golden():
    msgs = compose_call(SPECS["gain"], "corruption", MEMBERS, conversation_id="c1")
    assert len(msgs) == 1
    assert msgs[0].text.endswith("We might improve our cities!")


def test_loss_call_golden():
    msgs = compose_call(SPECS["loss"], "corruption", MEMBERS, conversation_id="c1")
    assert len(msgs) == 1
    assert msgs[0].text.endswith("If not, our cities might suffer!")


def test_call_mentions_exactly_group_members():
    for spec in SPECS.values():
        msgs = compose_call(spec, "impunity", MEMBERS, conversation_id="c1")
        for msg in msgs:
            for member in MEMBERS:
                assert f"@{member}" in msg.text


def test_budget_equals_messages_per_turn():
    for spec in SPECS.values():
        calls = compose_call(spec, "corruption", MEMBERS, conversation_id="c1")
        assert len(calls) == spec.messages_per_turn
        followups = compose_followup(
            spec, "corruption", ["ana"], 0, conversation_id="c1", turn=1
        )
        assert len(followups) == spec.messages_per_turn


def test_direct_followup_goldens():
    first = compose_followup(SPECS["direct"], "corruption", ["ana"], 0, conversation_id="c1", turn=1)
    assert first[0].text == "@ana How do we fight corruption in our cities?"
    third = compose_followup(SPECS["direct"], "corruption", ["ana"], 2, conversation_id="c1", turn=1)
    assert third[0].text == "@ana How do we use Twitter to fight corruption?"


def test_gain_followup_decoration():
    msgs = compose_followup(SPECS["gain"], "corruption", ["ana"], 0, conversation_id="c1", turn=1)
    assert msgs[0].text == "@ana How do we fight corruption in our cities & thus improve them?"


def test_solidarity_followup_sends_two_tweets():
    for index in range(len(SPECS["solidarity"].followups)):
        msgs = compose_followup(
            SPECS["solidarity"], "corruption", ["ana"], index, conversation_id="c1", turn=1
        )
        assert len(msgs) == 2
        assert msgs[1].kind is MessageKind.QUOTE


def test_a_mentions_placeholder_places_the_block_where_it_stands():
    spec = model.replace(SPECS["direct"], call_to_action="Hey {mentions}, talk {topic}?")
    config = fixtures.default_config()
    config = model.replace(config, strategies=tuple(spec if s.id == spec.id else s for s in config.strategies))
    assert model.validate_config(config) == []
    msgs = compose_call(spec, "corruption", MEMBERS, conversation_id="c1")
    # No block is prepended: the text starts with the template's own words.
    assert msgs[0].text == "Hey @ana @beto @carla, talk corruption?"


def test_select_followup_exhaustion():
    assert select_followup(set(range(7)), SPECS["direct"], random.Random(1)) is None


def test_select_followup_single_remaining():
    assert select_followup(set(range(6)), SPECS["direct"], random.Random(1)) == 6


def test_select_followup_never_repeats():
    rng = random.Random(42)
    used = set()
    seen = set()
    for _ in range(7):
        index = select_followup(used, SPECS["direct"], rng)
        assert index not in seen
        seen.add(index)
        used.add(index)
    assert select_followup(used, SPECS["direct"], rng) is None
    assert seen == set(range(7))


def test_select_followup_uniform_chi_square():
    # 10,000 draws without marking used; chi-square over 7 cells, p > 0.01.
    rng = random.Random(2024)
    counts = [0] * 7
    draws = 10_000
    for _ in range(draws):
        counts[select_followup(set(), SPECS["direct"], rng)] += 1
    expected = draws / 7
    statistic = sum((c - expected) ** 2 / expected for c in counts)
    assert statistic < CHI2_CRIT_6DF_P01
