import dataclasses
import inspect
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from campaignkit import fixtures, model
from campaignkit.model import (
    CampaignConfig,
    CampaignError,
    CampaignEvent,
    EventKind,
    LabelValue,
    TargetAuthor,
    VolunteerLabel,
    replace,
    validate_config,
)


def test_default_config_is_valid():
    assert validate_config(fixtures.default_config()) == []


def test_solidarity_budget_mismatch_names_messages_per_turn():
    config = fixtures.default_config()
    bad = []
    for spec in config.strategies:
        if spec.id == "solidarity":
            spec = replace(spec, messages_per_turn=1)
        bad.append(spec)
    violations = validate_config(replace(config, strategies=tuple(bad)))
    assert len(violations) == 1
    assert "messages_per_turn" in violations[0].field


def test_undeclared_bot_violates_transparency_rule():
    config = fixtures.default_config()
    identity = replace(config.bot_identity, is_declared_bot=False)
    violations = validate_config(replace(config, bot_identity=identity))
    assert len(violations) == 1
    assert violations[0].field == "bot_identity.is_declared_bot"
    assert "transparency" in violations[0].message


def test_group_size_and_jitter_rules():
    config = fixtures.default_config()
    violations = validate_config(replace(config, group_size=0))
    assert any(v.field == "group_size" for v in violations)
    violations = validate_config(replace(config, group_size=5))
    assert any("max_mentions" in v.message for v in violations)
    violations = validate_config(
        replace(config, jitter=model.JitterBounds(min_delay=10, max_delay=5))
    )
    assert any(v.field == "jitter" for v in violations)


def test_empty_keywords_rejected():
    config = fixtures.default_config()
    topics = (model.Topic(name="corruption", keywords=()),) + config.topics[1:]
    violations = validate_config(replace(config, topics=topics))
    assert any("keywords" in v.field for v in violations)


def test_unknown_placeholder_reported():
    config = fixtures.default_config()
    bad = replace(config.strategies[0], call_to_action="hello {nope}")
    violations = validate_config(replace(config, strategies=(bad,) + config.strategies[1:]))
    assert any("nope" in v.message for v in violations)


def test_config_round_trip(tmp_path):
    config = fixtures.default_config()
    path = tmp_path / "config.yaml"
    model.dump_config(config, str(path))
    assert model.load_config(str(path)) == config


def test_config_dict_round_trip():
    config = fixtures.default_config()
    assert CampaignConfig.from_dict(config.to_dict()) == config


def test_volunteer_label_round_trip():
    label = VolunteerLabel("u1", LabelValue.ON_TOPIC, "coder_a")
    assert VolunteerLabel.from_dict(label.to_dict()) == label


def test_event_round_trip():
    from campaignkit.eventlog import record_to_event
    from conftest import reference_record

    event = CampaignEvent(
        seq=3,
        ts=1_430_000_001_000,
        kind=EventKind.OUTBOUND_CALL,
        actor="BOT",
        strategy="direct",
        topic="corruption",
        conversation_id="c1",
        message_id="m1",
        text="@a @b @c hi",
        partial=True,
    )
    assert record_to_event(reference_record(event)) == event


def test_events_are_frozen_slotted_and_hashable():
    event = CampaignEvent(seq=1, ts=2, kind=EventKind.ABORT, actor="BOT", conversation_id="c1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.seq = 5
    assert not hasattr(event, "__dict__")
    moved = dataclasses.replace(event, seq=5)
    assert (moved.seq, moved.conversation_id, event.seq) == (5, "c1", 1)
    assert {event, moved, dataclasses.replace(moved, seq=1)} == {event, moved}


def test_event_constructor_contract():
    # The hand-written __init__ must take every field, in field order, with
    # the field's default, and set each one to its own argument.
    fields = dataclasses.fields(CampaignEvent)
    params = list(inspect.signature(CampaignEvent.__init__).parameters.values())[1:]
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params] == [
        (f.name, empty if f.default is dataclasses.MISSING else f.default) for f in fields
    ]
    values = {
        "seq": 1, "ts": 2, "kind": EventKind.RETWEET, "actor": "u1", "strategy": "direct",
        "topic": "corruption", "conversation_id": "c1", "message_id": "x1",
        "in_reply_to": "m1", "target_author": TargetAuthor.BOT, "text": "hi",
        "partial": True, "followup_index": 3, "members": ("u1", "u2"),
    }
    assert list(values) == [f.name for f in fields]
    event = CampaignEvent(**values)
    assert {name: getattr(event, name) for name in values} == values
    assert CampaignEvent(*values.values()) == event
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(event, name, None)
    assert hash(CampaignEvent(**values)) == hash(event)
    assert dataclasses.replace(event, ts=9) == CampaignEvent(**{**values, "ts": 9})
    assert pickle.loads(pickle.dumps(event)) == event


def test_strategy_fixture_round_trip():
    for spec in fixtures.default_strategies("en"):
        assert model.StrategySpec.from_dict(spec.to_dict()) == spec
    for spec in fixtures.default_strategies("es"):
        assert model.StrategySpec.from_dict(spec.to_dict()) == spec


# (key path named by the error, where to put the value, malformed value)
MALFORMED = [
    ("topics[0].keywords", ("topics", 0, "keywords"), "corrupcion"),
    ("strategies[0].followups", ("strategies", 0, "followups"), "abc"),
    ("bot_identity.is_declared_bot", ("bot_identity", "is_declared_bot"), "no"),
    ("supports_favorites", ("supports_favorites",), "false"),
    ("groups_per_strategy_per_topic", ("groups_per_strategy_per_topic",), 2.9),
    ("group_size", ("group_size",), True),
    ("topics[0]", ("topics",), [5]),
    ("strategies[1].messages_per_turn", ("strategies", 1, "messages_per_turn"), "1"),
    ("partial_groups", ("partial_groups",), "discard"),
    ("simulation", ("simulation",), ["reference"]),
]


@pytest.mark.parametrize("path, keys, value", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_config_value_fails_naming_its_key(path, keys, value):
    raw = fixtures.default_config().to_dict()
    target = raw
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(CampaignError, match="^" + re.escape(path) + ": expected "):
        CampaignConfig.from_dict(raw)


@pytest.mark.parametrize("missing", [None, "deleted"])
def test_required_key_missing_or_null_is_named(missing):
    raw = fixtures.default_config().to_dict()
    if missing is None:
        raw["bot_identity"]["is_declared_bot"] = None
    else:
        del raw["bot_identity"]["is_declared_bot"]
    with pytest.raises(CampaignError, match=r"^bot_identity\.is_declared_bot: missing required key"):
        CampaignConfig.from_dict(raw)


def test_a_document_that_is_not_a_mapping_is_rejected():
    with pytest.raises(CampaignError, match="^CampaignConfig: expected a mapping, got list"):
        CampaignConfig.from_dict([fixtures.default_config().to_dict()])


def test_null_is_omitted_and_each_jitter_bound_has_its_default():
    raw = fixtures.default_config().to_dict()
    raw.update(random_seed=None, simulation=None, partial_groups={"policy": "discard"})
    raw["jitter"] = {"min_delay": 5}
    raw["strategies"][3]["solidarity_quote"] = None
    config = CampaignConfig.from_dict(raw)
    assert config.random_seed == 0 and config.simulation == {}
    assert config.jitter == model.JitterBounds(min_delay=5, max_delay=300)
    assert config.partial_groups == model.PartialGroupPolicy(policy="discard", timeout_s=6 * 3600)
    assert config.strategies[3].solidarity_quote is None


def test_label_value_must_be_a_known_label():
    with pytest.raises(CampaignError, match=r"^label: expected one of \['OnTopic', 'OffTopic'\]"):
        VolunteerLabel.from_dict({"user_id": "u1", "label": "Maybe", "coder_id": "a"})


_TEXT = st.text(max_size=12)


@st.composite
def _strategy_specs(draw):
    quote = draw(st.one_of(st.none(), _TEXT))
    return model.StrategySpec(
        id=draw(_TEXT),
        call_to_action=draw(_TEXT),
        followups=tuple(draw(st.lists(_TEXT, max_size=3))),
        messages_per_turn=1 if quote is None else 2,
        solidarity_quote=quote,
    )


@st.composite
def _configs(draw):
    ints = st.integers(min_value=-5, max_value=10**6)
    return CampaignConfig(
        topics=tuple(
            model.Topic(name=draw(_TEXT), keywords=tuple(draw(st.lists(_TEXT, max_size=3))))
            for _ in range(draw(st.integers(0, 3)))
        ),
        strategies=tuple(draw(st.lists(_strategy_specs(), max_size=4))),
        groups_per_strategy_per_topic=draw(ints),
        group_size=draw(ints),
        jitter=model.JitterBounds(min_delay=draw(ints), max_delay=draw(ints)),
        bot_identity=model.BotIdentity(
            display_name=draw(_TEXT), bio_text=draw(_TEXT), is_declared_bot=draw(st.booleans())
        ),
        random_seed=draw(ints),
        char_limit=draw(ints),
        max_mentions_per_message=draw(ints),
        supports_favorites=draw(st.booleans()),
        partial_groups=model.PartialGroupPolicy(
            policy=draw(st.sampled_from(["dispatch_partial", "discard"])), timeout_s=draw(ints)
        ),
        simulation=draw(
            st.dictionaries(_TEXT, st.one_of(ints, st.floats(allow_nan=False), _TEXT), max_size=3)
        ),
    )


def _ordered(value):
    """Dicts as lists of (key, value) pairs, recursively, so == also checks key order."""
    if isinstance(value, dict):
        return [(key, _ordered(v)) for key, v in value.items()]
    if isinstance(value, list):
        return [_ordered(v) for v in value]
    return value


@given(_configs())
def test_config_codec_matches_reference_encoder_and_round_trips(config):
    from conftest import reference_config_dict

    encoded = config.to_dict()
    assert list(encoded.items()) == list(reference_config_dict(config).items())
    assert _ordered(encoded) == _ordered(reference_config_dict(config))
    assert CampaignConfig.from_dict(encoded) == config
