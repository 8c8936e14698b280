import dataclasses
import inspect
import pickle

import pytest

from campaignkit import fixtures, model
from campaignkit.model import (
    CampaignConfig,
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
