import copy
import dataclasses
import inspect
import pickle
import re

import pytest
import yaml
from hypothesis import given, strategies as st

from campaignkit import analytics, fixtures, model, orchestrator, platform, strategy
from campaignkit.eventlog import record_to_event
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
from campaignkit.platform import InboundItem, ItemKind
from campaignkit.simulator import SimulationProfile
from campaignkit.strategy import MessageKind, OutboundMessage
from conftest import reference_record


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


_DEFAULT = fixtures.default_config()
_DIRECT = _DEFAULT.strategies[0]
# One config per violation that no other test reaches, each with the field
# that it names.
VIOLATIONS = {
    "no-groups": (replace(_DEFAULT, groups_per_strategy_per_topic=0), "groups_per_strategy_per_topic"),
    "negative-jitter": (replace(_DEFAULT, jitter=model.JitterBounds(min_delay=-1, max_delay=5)), "jitter.min_delay"),
    "no-char-limit": (replace(_DEFAULT, char_limit=0), "char_limit"),
    "negative-timeout": (
        replace(_DEFAULT, partial_groups=model.PartialGroupPolicy(timeout_s=-1)), "partial_groups.timeout_s"
    ),
    "no-topics": (replace(_DEFAULT, topics=()), "topics"),
    "empty-topic-name": (
        replace(_DEFAULT, topics=(replace(_DEFAULT.topics[0], name=""),) + _DEFAULT.topics[1:]), "topics[0].name"
    ),
    "duplicate-topic-name": (
        replace(_DEFAULT, topics=(_DEFAULT.topics[0], replace(_DEFAULT.topics[1], name=_DEFAULT.topics[0].name))),
        "topics[1].name",
    ),
    "empty-keyword": (
        replace(_DEFAULT, topics=(replace(_DEFAULT.topics[0], keywords=("",)),) + _DEFAULT.topics[1:]),
        "topics[0].keywords[0]",
    ),
    "whitespace-keyword": (
        replace(_DEFAULT, topics=(replace(_DEFAULT.topics[0], keywords=("corrupcion", " \t")),) + _DEFAULT.topics[1:]),
        "topics[0].keywords[1]",
    ),
    "combining-mark-keyword": (  # folds to nothing
        replace(_DEFAULT, topics=(replace(_DEFAULT.topics[0], keywords=("\u0301",)),) + _DEFAULT.topics[1:]),
        "topics[0].keywords[0]",
    ),
    "no-strategies": (replace(_DEFAULT, strategies=()), "strategies"),
    "empty-strategy-id": (replace(_DEFAULT, strategies=(replace(_DIRECT, id=""),)), "strategies[0].id"),
    "duplicate-strategy-id": (replace(_DEFAULT, strategies=(_DIRECT, _DIRECT)), "strategies[1].id"),
    "no-followups": (replace(_DEFAULT, strategies=(replace(_DIRECT, followups=()),)), "strategies[0].followups"),
    "three-messages-per-turn": (
        replace(_DEFAULT, strategies=(replace(_DIRECT, messages_per_turn=3),)), "strategies[0].messages_per_turn"
    ),
    "malformed-template": (
        replace(_DEFAULT, strategies=(replace(_DIRECT, call_to_action="Join us { now {mentions}"),)),
        "strategies[0].call_to_action",
    ),
    # Templates that parse, but that composing cannot format.
    **{
        f"unformattable-template-{template}": (
            replace(_DEFAULT, strategies=(replace(_DIRECT, call_to_action=f"Join {{mentions}} on {template}"),)),
            "strategies[0].call_to_action",
        )
        for template in ("{topic!x}", "{topic:{x}}")
    },
    **{
        f"unformattable-followup-{template}": (
            replace(_DEFAULT, strategies=(replace(_DIRECT, followups=(f"{template}, what now?",)),)),
            "strategies[0].followups[0]",
        )
        for template in ("{mentions:d}", "{mentions!r}")
    },
}


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_each_violation_names_its_field(name):
    config, field = VIOLATIONS[name]
    assert [violation.field for violation in validate_config(config)] == [field]


def test_topic_and_template_violations_say_what_is_wrong():
    messages = {
        name: [str(violation) for violation in validate_config(VIOLATIONS[name][0])]
        for name in ("duplicate-topic-name", "empty-keyword", "malformed-template")
    }
    assert messages == {
        "duplicate-topic-name": ["topics[1].name: duplicate topic name 'corruption'"],
        "empty-keyword": ["topics[0].keywords[0]: must not be blank"],
        "malformed-template": ["strategies[0].call_to_action: malformed template (unexpected '{' in field name)"],
    }


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


# One record of each type built through slot_init, every field set and not
# at its default, in field order.
SLOT_RECORDS = [
    (CampaignEvent, {
        "seq": 1, "ts": 2, "kind": EventKind.RETWEET, "actor": "u1", "strategy": "direct",
        "topic": "corruption", "conversation_id": "c1", "message_id": "x1",
        "in_reply_to": "m1", "target_author": TargetAuthor.BOT, "text": "hi",
        "partial": True, "followup_index": 3, "members": ("u1", "u2"),
    }),
    (InboundItem, {
        "kind": ItemKind.REPLY_TO_BOT, "author": "u1", "message_id": "r1", "timestamp": 2,
        "in_reply_to": "m1", "text": "hi",
    }),
    (OutboundMessage, {
        "kind": MessageKind.FOLLOWUP, "text": "@u1 why?", "mentions": ("u1",),
        "strategy": "direct", "topic": "corruption", "conversation_id": "c1", "turn": 2,
    }),
    (analytics.TermScore, {"term": "#voluntariado", "score": 0.75}),
    (VolunteerLabel, {"user_id": "u1", "label": LabelValue.OFF_TOPIC, "coder_id": "coder_a"}),
    # A rate-limited turn is rescheduled through dataclasses.replace.
    (orchestrator._Send, {
        "messages": (
            OutboundMessage(MessageKind.FOLLOWUP, "@u1 why?", ("u1",), "direct", "corruption", "c1", 2),
        ),
        "partial": True, "question": 3,
    }),
]


@pytest.mark.parametrize("cls, values", SLOT_RECORDS, ids=[c.__name__ for c, _ in SLOT_RECORDS])
def test_event_constructor_contract(cls, values):
    # The generated constructor takes every field, in field order, with the
    # field's default, and sets each one to its own argument.
    fields = dataclasses.fields(cls)
    params = list(inspect.signature(cls).parameters.values())
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params] == [
        (f.name, empty if f.default is dataclasses.MISSING else f.default) for f in fields
    ]
    assert list(values) == [f.name for f in fields]
    record = cls(**values)
    assert not hasattr(record, "__dict__")
    assert {name: getattr(record, name) for name in values} == values
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert hash(cls(**values)) == hash(record)
    first = fields[0].name
    assert dataclasses.replace(record, **{first: None}) == cls(**{**values, first: None})
    # The generated __new__ fills an unfrozen twin, then assigns __class__:
    # no way of making a record may give back the twin.
    made = [
        record, cls(*values.values()), dataclasses.replace(record),
        pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record),
    ]
    if cls is CampaignEvent:
        made.append(record_to_event(reference_record(record)))
    if cls is VolunteerLabel:
        made.append(cls.from_dict(record.to_dict()))
    assert [type(r) for r in made] == [cls] * len(made)
    assert made == [record] * len(made)


def test_slot_init_rejects_a_default_factory():
    with pytest.raises(TypeError, match="default_factory"):
        model.slot_init(
            dataclasses.make_dataclass(
                "Bad", [("xs", list, dataclasses.field(default_factory=list))],
                frozen=True, slots=True, init=False,
            )
        )


def test_slot_init_rejects_a_class_with_its_own_init():
    # A dataclass __init__ would run after the generated __new__ and set
    # every field a second time.
    with pytest.raises(TypeError, match="init=False"):
        model.slot_init(
            dataclasses.make_dataclass("Slow", [("x", int)], frozen=True, slots=True)
        )


@pytest.mark.parametrize(
    "module, prefix, enum",
    [
        (model, "EVENT_", EventKind),
        (model, "TARGET_", TargetAuthor),
        (model, "LABEL_", LabelValue),
        (platform, "ITEM_", ItemKind),
        (strategy, "MESSAGE_", MessageKind),
    ],
)
def test_bound_enum_members_match_their_names(module, prefix, enum):
    bound = {name: value for name, value in vars(module).items() if name.startswith(prefix)}
    assert bound == {prefix + member.name: member for member in enum}


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
    ("partial_groups.policy", ("partial_groups", "policy"), "drop"),
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


# (where the unknown key goes, the key, the error)
UNKNOWN_KEYS = [
    ((), "group_sise", "group_sise: unknown key; did you mean 'group_size'?"),
    (("jitter",), "min_dealy", "jitter.min_dealy: unknown key; did you mean 'min_delay'?"),
    (("topics", 0), "kewords", "topics[0].kewords: unknown key; did you mean 'keywords'?"),
    (("bot_identity",), "avatar", "bot_identity.avatar: unknown key"),
]


@pytest.mark.parametrize(
    "keys, key, message", UNKNOWN_KEYS, ids=[m.split(":")[0] for *_, m in UNKNOWN_KEYS]
)
def test_unknown_key_fails_naming_its_path_and_the_nearest_field(keys, key, message):
    raw = fixtures.default_config().to_dict()
    target = raw
    for step in keys:
        target = target[step]
    target[key] = 2
    with pytest.raises(CampaignError, match="^" + re.escape(message) + "$"):
        CampaignConfig.from_dict(raw)


def test_shipped_data_files_decode_strictly():
    profile = yaml.safe_load(fixtures._data_text("profile_reference.yaml"))
    encoded = SimulationProfile.from_dict(profile).to_dict()
    assert {key: encoded[key] for key in profile} == profile
    strategies = yaml.safe_load(fixtures._data_text("strategies.yaml"))
    for language in ("en", "es"):
        specs = fixtures.default_strategies(language)
        assert [spec.to_dict() for spec in specs] == strategies[language]["strategies"]


# Documents on which the libyaml and pure-Python safe loaders must agree
# (compared by repr, so NaN equals NaN and 1 differs from 1.0), and
# documents both must reject.
YAML_PARITY = {
    "bom": "\ufeffa: 1\n",
    "duplicate_keys": "a: 1\na: 2\n",
    "nan_inf": "a: .nan\nb: -.inf\nc: .Inf\n",
    "anchors": "a: &x [1, 2]\nb: *x\nc: {<<: {k: 1}, j: 2}\n",
    "octal": "a: 0o17\nb: 017\nc: 0x1F\n",
    "date": "a: 2015-05-01\nb: 2015-05-01 10:00:00\n",
    "underscore": "a: 1_000\nb: 1e3\nc: 1.5e3\n",
    "bools_and_nulls": "a: yes\nb: off\nc: ~\nd: Null\n",
    "block_scalars": "a: 'x'\nb: \"\\u00e9\"\nc: |\n  l1\n  l2\nd: >\n  f1\n  f2\n",
    "empty": "",
}
YAML_REJECTED = {
    "tab_indent": "a:\n\tb: 1\n",
    "second_document": "a: 1\n---\nb: 2\n",
    "nul": "a: \x00\n",
}


@pytest.fixture(params=["default", "pure_python"])
def yaml_loader(request, monkeypatch):
    """Run a test under the module's loader, then under the fallback loader."""
    if request.param == "pure_python":
        monkeypatch.setattr(model, "_LOADER", yaml.SafeLoader)
    else:
        assert model._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    return request.param


def test_load_yaml_matches_safe_load_on_the_shipped_and_written_files(yaml_loader, tmp_path):
    from campaignkit.cli import main

    for name in ("strategies.yaml", "profile_reference.yaml"):
        text = fixtures._data_text(name)
        assert model.load_yaml(text) == yaml.safe_load(text)
    assert main(["fixtures", "--out", str(tmp_path)]) == 0
    written = sorted(tmp_path.glob("*.yaml"))
    assert [p.name for p in written] == ["campaign.yaml", "profile_reference.yaml", "strategies.yaml"]
    for path in written:
        with open(path, encoding="utf-8") as fh:
            loaded = model.load_yaml(fh)
        assert loaded == yaml.safe_load(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("text", YAML_PARITY.values(), ids=YAML_PARITY)
def test_load_yaml_matches_safe_load_on_edge_cases(yaml_loader, text):
    assert repr(model.load_yaml(text)) == repr(yaml.safe_load(text))


@pytest.mark.parametrize("text", YAML_REJECTED.values(), ids=YAML_REJECTED)
def test_load_yaml_rejects_what_safe_load_rejects(yaml_loader, text):
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(text)
    with pytest.raises(yaml.YAMLError):
        model.load_yaml(text)


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
