import copy
import json
import os
import pickle
from collections import Counter

import orjson
import pytest
from hypothesis import example, given, strategies as st

from campaignkit import eventlog, model
from campaignkit.analytics import compute_metrics, labels_to_map
from campaignkit.eventlog import (
    EventLogWriter,
    MalformedLog,
    ValidatedLog,
    conversation_members,
    format_event,
    read_events,
    record_to_event,
    replay,
    validate_events,
    volunteer_replies,
    write_events,
)
from campaignkit.model import (
    INTERACTION_KINDS, OUTBOUND_KINDS, CampaignEvent, EventKind, TargetAuthor, replace,
)
from campaignkit.orchestrator import Orchestrator, build_simulated_platform, run_campaign
from campaignkit.simulator import derive_labels
from campaignkit.stats import one_way_anova
from campaignkit.text import mentions_in_text
from conftest import reference_record, small_sim_config


def _event(seq, kind, **kw):
    defaults = dict(ts=1_430_000_000_000 + seq * 1000, actor="BOT")
    defaults.update(kw)
    return CampaignEvent(seq=seq, kind=kind, **defaults)


def _call(seq, conv="c1", members="@a @b @c", strategy="direct", topic="corruption"):
    return _event(
        seq,
        EventKind.OUTBOUND_CALL,
        strategy=strategy,
        topic=topic,
        conversation_id=conv,
        message_id=f"m{seq}",
        text=f"{members} join us",
    )


def _reply(seq, conv="c1", actor="a", reply_to="m1"):
    return _event(
        seq,
        EventKind.INBOUND_REPLY,
        actor=actor,
        strategy="direct",
        topic="corruption",
        conversation_id=conv,
        message_id=f"r{seq}",
        in_reply_to=reply_to,
        text="idea",
    )


def test_format_event_field_order():
    line = format_event(_call(1))
    assert line.startswith(b'{"seq":1,"ts":')
    assert b'"kind":"OutboundCall"' in line
    pinned = _event(2, EventKind.ABORT, conversation_id="c1", followup_index=0, members=("a", "b"), text="x")
    assert format_event(pinned).endswith(b',"conv":"c1","q":0,"members":["a","b"],"text":"x"}')


# Characters an escaper can get wrong: quote, backslash,
# control characters, DEL, the JSON-legal line separators and non-BMP text.
_TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029", "\U0001F600"])
_text = st.text(st.one_of(_TRICKY, st.characters()), max_size=12)
_events = st.builds(
    CampaignEvent,
    seq=st.integers(),
    ts=st.integers(),
    kind=st.sampled_from(EventKind),
    actor=_text,
    strategy=st.none() | _text,
    topic=st.none() | _text,
    conversation_id=st.none() | _text,
    message_id=st.none() | _text,
    in_reply_to=st.none() | _text,
    target_author=st.none() | st.sampled_from(TargetAuthor),
    text=st.none() | _text,
    partial=st.booleans(),
    followup_index=st.none() | st.integers(),
    members=st.none() | st.lists(_text, max_size=3).map(tuple),
)


@given(_events)
@example(CampaignEvent(1, 2, EventKind.OUTBOUND_CALL, "BOT", text='"\\\x00\x7f\u2028\U0001F600é', partial=True))
@example(CampaignEvent(2**64 - 1, -(2**63), EventKind.OUTBOUND_FOLLOWUP, "BOT", followup_index=2**64 - 1))
@example(CampaignEvent(2**64, 1, EventKind.OUTBOUND_CALL, "BOT"))
@example(CampaignEvent(1, 1, EventKind.OUTBOUND_FOLLOWUP, "BOT", followup_index=-(2**63) - 1))
@example(CampaignEvent(1, 1, EventKind.OUTBOUND_CALL, "\ud800"))
def test_format_event_is_json_dumps_of_the_reference_record(event):
    record = reference_record(event)
    integers = (event.seq, event.ts, event.followup_index or 0)
    strings = [v for v in record.values() if isinstance(v, str)] + record.get("members", [])
    if all(-(2**63) <= i <= 2**64 - 1 for i in integers) and not any(
        "\ud800" <= c <= "\udfff" for s in strings for c in s
    ):
        line = format_event(event)
        assert line == json.dumps(record, ensure_ascii=False, separators=(",", ":")).encode()
        assert record_to_event(orjson.loads(line)) == event
    else:
        # Beyond the integers the reader takes back, or not encodable to UTF-8.
        with pytest.raises(ValueError):
            format_event(event)


def _reply_heavy_config():
    """Two groups per arm and topic whose agents reply and interact often;
    a 60 s timeout dispatches most calls for partial groups."""
    config = small_sim_config(seed=5, groups=2, population=1500)
    return model.replace(
        config,
        partial_groups=model.PartialGroupPolicy(policy="dispatch_partial", timeout_s=60),
        simulation={
            "profile": "reference",
            "population": 1500,
            "reply_propensity": 0.9,
            "mean_turns": 6,
            "interaction_propensity": 0.4,
        },
    )


def test_real_logs_re_encode_byte_for_byte(small_campaign, tmp_path):
    reply_heavy = tmp_path / "replies.log"
    config = _reply_heavy_config()
    events = run_campaign(config, build_simulated_platform(config), str(reply_heavy))
    assert {EventKind.OUTBOUND_QUOTE, EventKind.RETWEET, EventKind.FAVORITE} <= {e.kind for e in events}
    assert {e.partial for e in events if e.kind is EventKind.OUTBOUND_CALL} == {True, False}
    assert any(e.followup_index is not None for e in events)
    for path in (small_campaign[2], reply_heavy):
        copy = tmp_path / "copy.log"
        write_events(read_events(str(path)), str(copy))
        assert copy.read_bytes() == path.read_bytes()


def test_file_round_trip(tmp_path, reference_log):
    path = tmp_path / "log.jsonl"
    write_events(reference_log, str(path))
    assert read_events(str(path)) == reference_log


def test_reference_log_validates(reference_log):
    assert validate_events(reference_log) == list(reference_log)


# -- the sealed, validated log ------------------------------------------------------

@pytest.mark.parametrize(
    "mutate",
    [
        lambda v: v.__setitem__(0, v[0]),
        lambda v: v.__setitem__(slice(0, 1), v[:1]),
        lambda v: v.__delitem__(0),
        lambda v: v.__iadd__([]),
        lambda v: v.__imul__(2),
        lambda v: v.append(v[0]),
        lambda v: v.extend([]),
        lambda v: v.insert(0, v[0]),
        lambda v: v.pop(),
        lambda v: v.remove(v[0]),
        lambda v: v.clear(),
        lambda v: v.sort(key=lambda e: e.seq),
        lambda v: v.reverse(),
    ],
)
def test_a_validated_log_is_sealed(mutate):
    events = [_call(1), _reply(2)]
    log = validate_events(events)
    with pytest.raises(TypeError, match="sealed"):
        mutate(log)
    assert log == events


def test_a_validated_log_is_not_checked_again_and_reads_like_a_list():
    events = [_call(1), _reply(2), _reply(3, actor="b")]
    log = validate_events(events)
    assert isinstance(log, ValidatedLog)
    assert validate_events(log) is log
    assert replay(log).records["c1"].members == ("a", "b", "c")
    assert log == events and events == log
    assert type(log[1:]) is list and log[1:] == events[1:]
    assert type(log + events) is list and log + events == events + events
    for clone in (copy.copy(log), pickle.loads(pickle.dumps(log))):
        assert isinstance(clone, ValidatedLog) and clone == events


def test_an_edited_copy_of_a_validated_log_is_validated_again():
    log = validate_events([_call(1), _reply(2)])
    edited = list(log)
    edited[1] = replace(edited[1], in_reply_to="nothing")
    with pytest.raises(MalformedLog, match="unknown message"):
        replay(edited)
    with pytest.raises(MalformedLog, match="unknown message"):
        compute_metrics(edited)
    with pytest.raises(MalformedLog, match="unknown message"):
        validate_events(log[:1] + edited[1:])


@pytest.fixture(scope="module")
def report_logs(tmp_path_factory, small_campaign, reference_log):
    """Plain lists of three logs, each with its arms: the small campaign, a
    reply-heavy campaign and the reference log."""
    reply_heavy = tmp_path_factory.mktemp("replies") / "replies.log"
    config = _reply_heavy_config()
    run_campaign(config, build_simulated_platform(config), str(reply_heavy))
    arms = [spec.id for spec in config.strategies]
    return {
        "small": (read_events(str(small_campaign[2])), [s.id for s in small_campaign[0].strategies]),
        "reply-heavy": (read_events(str(reply_heavy)), arms),
        "reference": (list(reference_log), ["direct", "loss", "gain", "solidarity"]),
    }


def test_cached_indices_equal_those_of_the_plain_list(report_logs):
    for plain, arms in report_logs.values():
        log = validate_events(plain)
        assert replay(log) == replay(plain)
        assert conversation_members(log) == conversation_members(plain)
        assert conversation_members(log) is not conversation_members(log)
        assert list(volunteer_replies(log)) == list(volunteer_replies(plain))
        labels = labels_to_map(derive_labels(log))
        assert labels == labels_to_map(derive_labels(plain))
        assert compute_metrics(log, labels, arms=arms) == compute_metrics(list(log), labels, arms=arms)


def _reference_report(events, arm):
    """The arm's report columns, volunteers included, and its ANOVA samples
    (the volunteers who replied in each of its conversations, the volunteer
    replies to each of its messages), counted from their definitions."""
    calls = [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    members = {e.conversation_id: set(mentions_in_text(e.text)) for e in calls}
    conv_arm = {e.conversation_id: e.strategy for e in calls}
    counted = [
        e for e in events
        if e.kind is EventKind.INBOUND_REPLY and e.actor in members.get(e.conversation_id, ())
    ]
    mine = [e for e in counted if conv_arm[e.conversation_id] == arm]
    kinds = Counter(e.kind for e in events if e.strategy == arm and e.actor == "BOT")
    targets = Counter(e.target_author for e in events if e.strategy == arm and e.kind in INTERACTION_KINDS)
    replies_to = Counter(e.in_reply_to for e in counted)
    columns = (
        kinds[EventKind.OUTBOUND_CALL], kinds[EventKind.OUTBOUND_FOLLOWUP],
        sum(kinds[kind] for kind in OUTBOUND_KINDS), len({e.actor for e in mine}), len(mine),
        targets[TargetAuthor.BOT], targets[TargetAuthor.VOLUNTEER],
    )
    contributors = [
        len({e.actor for e in mine if e.conversation_id == conv}) for conv in conv_arm if conv_arm[conv] == arm
    ]
    replies = [replies_to[e.message_id] for e in events if e.kind in OUTBOUND_KINDS and e.strategy == arm]
    return columns, contributors, replies


def test_the_folded_report_equals_a_reference_count(report_logs):
    for plain, arms in report_logs.values():
        report = compute_metrics(validate_events(plain), arms=arms)
        assert [a.strategy for a in report.arms] == arms
        references = [_reference_report(plain, arm) for arm in arms]
        for a, (columns, _, _) in zip(report.arms, references):
            assert (
                a.calls_to_action, a.followups, a.outbound_messages, a.volunteers, a.volunteer_replies,
                a.bot_interactions, a.volunteer_interactions,
            ) == columns
        for anova, samples in (
            (report.anova_volunteers, [contributors for _, contributors, _ in references]),
            (report.anova_replies, [replies for _, _, replies in references]),
        ):
            assert anova == one_way_anova([[float(v) for v in sample] for sample in samples])


@pytest.mark.parametrize("name", ["small", "reply-heavy", "reference"])
def test_the_report_of_a_sealed_log_reads_its_fold_without_walking_it(name, report_logs, monkeypatch):
    plain, arms = report_logs[name]
    walks, parsed = [], []
    iterate, parse = ValidatedLog.__iter__, eventlog.mentions_in_text
    monkeypatch.setattr(ValidatedLog, "__iter__", lambda log: walks.append(1) or iterate(log))
    monkeypatch.setattr(eventlog, "mentions_in_text", lambda text: parsed.append(1) or parse(text))
    log = validate_events(plain)
    calls = [e for e in plain if e.kind is EventKind.OUTBOUND_CALL]
    assert (len(walks), len(parsed)) == (1, len(calls))
    walks.clear()
    parsed.clear()
    state, members, replies = replay(log), conversation_members(log), list(volunteer_replies(log))
    compute_metrics(log, labels_to_map(derive_labels(log)), arms=arms)
    assert (walks, parsed) == ([], [])
    # The fold agrees with what it replaces: the live run's fold, each
    # call's mentions, and the replies whose authors those mention.
    live = eventlog.CampaignState()
    for event in plain:
        live.apply(event)
    assert replace(state, report=None) == live
    assert members == {e.conversation_id: tuple(parse(e.text)) for e in calls}
    assert replies == [
        e for e in plain
        if e.kind is EventKind.INBOUND_REPLY and e.actor in members.get(e.conversation_id, ())
    ]


def test_the_live_run_folds_no_report_index():
    # The live state checks and routes; only a read log carries the report's
    # indices, and they equal the counts taken from their definitions.
    config = small_sim_config()
    with EventLogWriter(None) as writer:
        orchestrator = Orchestrator(config, build_simulated_platform(config), writer)
        orchestrator.run()
    assert orchestrator.state.report is None
    events = writer.events
    report = replay(events).report
    assert report.replies == [
        e for e in events
        if e.kind is EventKind.INBOUND_REPLY and e.actor in orchestrator.state.members.get(e.conversation_id, ())
    ]
    for arm in (spec.id for spec in config.strategies):
        columns, contributors, replies = _reference_report(events, arm)
        tally = report.tallies[arm]
        assert (
            tally["calls_to_action"], tally["followups"], tally["outbound_messages"], len(report.repliers[arm]),
            tally["volunteer_replies"], tally["bot_interactions"], tally["volunteer_interactions"],
        ) == columns
        assert [len(users) for a, users in report.conversations.values() if a == arm] == contributors
        assert [report.message_replies[m] for m, a in report.messages.items() if a == arm] == replies


def test_editing_the_replayed_state_changes_no_later_report(report_logs):
    plain, arms = report_logs["small"]
    log = validate_events(plain)
    report, members = compute_metrics(log, arms=arms), conversation_members(log)
    replies = list(volunteer_replies(log))
    state = replay(log)
    for record in state.records.values():
        record.members = ()
        record.sent_messages.clear()
    state.records.clear()
    state.message_conversations.clear()
    members.clear()
    assert compute_metrics(log, arms=arms) == report
    assert conversation_members(log) == conversation_members(plain) != {}
    assert list(volunteer_replies(log)) == replies != []


def test_a_volunteer_reply_counts_in_the_arm_of_its_conversation():
    events = [_call(1), replace(_reply(2), strategy="loss")]
    report = compute_metrics(events)
    assert [(arm.strategy, arm.volunteer_replies, arm.volunteers) for arm in report.arms] == [("direct", 1, 1)]


def test_validator_rejects_a_second_call_in_a_conversation():
    # The second call would rewrite the first: its members, its arm and its
    # sent messages, and a's reply would stop counting.
    second = replace(_call(3, members="@x @y @z", strategy="loss"), message_id="m2")
    with pytest.raises(MalformedLog, match=r"^record 3 \(seq 3\): c1 called twice$"):
        validate_events([_call(1), _reply(2), second])
    # An abort that opens a conversation stands for its call.
    abort = _event(1, EventKind.ABORT, conversation_id="c1", members=("a", "b", "c"), text="rejected")
    with pytest.raises(MalformedLog, match=r"^record 2 \(seq 2\): c1 called twice$"):
        validate_events([abort, _call(2)])


def test_validator_rejects_an_outbound_message_before_its_conversations_call():
    quote = replace(_call(1), kind=EventKind.OUTBOUND_QUOTE, strategy="solidarity")
    with pytest.raises(MalformedLog, match=r"^record 1 \(seq 1\): OutboundQuote before the call of c1$"):
        validate_events([quote, _reply(2), _call(3)])
    # A follow-up needs a reply in its conversation first, and says so.
    with pytest.raises(MalformedLog, match=r"^record 1 \(seq 1\): follow-up before any reply in c1$"):
        validate_events([_followup(1, 0)])


def test_validator_rejects_seq_regression():
    events = [_call(2), _reply(1, reply_to="m2")]
    with pytest.raises(MalformedLog, match="seq"):
        validate_events(events)


def test_validator_rejects_orphan_reply():
    with pytest.raises(MalformedLog, match="unknown message"):
        validate_events([_reply(1, reply_to="nothing")])


def test_validator_rejects_an_outbound_message_id_already_in_the_log():
    # A second call under the first call's id, and a follow-up under a reply's id.
    for reused in (replace(_call(3, conv="c2"), message_id="m1"), replace(_followup(3, 0), message_id="r2")):
        with pytest.raises(MalformedLog, match=rf"^record 3 \(seq 3\): message {reused.message_id} already in the log"):
            validate_events([_call(1), _reply(2), reused])


def test_validator_rejects_followup_before_reply():
    followup = _event(
        2,
        EventKind.OUTBOUND_FOLLOWUP,
        strategy="direct",
        topic="corruption",
        conversation_id="c1",
        message_id="m2",
        text="@a next question",
    )
    with pytest.raises(MalformedLog, match="follow-up before any reply"):
        validate_events([_call(1), followup])


def _followup(seq, q, conv="c1"):
    return _event(
        seq,
        EventKind.OUTBOUND_FOLLOWUP,
        strategy="direct",
        topic="corruption",
        conversation_id=conv,
        message_id=f"m{seq}",
        followup_index=q,
        text="@a next question",
    )


def test_followup_index_is_logged_as_q_before_text(tmp_path):
    line = format_event(_followup(3, 4))
    assert b',"msg":"m3","q":4,"text":' in line
    path = tmp_path / "log.jsonl"
    events = [_call(1), _reply(2), _followup(3, 4)]
    write_events(events, str(path))
    assert read_events(str(path)) == events
    assert replay(events).records["c1"].used_followups == {4}


def test_validator_rejects_a_repeated_question():
    events = [_call(1), _reply(2), _followup(3, 4), _reply(4, reply_to="m3"), _followup(5, 4)]
    with pytest.raises(MalformedLog, match="question 4 asked twice in c1"):
        validate_events(events)
    # Another index in the same conversation, or the same index in another
    # conversation, is fine.
    other = [
        _call(6, conv="c2", members="@d @e @f"),
        _reply(7, conv="c2", actor="d", reply_to="m6"),
        _followup(8, 4, conv="c2"),
    ]
    assert validate_events(events[:4] + [_followup(5, 1)] + other)


def test_validator_rejects_an_abort_that_opens_a_conversation_without_members():
    abort = _event(2, EventKind.ABORT, conversation_id="c2", text="platform rejected call")
    with pytest.raises(MalformedLog, match=r"^record 2 \(seq 2\): abort opens c2 without members"):
        validate_events([_call(1), abort])
    # The abort of a turn after the call, or of a call that names its group, is fine.
    assert validate_events([_call(1), replace(abort, conversation_id="c1")])
    assert validate_events([_call(1), replace(abort, members=("d", "e", "f"))])


@pytest.mark.parametrize(
    "bad, message",
    [
        (replace(_call(2, conv="c2"), actor="a"), "outbound message not authored by BOT"),
        (replace(_call(2), conversation_id=None), "outbound message missing conv or msg"),
        (replace(_call(2, conv="c2"), message_id=None), "outbound message missing conv or msg"),
        (_reply(2, conv="c2"), "reply conversation mismatch"),
        (_event(2, EventKind.ABORT, text="platform rejected call"), "abort missing conversation"),
    ],
    ids=["call-by-a-user", "call-without-conv", "call-without-msg", "reply-in-another-conv", "abort-without-conv"],
)
def test_validator_rejects_an_event_with_a_wrong_author_or_conversation(bad, message):
    with pytest.raises(MalformedLog, match=rf"^record 2 \(seq 2\): {message}$"):
        validate_events([_call(1), bad])


@pytest.mark.parametrize("strategy", [None, ""])
def test_validator_rejects_an_outbound_message_without_a_strategy(strategy):
    with pytest.raises(MalformedLog, match=r"^record 2 \(seq 2\): outbound message missing strategy"):
        validate_events([_call(1), _call(2, conv="c2", members="@d", strategy=strategy)])


def test_validator_rejects_interaction_without_target_author():
    retweet = _event(
        2,
        EventKind.RETWEET,
        actor="a",
        strategy="direct",
        topic="corruption",
        conversation_id="c1",
        message_id="x1",
        in_reply_to="m1",
    )
    with pytest.raises(MalformedLog, match="target_author"):
        validate_events([_call(1), retweet])


@pytest.mark.parametrize("kind", sorted(INTERACTION_KINDS))
def test_validator_rejects_an_interaction_toward_an_unknown_message(kind):
    # Counted, it would be a bot interaction of an arm with no message for it.
    toward = _event(
        2, kind, actor="a", strategy="direct", conversation_id="c1", message_id="x1",
        in_reply_to="nothing", target_author=TargetAuthor.BOT,
    )
    with pytest.raises(MalformedLog, match=rf"^record 2 \(seq 2\): {kind.value} toward unknown message$"):
        validate_events([_call(1), toward])
    with pytest.raises(MalformedLog, match="toward unknown message"):
        compute_metrics([_call(1), toward])
    assert compute_metrics([_call(1), replace(toward, in_reply_to="m1")]).arm("direct").bot_interactions == 1


def test_validator_accepts_reply_to_volunteer_message():
    events = [
        _call(1),
        _reply(2, reply_to="m1"),
        _reply(3, actor="b", reply_to="r2"),  # reply to a volunteer message
    ]
    assert len(validate_events(events)) == 3


def test_malformed_json_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 1, "ts": 1, "kind": "OutboundCall", "actor": "BOT"\n')
    with pytest.raises(MalformedLog, match="line 1"):
        read_events(str(path))


_GOOD_LINE = '{"seq":1,"ts":1,"kind":"Abort","actor":"BOT","conv":"c1"}'


@pytest.mark.parametrize(
    "line",
    [
        "5",
        "[1]",
        '"seq"',
        "null",
        '{"seq":null,"ts":2,"kind":"Abort","actor":"BOT","conv":"c1"}',
        '{"ts":2,"kind":"Abort","actor":"BOT","conv":"c1"}',
        '{"seq":1.9,"ts":2,"kind":"Abort","actor":"BOT","conv":"c1"}',
        '{"seq":true,"ts":2,"kind":"Abort","actor":"BOT","conv":"c1"}',
        '{"seq":2,"ts":"2","kind":"Abort","actor":"BOT","conv":"c1"}',
        '{"seq":2,"ts":2,"kind":"OutboundFollowup","actor":"BOT","q":[1]}',
        '{"seq":2,"ts":2,"kind":"OutboundFollowup","actor":"BOT","q":1.0}',
        '{"seq":2,"ts":2,"kind":"OutboundFollowup","actor":"BOT","q":false}',
        '{"seq":2,"ts":2,"kind":["Abort"],"actor":"BOT"}',
        '{"seq":2,"ts":2,"kind":"Nothing","actor":"BOT"}',
        '{"seq":2,"ts":2,"kind":"Retweet","actor":"a","target_author":"Anyone"}',
        '{"seq":2,"ts":2,"kind":"Abort"}',
        '{"seq":2,"ts":2,"kind":"Abort","actor":"BOT"} {}',
        '{"seq":2,"ts":2,"kind":"OutboundCall","actor":"BOT","text":5}',
        '{"seq":2,"ts":2,"kind":"Abort","actor":1}',
        '{"seq":2,"ts":2,"kind":"Abort","actor":"BOT","members":"u1"}',
        '{"seq":2,"ts":2,"kind":"Abort","actor":"BOT","members":[1]}',
        '{"seq":2,"ts":2,"kind":"OutboundCall","actor":"BOT","partial":"no"}',
        '{"seq":2,"ts":2,"kind":"OutboundCall","actor":"BOT","partial":false}',
        '{"seq":2,"ts":2,"kind":"OutboundCall","actor":"BOT","partial":1}',
        # Past the interpreter's limit on digits in an integer string.
        pytest.param(
            '{"seq":' + "2" * 5000 + ',"ts":2,"kind":"Abort","actor":"BOT","conv":"c1"}',
            id="seq-of-5000-digits",
        ),
        # Just outside the 64-bit range the decoder reads as an integer.
        pytest.param(
            '{"seq":%d,"ts":2,"kind":"Abort","actor":"BOT","conv":"c1"}' % 2**64, id="seq-of-2**64"
        ),
        pytest.param(
            '{"seq":%d,"ts":2,"kind":"Abort","actor":"BOT","conv":"c1"}' % (-(2**63) - 1),
            id="seq-of-minus-2**63-minus-1",
        ),
        pytest.param('{"seq":2,"ts":2,"kind":"Abort","actor":"BOT","x":NaN}', id="nan"),
        pytest.param('{"seq":2,"ts":1e400,"kind":"Abort","actor":"BOT"}', id="1e400"),
        pytest.param(
            '{"seq":2,"ts":2,"kind":"Abort","actor":"BOT","text":"\\ud800"}', id="lone-surrogate"
        ),
        pytest.param(
            '{"seq":2,"ts":2,"kind":"Abort","actor":"BOT","x":' + "[" * 100_000 + "]" * 100_000 + "}",
            id="nested-100000-deep",
        ),
        # The writer never writes one, and a resume's byte check refuses it.
        pytest.param("", id="blank"),
        pytest.param(" \t", id="whitespace-only"),
    ],
)
def test_a_line_that_is_not_an_event_is_malformed(tmp_path, line):
    path = tmp_path / "hostile.jsonl"
    path.write_text(f"{_GOOD_LINE}\n{line}\n")
    with pytest.raises(MalformedLog, match="^line 2: "):
        read_events(str(path))


def test_nesting_is_refused_past_its_limit_before_it_is_decoded(tmp_path):
    def line(depth):
        return '{"seq":2,"ts":2,"kind":"Abort","actor":"BOT","x":' + "[" * depth + "]" * depth + "}"

    path = tmp_path / "deep.jsonl"
    path.write_text(f"{_GOOD_LINE}\n{line(1023)}\n")  # 1,024 deep, the object included
    assert len(read_events(str(path))) == 2
    path.write_text(f"{_GOOD_LINE}\n{line(1024)}\n")
    with pytest.raises(MalformedLog, match=r"^line 2: not valid JSON \(nested deeper than 1024\)$"):
        read_events(str(path))
    # Long enough to be scanned, but each bracket closes again: decoded, then
    # refused for what it holds.
    members = '{"seq":2,"ts":2,"kind":"Abort","actor":"BOT","members":[' + ",".join(["[]"] * 1100) + "]}"
    path.write_text(f"{_GOOD_LINE}\n{members}\n")
    with pytest.raises(MalformedLog, match="^line 2: not an event record"):
        read_events(str(path))


def test_a_line_that_is_not_utf8_is_malformed(tmp_path):
    # Line 1 holds U+2028 raw, as format_event writes it: a line count that
    # split it there would name line 3.
    first = format_event(_event(1, EventKind.ABORT, conversation_id="c1", text="a\u2028b"))
    path = tmp_path / "hostile.jsonl"
    path.write_bytes(first + b"\n" + _GOOD_LINE.encode()[:-2] + b"\xff\"}\n")
    with pytest.raises(MalformedLog, match="^line 2: not valid UTF-8$"):
        read_events(str(path))


def test_the_first_bad_line_is_named_before_a_later_one_that_is_not_utf8(tmp_path):
    # The text reader fails on the whole chunk, line 1 included, before it
    # yields line 1.
    path = tmp_path / "hostile.jsonl"
    path.write_bytes(b'not json\n{"seq":2,"text":"\xff"}\n')
    with pytest.raises(MalformedLog, match=r"^line 1: not valid JSON \("):
        read_events(str(path))


def test_integers_at_both_ends_of_the_64_bit_range_round_trip(tmp_path):
    events = [
        _event(bound, EventKind.OUTBOUND_FOLLOWUP, ts=bound, followup_index=bound)
        for bound in (-(2**63), 2**64 - 1)
    ]
    path = tmp_path / "wide.jsonl"
    write_events(events, str(path))
    back = read_events(str(path))
    assert back == events
    assert {type(v) for e in back for v in (e.seq, e.ts, e.followup_index)} == {int}


@pytest.mark.parametrize(
    "event, match",
    [
        (_event(2**64, EventKind.OUTBOUND_CALL), "Integer exceeds 64-bit range"),
        (_event(1, EventKind.OUTBOUND_FOLLOWUP, followup_index=-(2**63) - 1), "Integer exceeds 64-bit range"),
        (_event(1, EventKind.ABORT, conversation_id="c1", text="a\ud800"), "surrogates not allowed"),
    ],
    ids=["seq-of-2**64", "q-of-minus-2**63-minus-1", "lone-surrogate-in-text"],
)
def test_writer_refuses_an_integer_its_reader_would_refuse(tmp_path, event, match):
    # The name predates the lone-surrogate input, which the reader refuses too.
    path = tmp_path / "wide.jsonl"
    for target in (str(path), None):
        with EventLogWriter(target) as writer:
            with pytest.raises(ValueError, match=match):
                writer.append(event)
            assert writer.events == []
    assert path.read_bytes() == b""


def test_the_writer_makes_each_full_block_durable_and_the_rest_on_close(tmp_path, monkeypatch):
    durable = []  # the bytes in the file at each fsync
    monkeypatch.setattr(os, "fsync", lambda fd: durable.append(os.fstat(fd).st_size))
    events = [_event(seq, EventKind.ABORT, conversation_id="c1") for seq in range(1, 1101)]
    with EventLogWriter(str(tmp_path / "log")) as writer:
        for event in events:
            writer.append(event)
    writer.close()  # closing again does nothing
    sizes = [len(format_event(event)) + 1 for event in events]
    assert durable == [sum(sizes[:512]), sum(sizes[:1024]), sum(sizes)]


def test_conversation_members_parses_call_mentions(reference_log):
    members = conversation_members(reference_log)
    assert members["direct-0000"] == ("d0000x0", "d0000x1", "d0000x2")


def test_replay_builds_consistent_records(reference_log):
    state = replay(reference_log)
    assert len(state.records) == 376
    record = state.records["direct-0000"]
    assert record.strategy == "direct"
    assert record.members == ("d0000x0", "d0000x1", "d0000x2")
    assert not record.closed
    calls_per_arm = Counter(record.strategy for record in state.records.values())
    assert calls_per_arm == {"direct": 94, "loss": 94, "gain": 94, "solidarity": 94}
    # No orphan replies: every reply lands in a known conversation.
    replies = [e for e in reference_log if e.kind is EventKind.INBOUND_REPLY]
    assert len(replies) == 423
    assert all(state.message_conversations[e.message_id] in state.records for e in replies)


def test_replay_folds_every_called_member_into_its_record(reference_log):
    state = replay(reference_log)
    members = [user for record in state.records.values() for user in record.members]
    assert {"d0000x0", "d0000x1"} <= set(members)
    assert len(members) == len(set(members)) == 376 * 3


def test_replay_reconstruction_is_idempotent(reference_log):
    once = replay(reference_log)
    twice = replay(reference_log)
    assert once == twice
