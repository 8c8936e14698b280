from collections import Counter

import pytest

from campaignkit import fixtures
from campaignkit.eventlog import (
    EventLogWriter,
    MalformedLog,
    conversation_members,
    format_event,
    read_events,
    replay,
    validate_events,
    write_events,
)
from campaignkit.model import (
    CampaignEvent,
    ContactState,
    ConversationState,
    EventKind,
    TargetAuthor,
)


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
    assert line.startswith('{"seq":1,"ts":')
    assert '"kind":"OutboundCall"' in line


def test_file_round_trip(tmp_path, reference_log):
    path = tmp_path / "log.jsonl"
    write_events(reference_log, str(path))
    assert read_events(str(path)) == reference_log


def test_writer_append_mode(tmp_path):
    path = tmp_path / "log.jsonl"
    write_events([_call(1)], str(path))
    with EventLogWriter(str(path), append=True) as writer:
        writer.append(_reply(2))
    events = read_events(str(path))
    assert [e.seq for e in events] == [1, 2]


def test_reference_log_validates(reference_log):
    assert validate_events(reference_log) == list(reference_log)


def test_validator_rejects_seq_regression():
    events = [_call(2), _reply(1, reply_to="m2")]
    with pytest.raises(MalformedLog, match="seq"):
        validate_events(events)


def test_validator_rejects_orphan_reply():
    with pytest.raises(MalformedLog, match="unknown message"):
        validate_events([_reply(1, reply_to="nothing")])


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


def test_conversation_members_parses_call_mentions(reference_log):
    members = conversation_members(reference_log)
    assert members["direct-0000"] == ("d0000x0", "d0000x1", "d0000x2")


def test_replay_builds_consistent_records(reference_log):
    state = replay(reference_log)
    assert len(state.records) == 376
    record = state.records["direct-0000"]
    assert record.strategy == "direct"
    assert record.members == ("d0000x0", "d0000x1", "d0000x2")
    assert record.state is ConversationState.ENGAGED
    calls_per_arm = Counter()
    for (_topic, arm), calls in state.calls_per_topic_arm.items():
        calls_per_arm[arm] += calls
    assert calls_per_arm == {"direct": 94, "loss": 94, "gain": 94, "solidarity": 94}
    # No orphan replies: every reply lands in a known conversation.
    total_replies = sum(len(r.replies) for r in state.records.values())
    assert total_replies == 423


def test_replay_registry_marks_contacted_and_replied(reference_log):
    registry = replay(reference_log).registry()
    assert registry.state("d0000x0") is ContactState.REPLIED
    assert registry.state("d0000x1") is ContactState.CONTACTED
    assert len(registry) == 376 * 3


def test_replay_reconstruction_is_idempotent(reference_log):
    once = replay(reference_log)
    twice = replay(reference_log)
    assert once.records == twice.records
    assert once.registry() == twice.registry()
