import hashlib
import logging
import math
import os
import random
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import campaignkit
from campaignkit import fixtures, model
from campaignkit.eventlog import (
    EventLogWriter,
    MalformedLog,
    conversation_members,
    read_events,
    replay,
    validate_events,
    write_events,
)
from campaignkit.model import EventKind, OUTBOUND_KINDS, CampaignError, replace
from campaignkit.orchestrator import (
    DRAIN_WINDOW_MS,
    AllQuotasExhausted,
    ArmAllocator,
    GroupBuffer,
    Orchestrator,
    build_simulated_platform,
    run_campaign,
)
from campaignkit.platform import InboundItem, ItemKind, PlatformRejected, RateLimited
from campaignkit.strategy import MessageKind
from campaignkit.targeting import AdmitResult

from conftest import StubPlatform, keep_stream_open, public_post, small_sim_config

ARMS = ("direct", "loss", "gain", "solidarity")


# -- allocator ---------------------------------------------------------------------

def test_allocator_block_property():
    allocator = ArmAllocator(ARMS, ("corruption",), users_per_topic_arm=10_000, rng=random.Random(1))
    assigned = [allocator.assign("corruption") for _ in range(8)]
    assert Counter(assigned) == {arm: 2 for arm in ARMS}


def test_allocator_prefix_balance():
    allocator = ArmAllocator(ARMS, ("corruption",), users_per_topic_arm=10_000, rng=random.Random(2))
    counts = Counter()
    for _ in range(203):
        counts[allocator.assign("corruption")] += 1
        assert max(counts.values()) - min(counts[a] for a in ARMS) <= 1


def test_allocator_returns_only_arm_below_quota():
    # One block serves both topics: once impunity takes the block's last
    # slot, corruption's next block holds three arms whose quota it spent.
    allocator = ArmAllocator(
        ARMS, ("corruption", "impunity"), users_per_topic_arm=1, rng=random.Random(3)
    )
    spent = {allocator.assign("corruption") for _ in range(3)}
    allocator.assign("impunity")
    assert allocator.assign("corruption") == (set(ARMS) - spent).pop()
    with pytest.raises(AllQuotasExhausted):
        allocator.assign("corruption")


def test_allocator_reference_quota_split():
    # 47 groups of 3 per arm per topic over two topics: 94 groups per arm.
    allocator = ArmAllocator(
        ARMS, ("corruption", "impunity"), users_per_topic_arm=47 * 3, rng=random.Random(4)
    )
    topics = ("corruption", "impunity")
    i = 0
    while allocator.any_capacity():
        topic = topics[i % 2]
        if allocator.has_capacity(topic):
            allocator.assign(topic)
        i += 1
    for arm in ARMS:
        users = sum(allocator.assigned[(t, arm)] for t in topics)
        assert users == 2 * 47 * 3  # = 94 groups of three


# -- group buffer -------------------------------------------------------------------

def test_buffer_emits_group_at_size():
    buffer = GroupBuffer(group_size=3)
    assert buffer.add("a", "corruption", "direct", now=0) is None
    assert buffer.add("b", "corruption", "direct", now=1) is None
    assert buffer.add("c", "corruption", "direct", now=2) == ["a", "b", "c"]
    assert buffer.add("d", "corruption", "direct", now=3) is None  # buffer restarted


def test_buffer_stale_flush():
    buffer = GroupBuffer(group_size=3)
    buffer.add("a", "corruption", "direct", now=0)
    buffer.add("b", "corruption", "direct", now=5_000)
    assert buffer.stale(now=100_000, timeout_ms=3_600_000) == []
    assert buffer.stale(now=4_000_000, timeout_ms=3_600_000) == [("corruption", "direct", ["a", "b"])]
    # With no timeout every queued target goes, as at the end of a run.
    buffer.add("c", "corruption", "loss", now=4_000_000)
    assert buffer.stale(4_000_000, 0) == [("corruption", "loss", ["c"])]


# -- orchestrator against the scripted platform ------------------------------------------

def _single_arm_config(**overrides):
    spec = fixtures.default_strategies("en")[0]
    config = fixtures.default_config()
    config = replace(
        config,
        strategies=(spec,),
        topics=(model.Topic(name="corruption", keywords=("corrupcion",)),),
        groups_per_strategy_per_topic=5,
        jitter=model.JitterBounds(min_delay=1, max_delay=2),
        simulation={},
    )
    return replace(config, **overrides)


def _posts(n, start_ts=1_000_000):
    return [
        public_post(f"user{i:02d}", "no mas corrupcion", start_ts + i * 1000) for i in range(n)
    ]


def _run_with_stub(config, platform):
    with EventLogWriter(None) as writer:
        orchestrator = Orchestrator(config, platform, writer)
        orchestrator.run()
        return orchestrator, writer.events


def _rejecting(platform, rejects):
    """The platform, made to reject every post for which ``rejects(message)``."""
    post = platform.post

    def rejecting_post(message):
        if rejects(message):
            raise PlatformRejected("scripted rejection")
        return post(message)

    platform.post = rejecting_post
    return platform


def test_partial_group_dispatched_and_flagged():
    config = _single_arm_config()
    platform = StubPlatform(_posts(2))
    clocks = []  # the platform's clock at each post
    post = platform.post
    platform.post = lambda message: clocks.append(platform.now_ms()) or post(message)
    _orch, events = _run_with_stub(config, platform)
    calls = [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    assert len(calls) == 1
    assert calls[0].partial is True
    # Posted after the stream stopped, at its timeout plus jitter, and the
    # platform's clock was moved there first.
    assert clocks == [calls[0].ts]
    mentions = conversation_members(events)[calls[0].conversation_id]
    assert len(mentions) == 2


def test_partial_group_discard_policy(caplog):
    config = _single_arm_config(partial_groups=model.PartialGroupPolicy(policy="discard"))
    platform = StubPlatform(_posts(2))
    with caplog.at_level(logging.INFO, logger="campaignkit.orchestrator"):
        orchestrator, events = _run_with_stub(config, platform)
    assert caplog.messages == ["discarding 2 queued targets for (corruption, direct)"]
    assert [e for e in events if e.kind is EventKind.OUTBOUND_CALL] == []
    # Admitted but never called: in no record, yet not admitted again.
    assert orchestrator.state.records == {}
    assert orchestrator.registry.admit("user00") is AdmitResult.DUPLICATE_REJECTED


def test_stale_flush_fires_exactly_at_the_timeout():
    config = _single_arm_config(
        jitter=model.JitterBounds(min_delay=10, max_delay=10),
        partial_groups=model.PartialGroupPolicy(timeout_s=1),
    )
    t = 1_000_000
    posts = [
        public_post("user00", "no mas corrupcion", t),
        public_post("user01", "no mas corrupcion", t + 100),
        public_post("user02", "no mas corrupcion", t + 200),  # full group, buffer empties
        public_post("user03", "no mas corrupcion", t + 500),
        public_post("user04", "no mas corrupcion", t + 1000),  # scan: user03 not yet stale
        public_post("user00", "otra vez corrupcion", t + 1500),  # duplicate; user03 due now
        public_post("user05", "no mas corrupcion", t + 1600),
    ]
    _orch, events = _run_with_stub(config, StubPlatform(posts))
    calls = [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    members = conversation_members(events)
    assert [(members[e.conversation_id], e.partial) for e in calls] == [
        (("user00", "user01", "user02"), False),
        (("user03", "user04"), True),
        (("user05",), True),
    ]


def test_platform_rejection_aborts_and_keeps_users_contacted():
    config = _single_arm_config()
    platform = StubPlatform(_posts(3), reject_all=True)
    orchestrator, events = _run_with_stub(config, platform)
    aborts = [e for e in events if e.kind is EventKind.ABORT]
    assert len(aborts) == 1
    assert aborts[0].members == ("user00", "user01", "user02")
    assert not [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    record = orchestrator.state.records["c000001"]
    assert (record.members, record.closed) == (("user00", "user01", "user02"), True)


def test_rate_limited_post_is_retried():
    config = _single_arm_config()
    platform = StubPlatform(_posts(3), rate_limit_first=2)
    _orch, events = _run_with_stub(config, platform)
    calls = [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    assert len(calls) == 1  # eventually went out, exactly once
    assert validate_events(events)


class _QuoteRateLimitedOnce(StubPlatform):
    """Rate-limits the first attempt at a quote, after its call went out.
    Counts the attempts to post each kind of message."""

    quote_limited = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attempts: Counter = Counter()

    def post(self, message) -> str:
        self.attempts[message.kind] += 1
        if message.kind is MessageKind.QUOTE and not self.quote_limited:
            self.quote_limited = True
            raise RateLimited(retry_after_ms=1000)
        return super().post(message)


def test_rate_limited_quote_retry_keeps_the_call_record():
    solidarity = next(s for s in fixtures.default_strategies("en") if s.id == "solidarity")
    config = _single_arm_config(strategies=(solidarity,))
    # Two groups, the second formed while the first call's quote waits.
    posts = [public_post(f"user{i:02d}", "no mas corrupcion", 1_000_000 + i * 100) for i in range(6)]
    platform = _QuoteRateLimitedOnce(posts)
    orchestrator, events = _run_with_stub(config, platform)
    assert platform.quote_limited
    # The retry posts the quote again, not the call that already went out.
    assert platform.attempts == {MessageKind.CALL: 2, MessageKind.QUOTE: 3}
    outbound = [e for e in events if e.kind in OUTBOUND_KINDS]
    assert [(e.kind, e.conversation_id) for e in outbound] == [
        (EventKind.OUTBOUND_CALL, "c000001"), (EventKind.OUTBOUND_QUOTE, "c000001"),
        (EventKind.OUTBOUND_CALL, "c000002"), (EventKind.OUTBOUND_QUOTE, "c000002"),
    ]
    record = orchestrator.state.records["c000001"]
    assert record.sent_messages == [e.message_id for e in outbound[:2]]
    # The retried quote finishes the first call and releases the second
    # within one jitter window, not at the stale timeout.
    assert outbound[2].ts - outbound[1].ts <= config.jitter.max_delay * 1000
    assert orchestrator._calls_in_flight == 0


def test_a_reply_in_a_closed_conversation_gets_no_followup():
    solidarity = next(s for s in fixtures.default_strategies("en") if s.id == "solidarity")
    config = _single_arm_config(strategies=(solidarity,))
    reply = InboundItem(
        ItemKind.REPLY_TO_BOT, "user00", "r1", 2_000_000, in_reply_to="stub00001", text="corrupcion"
    )
    platform = _rejecting(StubPlatform(_posts(3) + [reply]), lambda m: m.kind is MessageKind.QUOTE)
    orchestrator, events = _run_with_stub(config, platform)
    # The call went out, its quote was rejected: the conversation is closed,
    # and the abort of a call's message names the group.
    assert [e.kind for e in events] == [EventKind.OUTBOUND_CALL, EventKind.ABORT, EventKind.INBOUND_REPLY]
    assert events[1].members == ("user00", "user01", "user02")
    assert orchestrator.state.records["c000001"].closed


def test_the_admit_that_fills_the_last_quota_closes_the_public_stream():
    config = _single_arm_config()  # one (topic, arm) pair: a quota of 15 users
    posts = _posts(20)
    platform = StubPlatform(posts)
    _orch, events = _run_with_stub(config, platform)
    assert platform.closes == [posts[14].timestamp]
    assert sum(e.kind is EventKind.OUTBOUND_CALL for e in events) == 5


def test_a_run_whose_quotas_never_fill_never_closes_the_public_stream():
    platform = StubPlatform(_posts(14))
    _run_with_stub(_single_arm_config(), platform)
    assert platform.closes == []


def test_a_topic_with_nothing_left_to_produce_does_not_hold_the_other():
    config = _single_arm_config(
        topics=(model.Topic("corruption", ("corrupcion",)), model.Topic("impunity", ("impunidad",))),
        groups_per_strategy_per_topic=1,
        group_size=2,
        partial_groups=model.PartialGroupPolicy(timeout_s=60),
    )
    t = 1_000_000
    posts = [
        public_post("a0", "no mas corrupcion", t),
        public_post("b0", "no mas impunidad", t + 61_000),  # a0 is called alone
        public_post("a1", "no mas corrupcion", t + 70_000),  # corruption's quota is met
        public_post("b1", "no mas impunidad", t + 71_000),  # impunity's group is ready
    ]
    _orch, events = _run_with_stub(config, StubPlatform(posts))
    members = conversation_members(events)
    calls = {members[e.conversation_id]: e.ts for e in events if e.kind is EventKind.OUTBOUND_CALL}
    # Corruption, first in topic order, can produce nothing more, so it does
    # not hold impunity's batch until the timeout.
    assert calls[("b0", "b1")] - posts[3].timestamp <= config.jitter.max_delay * 1000


def test_one_user_never_mentioned_in_two_calls_with_duplicate_stream():
    config = _single_arm_config()
    posts = _posts(3) + _posts(3, start_ts=2_000_000) + _posts(3, start_ts=3_000_000)
    platform = StubPlatform(posts)
    _orch, events = _run_with_stub(config, platform)
    mentioned = []
    for conv, users in conversation_members(events).items():
        mentioned.extend(users)
    assert len(mentioned) == len(set(mentioned)) == 3


# -- end-to-end properties on a simulated campaign -----------------------------------------

def test_campaign_log_validates(small_campaign):
    _config, events, _path = small_campaign
    assert validate_events(events)


def _assert_one_touch(events):
    mentioned = [user for users in conversation_members(events).values() for user in users]
    assert len(mentioned) == len(set(mentioned))


def _assert_budget(config, events):
    budget = {s.id: s.messages_per_turn for s in config.strategies}
    per_arm = Counter()
    for event in events:
        if event.kind in OUTBOUND_KINDS:
            per_arm[(event.strategy, event.kind)] += 1
    for arm, messages_per_turn in budget.items():
        calls = per_arm[(arm, EventKind.OUTBOUND_CALL)]
        followups = per_arm[(arm, EventKind.OUTBOUND_FOLLOWUP)]
        quotes = per_arm[(arm, EventKind.OUTBOUND_QUOTE)]
        assert quotes == (calls + followups) * (messages_per_turn - 1)


def _assert_balance(events):
    counts = Counter()
    for event in events:
        if event.kind is EventKind.OUTBOUND_CALL:
            counts[event.strategy] += 1
            assert max(counts.values()) - min(counts[a] for a in ARMS) <= 1


def _assert_quotas(config, events):
    calls = Counter(
        (e.topic, e.strategy) for e in events if e.kind is EventKind.OUTBOUND_CALL
    )
    for topic in ("corruption", "impunity"):
        for arm in ARMS:
            assert calls[(topic, arm)] == config.groups_per_strategy_per_topic


def test_one_touch_end_to_end(small_campaign):
    _config, events, _path = small_campaign
    _assert_one_touch(events)


def test_every_followup_preceded_by_reply(small_campaign):
    _config, events, _path = small_campaign
    replied = set()
    for event in events:
        if event.kind is EventKind.INBOUND_REPLY:
            replied.add(event.conversation_id)
        elif event.kind is EventKind.OUTBOUND_FOLLOWUP:
            assert event.conversation_id in replied


def test_message_budget_per_turn(small_campaign):
    config, events, _path = small_campaign
    _assert_budget(config, events)


def test_arm_balance_at_every_prefix(small_campaign):
    _config, events, _path = small_campaign
    _assert_balance(events)


def test_quotas_met_exactly(small_campaign):
    config, events, _path = small_campaign
    _assert_quotas(config, events)


def test_batch_calls_within_one_jitter_window(small_campaign):
    config, events, _path = small_campaign
    calls = [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    window_ms = (config.jitter.max_delay - config.jitter.min_delay) * 1000
    for i in range(0, len(calls) - len(ARMS) + 1, len(ARMS)):
        block = calls[i : i + len(ARMS)]
        assert {e.strategy for e in block} == set(ARMS)
        assert len({e.topic for e in block}) == 1
        stamps = [e.ts for e in block]
        assert max(stamps) - min(stamps) <= window_ms


def test_topics_alternate_at_batch_granularity(small_campaign):
    _config, events, _path = small_campaign
    calls = [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    batch_topics = [calls[i].topic for i in range(0, len(calls), len(ARMS))]
    alternations = sum(1 for a, b in zip(batch_topics, batch_topics[1:]) if a != b)
    assert alternations >= len(batch_topics) - 2  # strict alternation, allowing the tail


def test_replay_reconstructs_records(small_campaign, tmp_path):
    config, events, path = small_campaign
    platform = build_simulated_platform(config)
    with EventLogWriter(str(tmp_path / "rerun.log")) as writer:
        orchestrator = Orchestrator(config, platform, writer)
        orchestrator.run()
    replayed = replay(writer.events)
    assert replayed == replay(events)
    assert replace(replayed, report=None) == orchestrator.state


def _overflowing(config, arm):
    """The config with the arm's last follow-up question too long to post."""
    return replace(config, strategies=tuple(
        replace(spec, followups=spec.followups[:-1] + ("x" * 200,)) if spec.id == arm else spec
        for spec in config.strategies
    ))


_SEED21 = small_sim_config(seed=21, groups=3, population=500)
# More runs whose live state must equal the replay of their log, each with
# the posts the platform rejects, if any; the seed-5 campaign is checked by
# test_replay_reconstructs_records. A rejected or an overflowing follow-up
# draws a question that the log never asks; the platform refuses the
# overflowing one, so both log a follow-up's abort.
LIVE_RUNS = {
    "seed21": (_SEED21, None),
    "partial60": (
        replace(small_sim_config(), partial_groups=model.PartialGroupPolicy(timeout_s=60)), None
    ),
    "abort": (_SEED21, lambda message: message.conversation_id == "c000002"),
    "followup-rejected": (_SEED21, lambda message: message.kind is MessageKind.FOLLOWUP and message.turn == 1),
    "followup-overflow": (_overflowing(_SEED21, "direct"), None),
}


@pytest.mark.parametrize("name", sorted(LIVE_RUNS))
def test_live_state_equals_replay_of_its_log(name, tmp_path):
    config, rejects = LIVE_RUNS[name]
    platform = build_simulated_platform(config)
    if rejects is not None:
        _rejecting(platform, rejects)
    out = tmp_path / "live.log"
    with EventLogWriter(str(out)) as writer:
        orchestrator = Orchestrator(config, platform, writer)
        orchestrator.run()
    # The run ends with nothing buffered, ready, scheduled or in flight.
    assert orchestrator.buffers.oldest() is None
    assert not any(ready for arms in orchestrator.ready.values() for ready in arms.values())
    assert len(orchestrator.schedule) == 0
    assert orchestrator._calls_in_flight == 0
    events = read_events(str(out))
    replayed = replay(events)
    assert replace(replayed, report=None) == orchestrator.state
    members = conversation_members(events)
    called = {user for users in members.values() for user in users}
    aborts = [e for e in events if e.kind is EventKind.ABORT]
    aborted = {user for e in aborts for user in e.members or ()}
    assert {user for record in replayed.records.values() for user in record.members} == called | aborted
    assert bool(aborts) is (rejects is not None or name == "followup-overflow")
    # An abort names the group exactly when it stands for a call.
    assert all(bool(e.members) is (e.conversation_id not in members) for e in aborts)
    if name.startswith("followup-"):
        assert all(e.members is None for e in aborts)  # a follow-up's abort names no group
    if name == "followup-overflow":
        assert all(e.text.startswith("platform rejected Followup: message is 2") for e in aborts)
    assert any(record.used_followups for record in replayed.records.values())


def _edited(platform, edit):
    """The platform, with ``edit`` applied to every inbound item."""
    inbound = platform.inbound
    # map asks the stream again on every next, so a stream that stopped and
    # restarts after a post keeps yielding through it.
    platform.inbound = lambda keywords: map(edit, inbound(keywords))
    return platform


def _long_handles(platform):
    """The platform, with every inbound author padded to 15 characters, the
    longest handle Twitter allows. The population knows no padded handle, so
    no one reacts to a call."""
    return _edited(platform, lambda item: replace(item, author=item.author.ljust(15, "_")))


def test_a_call_too_long_to_post_aborts_its_group_and_the_run_goes_on(tmp_path):
    # Three 15-character handles push the loss and gain calls past 140
    # characters: composing them succeeds, the platform refuses them, and
    # each is logged as the abort of its group.
    out = tmp_path / "campaign.log"
    with EventLogWriter(str(out)) as writer:
        orchestrator = Orchestrator(_SEED21, _long_handles(build_simulated_platform(_SEED21)), writer)
        orchestrator.run()
    events = validate_events(read_events(str(out)))
    assert events == writer.events
    assert Counter(e.kind for e in events) == {
        EventKind.OUTBOUND_CALL: 12, EventKind.OUTBOUND_QUOTE: 6, EventKind.ABORT: 12,
    }
    aborts = [e for e in events if e.kind is EventKind.ABORT]
    assert {e.strategy for e in aborts} == {"loss", "gain"}
    assert all(len(e.members) == 3 and all(len(m) == 15 for m in e.members) for e in aborts)
    assert all(e.text.startswith("platform rejected Call: message is 1") for e in aborts)
    assert replace(replay(events), report=None) == orchestrator.state
    whole = out.read_bytes()
    out.write_bytes(whole[: len(whole) // 2])
    run_campaign(_SEED21, _long_handles(build_simulated_platform(_SEED21)), str(out), resume=True)
    assert out.read_bytes() == whole


def test_a_reply_or_a_retweet_toward_an_unknown_message_is_ignored(tmp_path, caplog):
    # The first reply and the first retweet name a message the bot never
    # posted: neither is logged, each is warned about, and the run goes on.
    edited = {}

    def edit(item):
        if item.kind in (ItemKind.REPLY_TO_BOT, ItemKind.RETWEET) and item.kind not in edited:
            item = edited[item.kind] = replace(item, in_reply_to="m9999999")
        return item

    out = tmp_path / "campaign.log"
    with EventLogWriter(str(out)) as writer:
        orchestrator = Orchestrator(_SEED21, _edited(build_simulated_platform(_SEED21), edit), writer)
        orchestrator.run()
    assert set(edited) == {ItemKind.REPLY_TO_BOT, ItemKind.RETWEET}
    events = validate_events(read_events(str(out)))
    assert events == writer.events
    logged = {e.message_id for e in events}
    assert not any(item.message_id in logged for item in edited.values())
    reply, retweet = edited[ItemKind.REPLY_TO_BOT], edited[ItemKind.RETWEET]
    assert f"reply {reply.message_id} references unknown conversation; ignored" in caplog.messages
    assert f"Retweet toward unknown message {retweet.in_reply_to}; ignored" in caplog.messages
    assert replace(replay(events), report=None) == orchestrator.state
    assert orchestrator.buffers.oldest() is None and len(orchestrator.schedule) == 0


def _surrogate_replies(platform):
    """The platform, with a lone surrogate appended to every reply's text,
    as a live adapter can decode one from a JSON escape."""
    return _edited(
        platform,
        lambda item: replace(item, text=item.text + "\ud800") if item.kind is ItemKind.REPLY_TO_BOT else item,
    )


def test_a_lone_surrogate_in_a_reply_is_logged_as_a_replacement_character(tmp_path):
    config = small_sim_config(seed=21, groups=3, population=500)
    out = tmp_path / "campaign.log"
    with EventLogWriter(str(out)) as writer:
        orchestrator = Orchestrator(config, _surrogate_replies(build_simulated_platform(config)), writer)
        orchestrator.run()
    events = validate_events(read_events(str(out)))
    assert events == writer.events
    replies = [e for e in events if e.kind is EventKind.INBOUND_REPLY]
    assert replies and all(e.text.endswith("\ufffd") and "\ud800" not in e.text for e in replies)
    assert replace(replay(events), report=None) == orchestrator.state
    whole = out.read_bytes()
    out.write_bytes(whole[: len(whole) // 2])
    run_campaign(config, _surrogate_replies(build_simulated_platform(config)), str(out), resume=True)
    assert out.read_bytes() == whole


# Items of a kind whose author gets a lone surrogate appended, by their
# index among the items of that kind. Not every author: then the quotas
# never fill, the stream never closes and the run never ends.
HOSTILE_HANDLES = {
    "every-5th-post": (ItemKind.PUBLIC_POST, lambda i: i % 5 == 0),
    "one-retweet": (ItemKind.RETWEET, lambda i: i == 0),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_HANDLES))
def test_a_handle_the_log_cannot_hold_is_ignored(name, tmp_path, caplog):
    kind, hostile = HOSTILE_HANDLES[name]
    seen, edited = Counter(), []

    def edit(item):
        if item.kind is kind and hostile(seen[kind]):
            item = replace(item, author=item.author + "\ud800")
            edited.append(item)
        seen[item.kind] += 1
        return item

    out = tmp_path / "campaign.log"
    with EventLogWriter(str(out)) as writer:
        orchestrator = Orchestrator(_SEED21, _edited(build_simulated_platform(_SEED21), edit), writer)
        orchestrator.run()
    events = validate_events(read_events(str(out)))
    assert events == writer.events
    assert replace(replay(events), report=None) == orchestrator.state
    assert edited and not any("\ud800" in event.actor for event in events)
    logged = {event.message_id for event in events}
    assert not any(item.message_id in logged for item in edited)
    if kind is ItemKind.RETWEET:
        assert f"Retweet {edited[0].message_id} by a handle the log cannot hold; ignored" in caplog.messages


def test_a_run_stops_at_an_event_its_reader_would_refuse(tmp_path):
    # The platform hands out a message id twice: its 5th post returns the
    # id of its 2nd. The run raises before it writes that post's event, so
    # what it leaves is a log that validates.
    platform = build_simulated_platform(_SEED21)
    post, ids = platform.post, []

    def reusing_post(message):
        ids.append(post(message))
        return ids[1] if len(ids) == 5 else ids[-1]

    platform.post = reusing_post
    out = tmp_path / "live.log"
    with pytest.raises(MalformedLog, match="^message m0000002 already in the log$"):
        run_campaign(_SEED21, platform, str(out))
    events = read_events(str(out))
    assert len(events) == 4
    assert validate_events(events) == events


def test_an_event_the_log_cannot_hold_is_neither_folded_nor_written(tmp_path):
    # The first retweet's id holds a lone surrogate, which UTF-8 cannot
    # encode: the run stops at that event, and the live state is still the
    # fold of the log it wrote.
    seen = []

    def edit(item):
        if item.kind is ItemKind.RETWEET:
            seen.append(item)
            if len(seen) == 1:
                item = replace(item, message_id=item.message_id + "\ud800")
        return item

    out = tmp_path / "campaign.log"
    with EventLogWriter(str(out)) as writer:
        orchestrator = Orchestrator(_SEED21, _edited(build_simulated_platform(_SEED21), edit), writer)
        with pytest.raises(ValueError, match="^seq 11: cannot be logged"):
            orchestrator.run()
    events = read_events(str(out))
    assert events == writer.events and len(events) == 10
    assert orchestrator.state.last_seq == 10
    assert replace(replay(events), report=None) == orchestrator.state


# The log of the seed-5 small campaign, pinned: a change that alters what a
# run writes must update these values and say so in CHANGES.md.
SMALL_CAMPAIGN_LOG = (438, 96_821, "4bf9731d25373809007e3ac605c0fa7f45424587a35ce8419f6fb4a0adf76ab5")
# The same campaign with agents that reply and interact often, under one
# float propensity for every arm instead of the profile's per-arm mappings.
REPLY_HEAVY_LOG = (2_498, 522_319, "c3dba21ddf628ef316526ab56d54419a93f0fefa1c181f186acae1cd02d09809")
REPLY_HEAVY_SIMULATION = {"reply_propensity": 0.9, "mean_turns": 6, "interaction_propensity": 0.4}
# The seed-7 campaign of the benchmark's scan workload (perfbench/workloads.py
# ``scan_config``): 100 groups per arm and topic, 3,000 agents.
SCAN_LOG = (5_023, 1_118_755, "d926d3cff95fb63163eceae5b4ea55fd42f488a465ff6fdb73be524115d75041")


def test_small_campaign_log_matches_golden(tmp_path):
    small = small_sim_config()
    for name, config, golden in (
        ("small", small, SMALL_CAMPAIGN_LOG),
        ("reply_heavy", replace(small, simulation={**small.simulation, **REPLY_HEAVY_SIMULATION}),
         REPLY_HEAVY_LOG),
        ("scan", small_sim_config(seed=7, groups=100, population=3000), SCAN_LOG),
    ):
        path = tmp_path / f"{name}.log"
        events = run_campaign(config, build_simulated_platform(config), str(path))
        data = path.read_bytes()
        assert (len(events), len(data), hashlib.sha256(data).hexdigest()) == golden


# Seed-5 small campaigns whose 60 s partial-group timeout fires inside the
# loop: dispatch_partial makes 123 stale partial calls and 6 solo calls of
# ready groups stuck waiting for a batch peer.
STALE_FLUSH_LOGS = {
    "dispatch_partial": (473, 108_351, "3f7cd324664911b8f2f207c03fe5456b14a0586f9b4e289ab96deb986f2ec802"),
    "discard": (30, 6_555, "518cf8a607bcebabd9218f6473dc57cab9f1a355e0260131341b5b2b1bae4f2a"),
}


@pytest.mark.parametrize("policy", sorted(STALE_FLUSH_LOGS))
def test_stale_flush_log_matches_golden(policy, tmp_path):
    config = replace(
        small_sim_config(), partial_groups=model.PartialGroupPolicy(policy=policy, timeout_s=60)
    )
    out = tmp_path / "campaign.log"
    events = run_campaign(config, build_simulated_platform(config), str(out))
    data = out.read_bytes()
    assert (len(events), len(data), hashlib.sha256(data).hexdigest()) == STALE_FLUSH_LOGS[policy]


def test_deterministic_rerun_byte_identical(tmp_path):
    config = small_sim_config(seed=21, groups=3, population=500)
    logs = []
    for name in ("a.log", "b.log"):
        platform = build_simulated_platform(config)
        run_campaign(config, platform, str(tmp_path / name))
        logs.append((tmp_path / name).read_bytes())
    assert logs[0] == logs[1]


def test_an_invalid_config_is_refused_before_its_log_is_opened(tmp_path):
    path = tmp_path / "campaign.log"
    path.write_bytes(b"an existing log\n")
    config = small_sim_config(groups=1, population=200)
    invalid = [
        (replace(config, group_size=0), r"group_size: must be at least 1"),
        # Built in Python, a config is held to the types the codec checks.
        (
            replace(config, jitter=model.JitterBounds(max_delay=math.inf)),
            r"jitter\.max_delay: expected int, got float",
        ),
    ]
    for bad, message in invalid:
        for resume in (False, True):
            with pytest.raises(CampaignError, match=f"^invalid config: {message}$"):
                _run(bad, path, resume=resume)
            assert path.read_bytes() == b"an existing log\n"


# -- resume by re-execution ------------------------------------------------------------------

def _resumable(seed=9):
    """The campaign the resume tests cut: seed 9's uninterrupted log runs
    for about 7.2 virtual hours."""
    return small_sim_config(seed=seed, groups=4, population=800)


def _run(config, path, **kwargs):
    return run_campaign(config, build_simulated_platform(config), str(path), **kwargs)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The bytes of a seed's uninterrupted resumable log, made once."""
    logs = {}

    def log(seed=9):
        if seed not in logs:
            path = tmp_path_factory.mktemp("uninterrupted") / "campaign.log"
            _run(_resumable(seed), path)
            logs[seed] = path.read_bytes()
        return logs[seed]

    return log


@pytest.mark.parametrize("seed", [9, 11, 13])
def test_resume_meets_every_quota_exactly(seed, tmp_path, uninterrupted, monkeypatch):
    # The half-hour cut falls while calls are in flight, and conversations
    # opened before it are still getting replies.
    config = _resumable(seed)
    out = tmp_path / "cut.log"
    _run(config, out, max_hours=0.5)
    synced_dirs = []
    fsync = os.fsync

    def recording_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            synced_dirs.append(fd)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    events = _run(config, out, resume=True)
    # The replace of the log is made durable by a sync of its directory,
    # which is closed again.
    (directory,) = synced_dirs
    with pytest.raises(OSError):
        os.fstat(directory)
    calls = Counter((e.topic, e.strategy) for e in events if e.kind is EventKind.OUTBOUND_CALL)
    quota = config.groups_per_strategy_per_topic
    assert calls == {(topic, arm): quota for topic in ("corruption", "impunity") for arm in ARMS}
    assert out.read_bytes() == uninterrupted(seed)


@pytest.mark.parametrize("max_hours", [0.2, 1.0])
def test_a_deadline_cut_is_a_prefix_of_the_uninterrupted_log(max_hours, tmp_path, uninterrupted):
    out = tmp_path / "cut.log"
    events = _run(_resumable(), out, max_hours=max_hours)
    cut = out.read_bytes()
    assert 0 < len(cut) < len(uninterrupted()) and uninterrupted().startswith(cut)
    counts = Counter({arm: 0 for arm in ARMS})
    for event in events:
        if event.kind is EventKind.OUTBOUND_CALL:
            counts[event.strategy] += 1
            assert max(counts.values()) - min(counts.values()) <= 1


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from([9, 11, 13]), by_deadline=st.booleans(), share=st.floats(0.0, 1.0))
@example(seed=9, by_deadline=False, share=0.5)
@example(seed=9, by_deadline=True, share=0.0625)
def test_resume_after_any_cut_rebuilds_the_uninterrupted_log(
    seed, by_deadline, share, uninterrupted, tmp_path_factory
):
    # A crash cuts the log at any byte; a deadline stops the run at any
    # virtual time up to 12 hours, past the end of each of these runs.
    config = _resumable(seed)
    out = tmp_path_factory.mktemp("cut") / "campaign.log"
    whole = uninterrupted(seed)
    if by_deadline:
        _run(config, out, max_hours=12 * share)
    else:
        out.write_bytes(whole[: int(len(whole) * share)])
    _run(config, out, resume=True)
    assert out.read_bytes() == whole


def test_resume_on_another_seed_diverges_at_the_first_event(tmp_path):
    out = tmp_path / "cut.log"
    _run(_resumable(), out, max_hours=0.5)
    cut = out.read_bytes()
    with pytest.raises(MalformedLog, match="^resume diverged at seq 1$"):
        _run(_resumable(11), out, resume=True)
    assert out.read_bytes() == cut


class _LiveStub(StubPlatform):
    """An adapter that does not replay, as a live network's stream does not;
    counts the calls of its ``post``."""

    replayable = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.post_calls = 0

    def post(self, message) -> str:
        self.post_calls += 1
        return super().post(message)


def test_resume_refuses_a_platform_that_does_not_replay(tmp_path):
    out = tmp_path / "cut.log"
    _run(_resumable(), out, max_hours=0.5)
    with out.open("ab") as fh:
        fh.write(b'{"seq":')  # a torn tail, which a resume would drop
    cut = out.read_bytes()
    platform = _LiveStub(_posts(6))
    with pytest.raises(CampaignError, match="^cannot resume on _LiveStub: it does not replay its stream$"):
        run_campaign(_resumable(), platform, str(out), resume=True)
    assert platform.post_calls == 0
    assert out.read_bytes() == cut


def test_resume_that_stops_before_the_cut_fails(tmp_path):
    config = _resumable()
    out = tmp_path / "cut.log"
    _run(config, out, max_hours=1.0)
    early = _run(config, tmp_path / "early.log", max_hours=0.2)
    with pytest.raises(MalformedLog, match=f"^resume stopped before seq {len(early) + 1} of the log$"):
        _run(config, out, resume=True, max_hours=0.2)


def test_resume_logs_every_post(tmp_path):
    config = _resumable()
    out = tmp_path / "resumable.log"
    _run(config, out, max_hours=0.2)
    platform = build_simulated_platform(config)
    posted = []
    post = platform.post

    def recording_post(message):
        posted.append(post(message))
        return posted[-1]

    platform.post = recording_post
    events = run_campaign(config, platform, str(out), resume=True)
    # The re-executed run posts again what the cut log holds, and the
    # joined log holds every post once.
    logged = Counter(e.message_id for e in events if e.kind in OUTBOUND_KINDS)
    assert logged == {message_id: 1 for message_id in posted}
    assert validate_events(events) == events


# Runs with nothing left to post at a one-hour cut, and the calls their cut
# logs: seed 9 has logged all 32 of its calls; under ``discard`` with a 1 s
# timeout every target is dropped before its group fills, so nothing is
# ever posted.
DRAINED_AT_CUT = {
    "every_call_logged": (_resumable(), 32),
    "every_group_discarded": (
        replace(
            small_sim_config(groups=1, population=200),
            partial_groups=model.PartialGroupPolicy(policy="discard", timeout_s=1),
        ),
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(DRAINED_AT_CUT))
def test_resume_with_nothing_left_to_post_ends_without_a_deadline(name, tmp_path):
    # The resumed run must drain and stop on its own. It runs in a child
    # process, so that a run which never ends fails the test.
    config, calls = DRAINED_AT_CUT[name]
    out = tmp_path / "cut.log"
    first = _run(config, out, max_hours=1.0)
    assert sum(e.kind is EventKind.OUTBOUND_CALL for e in first) == calls
    config_path = tmp_path / "config.yaml"
    model.dump_config(config, str(config_path))
    script = (
        "import sys\n"
        "from campaignkit.model import load_config\n"
        "from campaignkit.orchestrator import build_simulated_platform, run_campaign\n"
        "config = load_config(sys.argv[1])\n"
        "run_campaign(config, build_simulated_platform(config), sys.argv[2], resume=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(campaignkit.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-c", script, str(config_path), str(out)], env=env, timeout=60, check=True
    )
    events = read_events(str(out))
    assert sum(e.kind is EventKind.OUTBOUND_CALL for e in events) == calls
    assert validate_events(events) == events


# The first two events of the log below, pinned: its abort names the
# rejected group under "members", between "q" and "text".
ABORTED_CALL_LOG = (2, 444, "d815b12719834ae9d3d51e8d07c7ae20a7a8f69b66d7c2eb385d6d8ee63a2a2c")


def test_resume_after_an_aborted_call_opens_a_new_conversation(tmp_path):
    config = _single_arm_config()
    # The aborted group posts again before three newcomers: only the
    # newcomers are called.
    newcomers = [public_post(f"new{i}", "no mas corrupcion", 6_000_000 + i * 1000) for i in range(3)]
    posts = _posts(6) + _posts(3, start_ts=5_000_000) + newcomers

    def platform():
        return _rejecting(StubPlatform(posts), lambda message: message.conversation_id == "c000001")

    out = tmp_path / "aborted.log"
    with EventLogWriter(str(out)) as writer:
        orchestrator = Orchestrator(config, platform(), writer)
        orchestrator.run()
    # The aborted group is charged against the quota, like the called ones.
    assert orchestrator.allocator.assigned[("corruption", config.strategies[0].id)] == 9
    whole = out.read_bytes()
    cut = b"".join(whole.splitlines(keepends=True)[:2])
    assert (2, len(cut), hashlib.sha256(cut).hexdigest()) == ABORTED_CALL_LOG
    out.write_bytes(cut)
    events = run_campaign(config, platform(), str(out), resume=True)
    assert out.read_bytes() == whole
    assert [(e.kind, e.conversation_id) for e in events[:2]] == [
        (EventKind.ABORT, "c000001"),
        (EventKind.OUTBOUND_CALL, "c000002"),
    ]
    aborted = replay(events).records["c000001"]
    assert (aborted.members, aborted.closed) == (("user00", "user01", "user02"), True)
    calls = [e for e in events[2:] if e.kind is EventKind.OUTBOUND_CALL]
    assert [e.conversation_id for e in calls] == ["c000003"]
    assert conversation_members(calls)["c000003"] == ("new0", "new1", "new2")


def test_resume_after_a_cut_between_out_of_order_calls(tmp_path, uninterrupted):
    out = tmp_path / "cut.log"
    events = _run(_resumable(), out)
    first_call = next(e for e in events if e.kind is EventKind.OUTBOUND_CALL)
    assert first_call.conversation_id == "c000002"  # c000001 is posted later
    write_events(events[: events.index(first_call) + 1], str(out))
    events = _run(_resumable(), out, resume=True)
    calls = Counter(e.conversation_id for e in events if e.kind is EventKind.OUTBOUND_CALL)
    assert max(calls.values()) == 1
    assert out.read_bytes() == uninterrupted()


# Runs that have sends scheduled just past the deadline: seed 7 four calls
# and a quote due 3.7–12.2 s after it, seed 1 five messages due at least
# 8.3 s after it. None of them may be posted.
@pytest.mark.parametrize("seed, max_hours", [(7, 0.5), (1, 0.75)])
def test_a_deadline_posts_nothing_due_after_it(seed, max_hours, tmp_path):
    config = small_sim_config(seed=seed, groups=3, population=600)
    start = build_simulated_platform(config).now_ms()
    cut = _run(config, tmp_path / "cut.log", max_hours=max_hours)
    assert cut and max(e.ts for e in cut) <= start + max_hours * 3_600_000
    _run(config, tmp_path / "whole.log")
    whole = (tmp_path / "whole.log").read_bytes()
    assert len((tmp_path / "cut.log").read_bytes()) < len(whole)
    assert whole.startswith((tmp_path / "cut.log").read_bytes())


def _torn_on_another_seed(out):
    with out.open("ab") as fh:
        fh.write(b'{"seq":999,"ts":')
    return _resumable(11), build_simulated_platform(_resumable(11)), {}, "^resume diverged at seq 1$"


def _live_platform(out):
    return _resumable(), _LiveStub(_posts(6)), {}, "^cannot resume on _LiveStub"


def _deadline_before_the_cut(out):
    return _resumable(), build_simulated_platform(_resumable()), {"max_hours": 0.1}, "^resume stopped before seq "


def _corrupt_middle_line(out):
    lines = out.read_bytes().split(b"\n")
    lines[5] = lines[5].replace(b'"seq":6,', b'"seq":"6",', 1)
    out.write_bytes(b"\n".join(lines))
    return _resumable(), build_simulated_platform(_resumable()), {}, "^resume diverged at seq 6$"


@pytest.mark.parametrize(
    "failure", [_live_platform, _torn_on_another_seed, _deadline_before_the_cut, _corrupt_middle_line]
)
def test_a_failed_resume_leaves_its_log_untouched(failure, tmp_path):
    out = tmp_path / "cut.log"
    _run(_resumable(), out, max_hours=0.5)
    config, platform, kwargs, message = failure(out)
    before = out.read_bytes()
    with pytest.raises(CampaignError, match=message):
        run_campaign(config, platform, str(out), resume=True, **kwargs)
    assert out.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cut.log"]


@pytest.mark.parametrize("max_hours", [0.2, 1.0])
def test_allocator_capacity_matches_assigned_at_a_deadline(max_hours):
    config = small_sim_config(seed=9, groups=2, population=800)
    with EventLogWriter(None) as writer:
        orchestrator = Orchestrator(config, build_simulated_platform(config), writer)
        orchestrator.run(max_hours=max_hours)
    allocator = orchestrator.allocator
    open_arms = {
        topic: [arm for arm in ARMS if allocator.assigned[(topic, arm)] < allocator.quota]
        for topic in allocator.topics
    }
    for topic, arms in open_arms.items():
        assert allocator.has_capacity(topic) is bool(arms)
    assert allocator.any_capacity() is any(open_arms.values())


def _cut_run(tmp_path):
    config = _resumable()
    out = tmp_path / "torn.log"
    _run(config, out, max_hours=0.2)
    return config, out


def test_resume_drops_a_torn_final_line(tmp_path, caplog, uninterrupted):
    config, out = _cut_run(tmp_path)
    data = out.read_bytes()
    out.write_bytes(data[:-40])
    with pytest.raises(MalformedLog):
        read_events(str(out))  # analysis stays strict
    with caplog.at_level("WARNING", logger="campaignkit.orchestrator"):
        events = _run(config, out, resume=True)
    torn = [r for r in caplog.records if "torn final line" in r.getMessage()]
    assert len(torn) == 1
    assert out.read_bytes() == uninterrupted()  # the dropped event comes back as it was
    assert read_events(str(out)) == events


def test_resume_still_rejects_a_bad_line_before_the_end(tmp_path):
    config, out = _cut_run(tmp_path)
    lines = out.read_bytes().split(b"\n")
    lines[3] = lines[3][:-40]
    out.write_bytes(b"\n".join(lines))
    bad = out.read_bytes()
    with pytest.raises(MalformedLog, match="^resume diverged at seq 4$"):
        _run(config, out, resume=True)
    assert out.read_bytes() == bad


def test_resume_rejects_a_line_that_is_not_an_event(tmp_path):
    config, out = _cut_run(tmp_path)
    lines = out.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b'"seq":4,', b'"seq":null,', 1)
    out.write_bytes(b"\n".join(lines))
    bad = out.read_bytes()
    with pytest.raises(MalformedLog, match="^resume diverged at seq 4$"):
        _run(config, out, resume=True)
    assert out.read_bytes() == bad


# -- the public stream's close ------------------------------------------------------------------

# Seed-5, 9, 11 and 13 small campaigns, and one whose quotas fill before its
# first call goes out, so that it posts follow-ups while the platform's queue
# is empty and their replies come after the stream has stopped once. In the
# last, stale partial calls leave counts off a multiple of three, so partial
# buffers still wait when the stream stops: reactions come within a minute,
# and the buffers time out after ten.
STREAM_END_RUNS = {
    "seed5": small_sim_config(),
    **{f"seed{seed}": _resumable(seed) for seed in (9, 11, 13)},
    "dry": small_sim_config(groups=1, population=200),
    "partial_tail": replace(
        small_sim_config(groups=1, population=200),
        simulation={"profile": "reference", "population": 200,
                    "reply_delay": {"min_s": 10, "max_s": 60}},
        partial_groups=model.PartialGroupPolicy(policy="dispatch_partial", timeout_s=600),
    ),
}


@pytest.mark.parametrize("name", sorted(STREAM_END_RUNS))
def test_the_stream_is_read_to_the_end(name, tmp_path):
    config = STREAM_END_RUNS[name]
    platform = build_simulated_platform(config)
    dry = {}  # kind of each message posted while the queue was empty
    post = platform.post

    def recording_post(message):
        empty = not platform._heap
        message_id = post(message)
        if empty:
            dry[message_id] = message.kind
        return message_id

    platform.post = recording_post
    events = run_campaign(config, platform, str(tmp_path / "campaign.log"))
    assert platform._heap == []  # no reaction left unread, no post drawn
    answered = {e.in_reply_to for e in events if e.in_reply_to in dry}
    if name == "dry":
        assert any(dry[m] is MessageKind.FOLLOWUP for m in answered)
    if name == "partial_tail":
        partial = {e.message_id for e in events if e.partial}
        assert answered & partial


# The seed-5 small campaign's log on a platform whose close does nothing:
# its public posts go on to the drain, as before the close existed.
OPEN_STREAM_LOG = (448, 99_190, "6bf2905aaaae8a967c2c930b3c0062d104d94b05267c0b3b87db88d75268e8e3")


def test_the_close_leaves_the_log_before_it_unchanged(tmp_path):
    config = small_sim_config()
    logs, closed_after = {}, []
    for name in ("closed", "open"):
        platform = build_simulated_platform(config)
        out = tmp_path / f"{name}.log"
        with EventLogWriter(str(out)) as writer:
            close = platform.close_public

            def recording_close():
                closed_after.append(len(writer.events))
                close()

            if name == "closed":
                platform.close_public = recording_close
            else:
                keep_stream_open(platform)
            Orchestrator(config, platform, writer).run()
        _assert_one_touch(writer.events)
        _assert_balance(writer.events)
        _assert_budget(config, writer.events)
        _assert_quotas(config, writer.events)
        logs[name] = out.read_bytes()
    [seq] = closed_after
    closed, open_ = (logs[name].splitlines(keepends=True) for name in ("closed", "open"))
    assert closed[:seq] == open_[:seq] and closed != open_
    assert (len(open_), len(logs["open"]), hashlib.sha256(logs["open"]).hexdigest()) == OPEN_STREAM_LOG


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_a_stream_that_never_stops_drains_only_when_nothing_waits(seed, tmp_path):
    # One group per arm and few, slow posters: partial groups wait out a
    # timeout longer than the drain window, past the last quota.
    config = small_sim_config(seed=seed, groups=1, population=40)
    config = replace(
        config,
        simulation={**config.simulation, "post_rate": 0.02},
        partial_groups=model.PartialGroupPolicy(timeout_s=14 * 3600),
    )
    platform = keep_stream_open(build_simulated_platform(config))
    with EventLogWriter(str(tmp_path / "campaign.log")) as writer:
        orchestrator = Orchestrator(config, platform, writer)
        orchestrator.run()
    bot = {e.message_id for e in writer.events if e.kind in OUTBOUND_KINDS}
    unread = [p for _ts, _n, tag, p in platform._heap if tag == "item" and p.in_reply_to in bot]
    assert unread == []
    assert platform.now_ms() - orchestrator.state.last_outbound_ts > DRAIN_WINDOW_MS
