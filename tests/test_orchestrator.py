import hashlib
import random
from collections import Counter

import pytest

from campaignkit import fixtures, model
from campaignkit.eventlog import (
    EventLogWriter,
    conversation_members,
    read_events,
    replay,
    validate_events,
)
from campaignkit.model import ContactState, EventKind, OUTBOUND_KINDS, replace
from campaignkit.orchestrator import (
    AllQuotasExhausted,
    ArmAllocator,
    GroupBuffer,
    Orchestrator,
    build_simulated_platform,
    run_campaign,
)
from campaignkit.platform import RateLimited
from campaignkit.strategy import MessageKind

from conftest import StubPlatform, public_post, small_sim_config

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
    allocator = ArmAllocator(ARMS, ("corruption",), users_per_topic_arm=2, rng=random.Random(3))
    assigned = [allocator.assign("corruption") for _ in range(6)]
    # Three arms now full after six assignments? No: blocks keep them even.
    # Fill all but one arm completely by hand instead.
    allocator = ArmAllocator(ARMS, ("corruption",), users_per_topic_arm=1, rng=random.Random(3))
    for arm in ("direct", "loss", "gain"):
        allocator.assigned[("corruption", arm)] = 1
    assert allocator.assign("corruption") == "solidarity"
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

def _target(user, topic="corruption", arm="direct"):
    from campaignkit.model import TargetUser

    return TargetUser(
        user_id=user, matched_keyword="corrupcion", matched_message_id=f"p-{user}",
        topic=topic, assigned_strategy=arm,
    )


def test_buffer_emits_group_at_size():
    buffer = GroupBuffer(group_size=3)
    assert buffer.add(_target("a"), now=0) is None
    assert buffer.add(_target("b"), now=1) is None
    group = buffer.add(_target("c"), now=2)
    assert [t.user_id for t in group] == ["a", "b", "c"]
    assert buffer.add(_target("d"), now=3) is None  # buffer restarted


def test_buffer_stale_flush():
    buffer = GroupBuffer(group_size=3)
    buffer.add(_target("a"), now=0)
    buffer.add(_target("b"), now=5_000)
    assert buffer.stale(now=100_000, timeout_ms=3_600_000) == []
    flushed = buffer.stale(now=4_000_000, timeout_ms=3_600_000)
    assert len(flushed) == 1
    topic, arm, targets = flushed[0]
    assert (topic, arm) == ("corruption", "direct")
    assert [t.user_id for t in targets] == ["a", "b"]


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


def test_partial_group_dispatched_and_flagged():
    config = _single_arm_config()
    platform = StubPlatform(_posts(2))
    _orch, events = _run_with_stub(config, platform)
    calls = [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    assert len(calls) == 1
    assert calls[0].partial is True
    mentions = conversation_members(events)[calls[0].conversation_id]
    assert len(mentions) == 2


def test_partial_group_discard_policy():
    config = _single_arm_config(partial_groups=model.PartialGroupPolicy(policy="discard"))
    platform = StubPlatform(_posts(2))
    orchestrator, events = _run_with_stub(config, platform)
    assert [e for e in events if e.kind is EventKind.OUTBOUND_CALL] == []
    assert orchestrator.registry.state("user00") is ContactState.QUEUED


def test_platform_rejection_aborts_and_keeps_users_contacted():
    config = _single_arm_config()
    platform = StubPlatform(_posts(3), reject_all=True)
    orchestrator, events = _run_with_stub(config, platform)
    aborts = [e for e in events if e.kind is EventKind.ABORT]
    assert len(aborts) == 1
    assert not [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    for user in ("user00", "user01", "user02"):
        assert orchestrator.registry.state(user) is ContactState.CONTACTED


def test_rate_limited_post_is_retried():
    config = _single_arm_config()
    platform = StubPlatform(_posts(3), rate_limit_first=2)
    _orch, events = _run_with_stub(config, platform)
    calls = [e for e in events if e.kind is EventKind.OUTBOUND_CALL]
    assert len(calls) == 1  # eventually went out, exactly once
    assert validate_events(events)


class _QuoteRateLimitedOnce(StubPlatform):
    """Rate-limits the first attempt at a quote, after its call went out."""

    quote_limited = False

    def post(self, message, *, turn: int = 0) -> str:
        if message.kind is MessageKind.QUOTE and not self.quote_limited:
            self.quote_limited = True
            raise RateLimited(retry_after_ms=1000)
        return super().post(message, turn=turn)


def test_rate_limited_quote_retry_keeps_the_call_record():
    solidarity = next(s for s in fixtures.default_strategies("en") if s.id == "solidarity")
    config = _single_arm_config(strategies=(solidarity,))
    platform = _QuoteRateLimitedOnce(_posts(3))
    orchestrator, events = _run_with_stub(config, platform)
    assert platform.quote_limited
    outbound = [e for e in events if e.kind in OUTBOUND_KINDS]
    assert [e.kind for e in outbound] == [EventKind.OUTBOUND_CALL, EventKind.OUTBOUND_QUOTE]
    record = orchestrator.records[outbound[0].conversation_id]
    assert record.sent_messages == [e.message_id for e in outbound]


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


def test_one_touch_end_to_end(small_campaign):
    _config, events, _path = small_campaign
    mentioned = []
    for users in conversation_members(events).values():
        mentioned.extend(users)
    assert len(mentioned) == len(set(mentioned))


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


def test_arm_balance_at_every_prefix(small_campaign):
    _config, events, _path = small_campaign
    counts = Counter()
    for event in events:
        if event.kind is EventKind.OUTBOUND_CALL:
            counts[event.strategy] += 1
            assert max(counts.values()) - min(counts[a] for a in ARMS) <= 1


def test_quotas_met_exactly(small_campaign):
    config, events, _path = small_campaign
    calls = Counter(
        (e.topic, e.strategy) for e in events if e.kind is EventKind.OUTBOUND_CALL
    )
    for topic in ("corruption", "impunity"):
        for arm in ARMS:
            assert calls[(topic, arm)] == config.groups_per_strategy_per_topic


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


def test_replay_reconstructs_registry_and_records(small_campaign, tmp_path):
    config, events, path = small_campaign
    state = replay(events)
    platform = build_simulated_platform(config)
    with EventLogWriter(str(tmp_path / "rerun.log")) as writer:
        orchestrator = Orchestrator(config, platform, writer)
        orchestrator.run()
    assert replay(writer.events).registry() == state.registry()
    assert state.registry().items() == orchestrator.registry.items()


# The log of the seed-5 small campaign, pinned: a change that alters what a
# run writes must update these values and say so in CHANGES.md.
SMALL_CAMPAIGN_LOG = (448, 98_536, "13ebf5a8bfe5d52772b507863fe7c3e070bbcb3c8f51be46b3dbe65ced3568a1")


def test_small_campaign_log_matches_golden(small_campaign):
    _config, events, path = small_campaign
    data = path.read_bytes()
    assert (len(events), len(data), hashlib.sha256(data).hexdigest()) == SMALL_CAMPAIGN_LOG


def test_deterministic_rerun_byte_identical(tmp_path):
    config = small_sim_config(seed=21, groups=3, population=500)
    logs = []
    for name in ("a.log", "b.log"):
        platform = build_simulated_platform(config)
        run_campaign(config, platform, str(tmp_path / name))
        logs.append((tmp_path / name).read_bytes())
    assert logs[0] == logs[1]


def test_resume_continues_without_retargeting(tmp_path):
    config = small_sim_config(seed=9, groups=4, population=800)
    out = tmp_path / "resumable.log"
    platform = build_simulated_platform(config)
    run_campaign(config, platform, str(out), max_hours=0.2)
    first = read_events(str(out))
    assert first, "interrupted run should still have produced events"
    platform = build_simulated_platform(config, seed=1009)
    events = run_campaign(config, platform, str(out), resume=True)
    assert len(events) > len(first)
    assert validate_events(events)
    seqs = [e.seq for e in events]
    assert seqs == sorted(set(seqs))
    mentioned = []
    for users in conversation_members(events).values():
        mentioned.extend(users)
    assert len(mentioned) == len(set(mentioned))
