import random

from campaignkit import fixtures
from campaignkit.eventlog import replay
from campaignkit.model import ContactState
from campaignkit.targeting import AdmitResult, ContactRegistry, match_target

from conftest import public_post

TOPICS = fixtures.default_topics()


def test_match_corrupcion_post():
    item = public_post("maria", "odio la corrupcion en mi ciudad", 1000)
    target = match_target(item, TOPICS)
    assert target is not None
    assert target.topic == "corruption"
    assert target.matched_keyword == "corrupcion"
    assert target.matched_message_id == item.message_id


def test_match_accented_variant():
    item = public_post("maria", "la Corrupción nos ahoga", 1000)
    target = match_target(item, TOPICS)
    assert target is not None and target.topic == "corruption"


def test_no_keyword_no_match():
    assert match_target(public_post("maria", "nice weather today", 1000), TOPICS) is None


def test_bot_self_posts_excluded():
    item = public_post("BOT", "hablemos de corrupcion", 1000)
    assert match_target(item, TOPICS) is None


def test_first_topic_wins_for_dual_topic_posts():
    item = public_post("maria", "corrupcion e impunidad van juntas", 1000)
    target = match_target(item, TOPICS)
    assert target.topic == "corruption"


def test_admit_fresh_then_duplicate():
    registry = ContactRegistry()
    target = match_target(public_post("maria", "corrupcion", 1000), TOPICS)
    assert registry.admit(target) is AdmitResult.ADMITTED
    assert registry.state("maria") is ContactState.QUEUED
    again = match_target(public_post("maria", "mas corrupcion", 2000), TOPICS)
    assert registry.admit(again) is AdmitResult.DUPLICATE_REJECTED


def test_admit_rejects_after_registry_reload(reference_log):
    # Resume reloads the registry by replaying the log: a user the log shows
    # as called to action is never admitted again.
    reloaded = replay(reference_log).registry()
    assert reloaded.state("d0000x1") is ContactState.CONTACTED
    target = match_target(public_post("d0000x1", "corrupcion otra vez", 3000), TOPICS)
    assert reloaded.admit(target) is AdmitResult.DUPLICATE_REJECTED


def test_contact_state_never_moves_backwards():
    registry = ContactRegistry()
    registry.mark_replied("maria")
    registry.mark_contacted(["maria"])
    assert registry.state("maria") is ContactState.REPLIED


def test_admitted_users_unique_over_random_streams():
    # Streams with heavy author repetition: the multiset of admitted user ids
    # never contains a duplicate.
    for seed in range(30):
        rng = random.Random(seed)
        registry = ContactRegistry()
        admitted = []
        authors = [f"user{i}" for i in range(15)]
        for ts in range(300):
            author = rng.choice(authors)
            text = rng.choice(["abajo la corrupcion", "impunidad total", "hola mundo"])
            target = match_target(public_post(author, text, 1000 + ts), TOPICS)
            if target is None:
                continue
            if registry.admit(target) is AdmitResult.ADMITTED:
                admitted.append(target.user_id)
        assert len(admitted) == len(set(admitted))
