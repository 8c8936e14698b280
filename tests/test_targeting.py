import random

from hypothesis import given, strategies as st

from campaignkit import fixtures
from campaignkit.model import Topic
from campaignkit.targeting import AdmitResult, ContactRegistry, TopicKeywords, match_target
from campaignkit.text import fold

from conftest import public_post

TOPICS = TopicKeywords(fixtures.default_topics())


def test_match_corrupcion_post():
    item = public_post("maria", "odio la corrupcion en mi ciudad", 1000)
    assert match_target(item, TOPICS) == "corruption"


def test_match_accented_variant():
    item = public_post("maria", "la Corrupción nos ahoga", 1000)
    assert match_target(item, TOPICS) == "corruption"


def test_no_keyword_no_match():
    assert match_target(public_post("maria", "nice weather today", 1000), TOPICS) is None


def test_bot_self_posts_excluded():
    item = public_post("BOT", "hablemos de corrupcion", 1000)
    assert match_target(item, TOPICS) is None


def test_a_handle_the_log_cannot_hold_is_not_a_target():
    # A lone surrogate cannot be encoded as UTF-8; an accent or a non-BMP character can.
    assert match_target(public_post("maria\ud800", "corrupcion", 1000), TOPICS) is None
    for author in ("mar\u00eda", "maria\U0001F600"):
        assert match_target(public_post(author, "corrupcion", 1000), TOPICS) == "corruption"


def test_first_topic_wins_for_dual_topic_posts():
    item = public_post("maria", "corrupcion e impunidad van juntas", 1000)
    assert match_target(item, TOPICS) == "corruption"


def test_admit_fresh_then_duplicate():
    registry = ContactRegistry()
    assert registry.admit("maria") is AdmitResult.ADMITTED
    assert registry.admit("maria") is AdmitResult.DUPLICATE_REJECTED
    assert registry.admit("maria2") is AdmitResult.ADMITTED


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
            if match_target(public_post(author, text, 1000 + ts), TOPICS) is None:
                continue
            if registry.admit(author) is AdmitResult.ADMITTED:
                admitted.append(author)
        assert len(admitted) == len(set(admitted))


def _target_reference(text, topics):
    """The first topic with a keyword in the text, folding the text once
    per topic and every keyword it tries."""
    for topic in topics:
        for keyword in topic.keywords:
            if fold(keyword) in fold(text):
                return topic.name
    return None


_WORDS = ["corrupción", "Corrupcion", "IMPUNIDAD", "impunidad", "crimen", "Straße", "ß"]


@given(
    st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3), min_size=1, max_size=3),
    st.lists(st.sampled_from(_WORDS + ["hola", " ", "SS"]), max_size=4),
)
def test_match_target_matches_like_a_per_topic_scan(keyword_lists, words):
    topics = [Topic(f"t{i}", tuple(keywords)) for i, keywords in enumerate(keyword_lists)]
    text = " ".join(words)
    assert match_target(public_post("maria", text, 1000), TopicKeywords(topics)) == _target_reference(text, topics)
