import itertools
import json
import math
import random

import pytest

from campaignkit import fixtures
from campaignkit.analytics import (
    EmptyVocabulary,
    KeyTermReport,
    TermScore,
    compute_metrics,
    labels_to_map,
    mann_whitney_keyterms,
    merge_labels,
    read_labels,
    render_table,
    report_to_dict,
    write_labels,
)
from campaignkit.eventlog import replay
from campaignkit.model import CampaignError, LabelValue, VolunteerLabel
from campaignkit.simulator import derive_labels
from campaignkit.text import tokenize
from campaignkit.stats import DegenerateInput, cohen_kappa

ARMS = ("direct", "loss", "gain", "solidarity")


# -- reference table ---------------------------------------------------------------

def test_reference_log_reproduces_published_columns(reference_log):
    report = compute_metrics(reference_log, arms=ARMS)
    expected = {
        "direct": (94, 158, 94, 204, 81),
        "loss": (94, 80, 31, 53, 30),
        "gain": (94, 79, 27, 74, 43),
        "solidarity": (94, 120, 23, 92, 21),
    }
    for arm in report.arms:
        calls, followups, volunteers, replies, rate = expected[arm.strategy]
        assert arm.calls_to_action == calls
        assert arm.followups == followups
        assert arm.volunteers == volunteers
        assert arm.volunteer_replies == replies
        assert round(100 * arm.reply_rate) == rate
    assert report.total.volunteers == 175
    assert report.total.volunteer_replies == 423
    assert report.total.calls_to_action == 376


def test_reference_log_interaction_columns(reference_log):
    report = compute_metrics(reference_log, arms=ARMS)
    assert [a.bot_interactions for a in report.arms] == [90, 48, 57, 250]
    assert [a.volunteer_interactions for a in report.arms] == [274, 71, 85, 62]
    # Totals come from the columns, not from the (inconsistent) published sums.
    assert report.total.followups == 437
    assert report.total.bot_interactions == 445
    assert report.total.volunteer_interactions == 492


def test_solidarity_budget_weighting(reference_log):
    report = compute_metrics(reference_log, arms=ARMS)
    solidarity = report.arm("solidarity")
    assert solidarity.outbound_messages == 94 * 2 + 120 * 2
    assert solidarity.reply_rate == pytest.approx(92 / 428)


def test_empty_log_gives_all_zero_report():
    report = compute_metrics([])
    assert report.arms == ()
    assert report.total.outbound_messages == 0
    assert report.total.reply_rate == 0.0
    assert report.anova_volunteers is None


def test_metrics_identities(small_campaign):
    _config, events, _path = small_campaign
    report = compute_metrics(events, arms=ARMS)
    assert sum(a.volunteers for a in report.arms) == report.total.volunteers
    for arm in report.arms:
        assert 0 <= arm.reply_rate
        assert arm.volunteer_replies >= arm.volunteers


def test_metrics_idempotent_over_replay(small_campaign):
    _config, events, _path = small_campaign
    replay(events)  # replay consumes and validates; metrics must not care
    assert compute_metrics(events, arms=ARMS) == compute_metrics(events, arms=ARMS)


def test_anova_on_simulated_campaign_significant(small_campaign):
    _config, events, _path = small_campaign
    report = compute_metrics(events, arms=ARMS)
    assert report.anova_volunteers is not None
    assert report.anova_volunteers.df_between == 3
    assert report.anova_volunteers.p_value < 0.01


def test_render_table_mirrors_reference_numbers(reference_log):
    table = render_table(compute_metrics(reference_log, arms=ARMS))
    assert "81%" in table and "30%" in table and "43%" in table and "21%" in table
    assert "Calls to Action" in table
    assert "ANOVA" in table


def test_report_to_dict_is_json_serializable(reference_log):
    payload = report_to_dict(compute_metrics(reference_log, arms=ARMS))
    parsed = json.loads(json.dumps(payload))
    assert parsed["arms"][0]["strategy"] == "direct"
    assert parsed["arms"][0]["reply_rate"] == pytest.approx(204 / 252)


# -- labels ------------------------------------------------------------------------

def test_label_file_round_trip(tmp_path):
    labels = [
        VolunteerLabel("u1", LabelValue.ON_TOPIC, "coder_a"),
        VolunteerLabel("u2", LabelValue.OFF_TOPIC, "coder_a"),
    ]
    path = tmp_path / "labels.jsonl"
    write_labels(labels, str(path))
    assert read_labels(str(path)) == labels


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[1]", "VolunteerLabel: expected a mapping, got list"),
        ('{"user_id": 5, "label": "OnTopic", "coder_id": "a"}', "user_id: expected str, got int"),
        ('{"user_id": "u2", "label": "Maybe", "coder_id": "a"}', "label: expected one of"),
        ('{"user_id": "u2", "label": "OnTopic"}', "coder_id: missing required key"),
        ("{not json", "Expecting property name"),
    ],
    ids=["list", "int_user", "unknown_label", "missing_coder", "not_json"],
)
def test_bad_label_record_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "labels.jsonl"
    path.write_text('{"user_id": "u1", "label": "OnTopic", "coder_id": "a"}\n' + line + "\n")
    with pytest.raises(CampaignError) as info:
        read_labels(str(path))
    assert str(info.value).startswith(f"{path}:2: bad label record ({reason}")


def test_merge_labels_passthrough_and_tiebreak():
    a = {"u1": LabelValue.ON_TOPIC, "u2": LabelValue.ON_TOPIC}
    b = {"u1": LabelValue.ON_TOPIC, "u2": LabelValue.OFF_TOPIC}
    tiebreak = {"u2": LabelValue.OFF_TOPIC}
    merged = merge_labels(a, b, tiebreak)
    assert merged == {"u1": LabelValue.ON_TOPIC, "u2": LabelValue.OFF_TOPIC}
    # Full agreement never consults the tiebreaker.
    assert merge_labels(a, dict(a), {}) == a


def test_merge_labels_requires_tiebreaker_on_disagreement():
    a = {"u1": LabelValue.ON_TOPIC}
    b = {"u1": LabelValue.OFF_TOPIC}
    with pytest.raises(CampaignError):
        merge_labels(a, b, {})


def test_label_study_reproduces_reference_fractions():
    events, la, lb, lc = fixtures.build_label_study()
    merged = merge_labels(labels_to_map(la), labels_to_map(lb), labels_to_map(lc))
    report = compute_metrics(events, merged, arms=ARMS)
    expected = {"direct": 94, "loss": 74, "gain": 89, "solidarity": 82}
    for arm in report.arms:
        assert round(100 * arm.on_topic_fraction) == expected[arm.strategy]
    assert round(100 * report.total.on_topic_fraction) == 81


def test_simulated_labels_feed_metrics(small_campaign):
    _config, events, _path = small_campaign
    labels = labels_to_map(derive_labels(events))
    report = compute_metrics(events, labels, arms=ARMS)
    for arm in report.arms:
        assert arm.on_topic_fraction is not None
        assert 0.0 <= arm.on_topic_fraction <= 1.0


def test_kappa_fixture_matches_reported_agreement():
    labels_a, labels_b = fixtures.build_kappa_labels()
    assert len(labels_a) == 175
    agreements = sum(1 for u in labels_a if labels_a[u] == labels_b[u])
    assert agreements == 141
    assert cohen_kappa(labels_a, labels_b) == pytest.approx(0.62, abs=0.01)


# -- key terms -----------------------------------------------------------------------

def test_identical_corpora_score_half_everywhere():
    docs = ["uno dos tres", "dos tres cuatro", "tres cuatro uno"]
    report = mann_whitney_keyterms(docs, list(docs))
    assert all(s.score == pytest.approx(0.5) for s in report.group_a)
    assert all(s.score == pytest.approx(0.5) for s in report.group_b)


def test_planted_hashtag_recovered_at_rank_one():
    corpus_a = [f"vamos a marchar #x dia {i}" for i in range(4)]
    corpus_b = [f"vamos a marchar dia {i}" for i in range(4)]
    report = mann_whitney_keyterms(corpus_a, corpus_b)
    assert report.group_a[0].term == "#x"
    assert report.group_a[0].score == 1.0
    assert "#x" in report.key_terms_a


def test_key_terms_length_is_top_percent_of_vocabulary():
    corpus_a = [" ".join(f"worda{i}t{j}" for j in range(60)) for i in range(3)]
    corpus_b = [" ".join(f"wordb{i}t{j}" for j in range(60)) for i in range(3)]
    report = mann_whitney_keyterms(corpus_a, corpus_b)
    expected = math.ceil(0.01 * report.vocabulary_size)
    assert len(report.key_terms_a) == expected
    assert len(report.key_terms_b) == expected


def test_rankings_are_total_with_lexicographic_ties():
    docs_a = ["b a", "a b"]
    docs_b = ["c d", "d c"]
    report = mann_whitney_keyterms(docs_a, docs_b)
    assert [s.term for s in report.group_a[:2]] == ["a", "b"]
    assert len(report.group_a) == report.vocabulary_size


def test_empty_vocabulary_raises():
    with pytest.raises(EmptyVocabulary):
        mann_whitney_keyterms(["- -", "!"], ["?", "."])


def test_single_document_corpus_rejected():
    with pytest.raises(DegenerateInput):
        mann_whitney_keyterms(["hola"], ["adios", "hola"])


def _average_ranks(values):
    """Fractional ranking: 1-based ranks, ties share the mean of their ranks."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _dense_keyterms(corpus_a, corpus_b, top_fraction):
    """Reference key terms: every term's weight in every document, ranked
    across the union of documents with average ranks on ties, and
    rho = (R_A - n_A (n_A + 1) / 2) / (n_A n_B)."""
    docs_a = [tokenize(doc) for doc in corpus_a]
    docs_b = [tokenize(doc) for doc in corpus_b]
    vocabulary = sorted({t for doc in docs_a + docs_b for t in doc})

    def frequencies(docs):
        out = []
        for doc in docs:
            freq = {}
            for tok in doc:
                freq[tok] = freq.get(tok, 0.0) + 1.0
            out.append({tok: n / len(doc) for tok, n in freq.items()})
        return out

    freq_a, freq_b = frequencies(docs_a), frequencies(docs_b)
    n_a, n_b = len(docs_a), len(docs_b)
    scores_a, scores_b = [], []
    for term in vocabulary:
        ranks = _average_ranks(
            [f.get(term, 0.0) for f in freq_a] + [f.get(term, 0.0) for f in freq_b]
        )
        rho = (sum(ranks[:n_a]) - n_a * (n_a + 1) / 2.0) / (n_a * n_b)
        scores_a.append(TermScore(term, rho))
        scores_b.append(TermScore(term, 1.0 - rho))
    group_a = tuple(sorted(scores_a, key=lambda s: (-s.score, s.term)))
    group_b = tuple(sorted(scores_b, key=lambda s: (-s.score, s.term)))
    top = math.ceil(top_fraction * len(vocabulary))
    return KeyTermReport(
        group_a=group_a,
        group_b=group_b,
        key_terms_a=tuple(s.term for s in group_a[:top]),
        key_terms_b=tuple(s.term for s in group_b[:top]),
        vocabulary_size=len(vocabulary),
    )


def _zipf_corpora(seed, docs_per_side=40, vocabulary_size=300):
    """Seeded corpora from one Zipf-like vocabulary, plus terms found on one
    side only, empty documents and punctuation-only documents."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocabulary_size)]
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(vocabulary_size)))

    def side(only):
        docs = []
        for i in range(docs_per_side):
            if i % 13 == 5:
                docs.append("")
            elif i % 13 == 9:
                docs.append("¡!! ... ?")
            else:
                tokens = rng.choices(words, cum_weights=cum_weights, k=rng.randint(1, 30))
                tokens += rng.sample(only, rng.randint(0, 2))
                docs.append(" ".join(tokens) + rng.choice(["", ".", " !"]))
        return docs

    return side(["soloa", "#marcha", "ayuda"]), side(["solob", "#paro"])


@pytest.mark.parametrize("top_fraction", [0.01, 0.5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_keyterm_report_equals_dense_rank_reference(seed, top_fraction):
    corpus_a, corpus_b = _zipf_corpora(seed)
    assert mann_whitney_keyterms(corpus_a, corpus_b, top_fraction) == _dense_keyterms(
        corpus_a, corpus_b, top_fraction
    )
