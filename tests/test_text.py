import unicodedata

from hypothesis import given, strategies as st

from campaignkit.text import (
    FoldedKeywords,
    fold,
    format_mentions,
    match_keyword,
    mentions_in_text,
    tokenize,
)


def _fold_reference(text):
    decomposed = unicodedata.normalize("NFD", text.casefold())
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def test_fold_accents_and_case():
    assert fold("Corrupción") == "corrupcion"
    assert fold("IMPUNIDAD") == "impunidad"


@given(st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=127))))
def test_fold_matches_nfd_reference(text):
    assert fold(text) == _fold_reference(text)


def _match(text, keywords):
    return match_keyword(text, FoldedKeywords(keywords))


def test_match_keyword_folded_substring():
    assert _match("Ya basta de Corrupción aquí", ["corrupcion"]) == "corrupcion"
    assert _match("la impunidad reina", ["corrupcion", "impunidad"]) == "impunidad"
    assert _match("nothing to see", ["corrupcion"]) is None


def test_match_keyword_accented_keyword():
    assert _match("hablando de corrupcion", ["corrupción"]) == "corrupción"


def _match_reference(text, keywords):
    """Folds the text and every keyword it tries on each call."""
    haystack = fold(text)
    for keyword in keywords:
        if fold(keyword) in haystack:
            return keyword
    return None


_KEYWORDS = st.lists(
    st.one_of(
        st.text(min_size=1, max_size=8),
        st.sampled_from(["Corrupción", "IMPUNIDAD", "corrupcion", "Straße", "İstanbul", "ﬁesta", "Ǆ", "é"]),
    ),
    max_size=5,
)


@st.composite
def _texts_and_keywords(draw):
    """Keywords, and a text that often holds one of them in another case."""
    keywords = draw(_KEYWORDS)
    pieces = [draw(st.text(max_size=12))]
    if keywords and draw(st.booleans()):
        keyword = draw(st.sampled_from(keywords))
        pieces.append(draw(st.sampled_from([keyword, keyword.upper(), keyword.casefold()])))
        pieces.append(draw(st.text(max_size=12)))
    return "".join(pieces), keywords


@given(_texts_and_keywords())
def test_folded_keywords_match_like_per_call_folding(case):
    text, keywords = case
    expected = _match_reference(text, keywords)
    assert _match(text, keywords) == expected


def test_tokenize_keeps_sigils_strips_edge_punctuation():
    assert tokenize("Vamos! #JusticiaYa, dice @ana_p.") == ["vamos", "#justiciaya", "dice", "@ana_p"]


def test_tokenize_case_folds():
    assert tokenize("HOLA Hola hola") == ["hola"] * 3


def test_tokenize_drops_bare_punctuation():
    assert tokenize("- # @ !!") == []


def test_mentions_in_text():
    text = "@ana @beto_c hola @carla! y no-esto"
    assert mentions_in_text(text) == ["ana", "beto_c", "carla"]


def test_formatted_mentions_parse_back():
    assert format_mentions(["ana", "beto_c"]) == "@ana @beto_c"
    assert mentions_in_text(format_mentions(["ana", "beto_c"]) + " hola") == ["ana", "beto_c"]
