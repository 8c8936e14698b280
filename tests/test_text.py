import unicodedata

from hypothesis import given, strategies as st

from campaignkit.text import fold, match_keyword, mentions_in_text, tokenize


def _fold_reference(text):
    decomposed = unicodedata.normalize("NFD", text.casefold())
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def test_fold_accents_and_case():
    assert fold("Corrupción") == "corrupcion"
    assert fold("IMPUNIDAD") == "impunidad"


@given(st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=127))))
def test_fold_matches_nfd_reference(text):
    assert fold(text) == _fold_reference(text)


def test_match_keyword_folded_substring():
    assert match_keyword("Ya basta de Corrupción aquí", ["corrupcion"]) == "corrupcion"
    assert match_keyword("la impunidad reina", ["corrupcion", "impunidad"]) == "impunidad"
    assert match_keyword("nothing to see", ["corrupcion"]) is None


def test_match_keyword_accented_keyword():
    assert match_keyword("hablando de corrupcion", ["corrupción"]) == "corrupción"


def test_tokenize_keeps_sigils_strips_edge_punctuation():
    assert tokenize("Vamos! #JusticiaYa, dice @ana_p.") == ["vamos", "#justiciaya", "dice", "@ana_p"]


def test_tokenize_case_folds():
    assert tokenize("HOLA Hola hola") == ["hola"] * 3


def test_tokenize_drops_bare_punctuation():
    assert tokenize("- # @ !!") == []


def test_mentions_in_text():
    text = "@ana @beto_c hola @carla! y no-esto"
    assert mentions_in_text(text) == ["ana", "beto_c", "carla"]
