import string
import unicodedata

from hypothesis import example, given, strategies as st

from campaignkit.text import (
    FoldedKeywords,
    fold,
    format_mentions,
    match_keyword,
    mentions_in_text,
    replace_surrogates,
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


def _tokenize_reference(text):
    """Strips one character at a time: trailing punctuation, then leading
    punctuation other than the sigils '#' and '@'."""
    tokens = []
    for raw in text.split():
        tok = raw.casefold()
        while tok and tok[-1] in string.punctuation:
            tok = tok[:-1]
        while tok and tok[0] in string.punctuation and tok[0] not in "#@":
            tok = tok[1:]
        if tok and tok not in ("#", "@"):
            tokens.append(tok)
    return tokens


def _mentions_reference(text):
    out = []
    for tok in text.split():
        if tok.startswith("@"):
            handle = tok[1:]
            while handle and handle[-1] in string.punctuation:
                handle = handle[:-1]
            if handle:
                out.append(handle)
    return out


_PUNCTUATED = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(string.punctuation + string.whitespace + "aZ1ÉßΣİﬁ\u3000\x85")),
)


@given(_PUNCTUATED)
def test_tokenize_and_mentions_match_the_per_character_reference(text):
    assert tokenize(text) == _tokenize_reference(text)
    assert mentions_in_text(text) == _mentions_reference(text)


# Letters, whitespace and the sigils, and no other punctuation: the texts
# that reach tokenize's unstripped path, and those a sigil keeps from it.
_SIGILED = st.text(alphabet=st.sampled_from("aZÉßİ#@ \t\n\x1c\x85\xa0\u2003\u3000"))


@given(_SIGILED)
@example("a#")
@example("#")
@example("@ b")
@example("x #y")
@example("a\u3000#")
@example("#a@")
def test_tokenize_without_edge_punctuation_matches_the_reference(text):
    assert tokenize(text) == _tokenize_reference(text)


def test_each_punctuation_character_alone_is_stripped():
    # The only edge punctuation in the text, so no other character sends the
    # text to the strip.
    for ch in string.punctuation:
        text = f"a{ch} {ch}b x{ch}y"
        assert tokenize(text) == _tokenize_reference(text), ch


def test_tokenize_strips_leading_punctuation_but_not_sigils():
    assert tokenize("¡(hola) «x» ...#tag! -@ana? '#'") == ["¡(hola", "«x»", "#tag", "@ana"]


def test_mentions_in_text():
    text = "@ana @beto_c hola @carla! y no-esto"
    assert mentions_in_text(text) == ["ana", "beto_c", "carla"]


def test_formatted_mentions_parse_back():
    assert format_mentions(["ana", "beto_c"]) == "@ana @beto_c"
    assert mentions_in_text(format_mentions(["ana", "beto_c"]) + " hola") == ["ana", "beto_c"]


def test_replace_surrogates_leaves_encodable_text_as_it_is():
    for text in ("plain ascii", "Corrupción 😀"):
        assert replace_surrogates(text) is text
    assert replace_surrogates("a\ud800b\udfff é\udc80") == "a\ufffdb\ufffd é\ufffd"
    assert replace_surrogates("\ud83d\ude00").encode("utf-8") == "\ufffd\ufffd".encode("utf-8")
