"""Text utilities shared by targeting, the platform adapters and analytics."""

from __future__ import annotations

import string
import unicodedata
from typing import Iterable, Optional, Sequence

_EDGE_PUNCT = set(string.punctuation)
# Leading '#' and '@' are token sigils (hashtags, mentions), not punctuation.
_LEAD_KEEP = {"#", "@"}
# The sigil that marks a mention; formatted and parsed only here.
MENTION_SIGIL = "@"


def fold(text: str) -> str:
    """Case-fold and strip accents so 'Corrupción' matches 'corrupcion'."""
    if text.isascii():
        # Exact: NFD leaves ASCII unchanged and ASCII has no combining marks.
        return text.casefold()
    decomposed = unicodedata.normalize("NFD", text.casefold())
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


class FoldedKeywords(tuple):
    """Keywords in order, each paired with its fold, folded once when built."""

    __slots__ = ()

    def __new__(cls, keywords: Iterable[str]) -> "FoldedKeywords":
        return super().__new__(cls, ((keyword, fold(keyword)) for keyword in keywords))


def match_keyword(text: str, keywords: FoldedKeywords) -> Optional[str]:
    """First keyword found in the text as a folded substring, else None.

    The text is folded once per call; the keywords were folded once, when
    their :class:`FoldedKeywords` was built.
    """
    haystack = fold(text)
    for keyword, needle in keywords:
        if needle in haystack:
            return keyword
    return None


def tokenize(text: str) -> list[str]:
    """Whitespace tokenizer for corpus statistics.

    Tokens are case-folded and have punctuation stripped at the edges, except
    that a leading '#' or '@' is kept: hashtags and handles are first-class
    terms here.
    """
    tokens = []
    for raw in text.split():
        tok = raw.casefold()
        while tok and tok[-1] in _EDGE_PUNCT:
            tok = tok[:-1]
        while tok and tok[0] in _EDGE_PUNCT and tok[0] not in _LEAD_KEEP:
            tok = tok[1:]
        if tok and tok not in _LEAD_KEEP:
            tokens.append(tok)
    return tokens


def format_mentions(user_ids: Sequence[str]) -> str:
    """The mention block of a message: each handle with its sigil, space-separated."""
    return " ".join(MENTION_SIGIL + user_id for user_id in user_ids)


def mentions_in_text(text: str) -> list[str]:
    """Handles mentioned in a rendered message ('@' tokens, sigil stripped)."""
    out = []
    for tok in text.split():
        if tok.startswith(MENTION_SIGIL):
            handle = tok[1:]
            while handle and handle[-1] in _EDGE_PUNCT:
                handle = handle[:-1]
            if handle:
                out.append(handle)
    return out
