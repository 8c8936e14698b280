"""Text utilities shared by targeting, the platform adapters and analytics."""

from __future__ import annotations

import string
import unicodedata
from typing import Iterable, Optional

_EDGE_PUNCT = set(string.punctuation)
# Leading '#' and '@' are token sigils (hashtags, mentions), not punctuation.
_LEAD_KEEP = {"#", "@"}


def fold(text: str) -> str:
    """Case-fold and strip accents so 'Corrupción' matches 'corrupcion'."""
    if text.isascii():
        # Exact: NFD leaves ASCII unchanged and ASCII has no combining marks.
        return text.casefold()
    decomposed = unicodedata.normalize("NFD", text.casefold())
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def match_keyword(text: str, keywords: Iterable[str]) -> Optional[str]:
    """First keyword found in the text as a folded substring, else None."""
    haystack = fold(text)
    for keyword in keywords:
        if fold(keyword) in haystack:
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


def mentions_in_text(text: str) -> list[str]:
    """Handles mentioned in a rendered message ('@' tokens, sigil stripped)."""
    out = []
    for tok in text.split():
        if tok.startswith("@"):
            handle = tok[1:]
            while handle and handle[-1] in _EDGE_PUNCT:
                handle = handle[:-1]
            if handle:
                out.append(handle)
    return out
