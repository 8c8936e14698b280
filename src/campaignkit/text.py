"""Text utilities shared by targeting, the platform adapters and analytics."""

from __future__ import annotations

import re
import string
import unicodedata
from typing import Iterable, Optional, Sequence

# Leading '#' and '@' are token sigils (hashtags, mentions), not punctuation.
_LEAD_PUNCT = string.punctuation.replace("#", "").replace("@", "")
# The sigil that marks a mention; formatted and parsed only here.
MENTION_SIGIL = "@"
# Code points that UTF-8 cannot encode, so a string holding one cannot be logged.
_SURROGATES = re.compile("[\ud800-\udfff]")


def fold(text: str) -> str:
    """Case-fold and strip accents so 'Corrupción' matches 'corrupcion'."""
    if text.isascii():
        # Exact: NFD leaves ASCII unchanged and ASCII has no combining marks.
        return text.casefold()
    decomposed = unicodedata.normalize("NFD", text.casefold())
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def replace_surrogates(text: str) -> str:
    """The text with each lone surrogate replaced by U+FFFD, the replacement
    character, so that it encodes as UTF-8; a text without one is returned
    as it is. A live adapter can decode a ``\\ud800`` escape from JSON."""
    if text.isascii():
        return text
    return _SURROGATES.sub("\ufffd", text)


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


def _needs_strip(folded: str) -> bool:
    """Whether a token of the folded text could lose a character to
    :func:`tokenize`'s strip: the text holds a character of ``_LEAD_PUNCT``,
    or a '#' or '@' is followed by whitespace or by the end of the text."""
    for ch in _LEAD_PUNCT:
        if ch in folded:
            return True
    end = len(folded)
    for sigil in "#@":
        i = folded.find(sigil)
        while i >= 0:
            i += 1
            if i == end or folded[i].isspace():
                return True
            i = folded.find(sigil, i)
    return False


def tokenize(text: str) -> list[str]:
    """Whitespace tokenizer for corpus statistics.

    Tokens are case-folded and have punctuation stripped at the edges, except
    that a leading '#' or '@' is kept: hashtags and handles are first-class
    terms here.

    The folded text is split once, and the split is returned as it is when
    :func:`_needs_strip` is false. That is exact: without a character of
    ``_LEAD_PUNCT`` no token starts with punctuation that ``lstrip`` would
    take, the only punctuation left is '#' and '@', and ``rstrip`` would take
    those only from a token's end, that is, from before whitespace (as
    ``str.split`` tests it) or the end of the text. Otherwise every token is
    stripped.
    """
    folded = text.casefold()
    tokens = folded.split()
    if not _needs_strip(folded):
        return tokens
    return [
        tok for raw in tokens
        if (tok := raw.rstrip(string.punctuation).lstrip(_LEAD_PUNCT))
    ]


def format_mentions(user_ids: Sequence[str]) -> str:
    """The mention block of a message: each handle with its sigil, space-separated."""
    return " ".join(MENTION_SIGIL + user_id for user_id in user_ids)


def expand_template(template: str, *, topic: str, members: Sequence[str]) -> str:
    """Fill ``{topic}``/``{mentions}`` placeholders, prepending mentions when
    the template does not place them itself."""
    mention_block = format_mentions(members)
    if "{mentions}" in template:
        return template.format(topic=topic, mentions=mention_block)
    text = template.format(topic=topic)
    return f"{mention_block} {text}" if mention_block else text


def mentions_in_text(text: str) -> list[str]:
    """Handles mentioned in a rendered message ('@' tokens, sigil stripped)."""
    # split() yields no empty token, so each has a first character.
    return [
        handle for tok in text.split()
        if tok[0] == MENTION_SIGIL and (handle := tok[1:].rstrip(string.punctuation))
    ]
