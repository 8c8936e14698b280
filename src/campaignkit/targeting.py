"""Turn the public stream into eligible targets under the one-touch rule."""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .model import BOT_ACTOR, Topic
from .platform import InboundItem
from .text import FoldedKeywords, match_keyword, replace_surrogates


class TopicKeywords:
    """Every topic's keywords, folded once: what :func:`match_target` matches.

    Keywords keep topic order, then their order within the topic; a keyword
    two topics list belongs to the first.
    """

    def __init__(self, topics: Sequence[Topic]) -> None:
        self.topic_of: dict[str, str] = {}
        for topic in topics:
            for keyword in topic.keywords:
                self.topic_of.setdefault(keyword, topic.name)
        self.folded = FoldedKeywords(self.topic_of)


def match_target(item: InboundItem, keywords: TopicKeywords) -> Optional[str]:
    """Match one public post against the campaign topics.

    Returns the name of the first topic whose keyword appears in the text
    (folded substring), which makes the post's author a target; or None
    when nothing matches, when the author is the campaign's own bot (no
    feedback loops), or when the author's handle holds a lone surrogate,
    which the log cannot hold. The text is folded once: the first keyword
    found in topic order is in the first topic that has one.
    """
    author = item.author
    if author == BOT_ACTOR or replace_surrogates(author) != author:
        return None
    keyword = match_keyword(item.text, keywords.folded)
    return None if keyword is None else keywords.topic_of[keyword]


class AdmitResult(str, Enum):
    ADMITTED = "Admitted"
    DUPLICATE_REJECTED = "DuplicateRejected"


# Each member bound once (see the ``model`` module docstring).
ADMITTED, DUPLICATE_REJECTED = AdmitResult


class ContactRegistry:
    """The users the campaign has seen; each is admitted at most once.

    It starts empty on every run. A resumed run re-executes the campaign from
    its start, so it admits again exactly the users the interrupted run had
    admitted, called or not.
    """

    def __init__(self) -> None:
        self._seen: set[str] = set()

    def admit(self, user: str) -> AdmitResult:
        if user in self._seen:
            return DUPLICATE_REJECTED
        self._seen.add(user)
        return ADMITTED
