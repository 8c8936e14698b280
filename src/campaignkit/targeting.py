"""Turn the public stream into eligible targets under the one-touch rule."""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional, Sequence

from .model import BOT_ACTOR, ContactState, CONTACT_STATE_ORDER, TargetUser, Topic
from .platform import InboundItem, ItemKind
from .text import match_keyword


def match_target(item: InboundItem, topics: Sequence[Topic]) -> Optional[TargetUser]:
    """Match one public post against the campaign topics.

    Returns a fresh TargetUser for the first topic whose keyword appears in
    the text (folded substring), or None when nothing matches or the author
    is the campaign's own bot (no feedback loops).
    """
    if item.kind is not ItemKind.PUBLIC_POST:
        return None
    if item.author == BOT_ACTOR:
        return None
    for topic in topics:
        keyword = match_keyword(item.text, topic.keywords)
        if keyword is not None:
            return TargetUser(
                user_id=item.author,
                matched_keyword=keyword,
                matched_message_id=item.message_id,
                topic=topic.name,
            )
    return None


class AdmitResult(str, Enum):
    ADMITTED = "Admitted"
    DUPLICATE_REJECTED = "DuplicateRejected"


class ContactRegistry:
    """user_id -> contact state, single-writer, forward transitions only.

    Once a user is Contacted they never return to Fresh or Queued, within a
    run and across restarts: on resume the registry is rebuilt from the event
    log (see ``ReplayState.registry``).
    """

    def __init__(self) -> None:
        self._states: dict[str, ContactState] = {}

    def state(self, user_id: str) -> ContactState:
        return self._states.get(user_id, ContactState.FRESH)

    def _advance(self, user_id: str, new_state: ContactState) -> None:
        current = self.state(user_id)
        if CONTACT_STATE_ORDER.index(new_state) < CONTACT_STATE_ORDER.index(current):
            return  # never move backwards
        self._states[user_id] = new_state

    def admit(self, target: TargetUser) -> AdmitResult:
        if self.state(target.user_id) is not ContactState.FRESH:
            return AdmitResult.DUPLICATE_REJECTED
        self._states[target.user_id] = ContactState.QUEUED
        return AdmitResult.ADMITTED

    def mark_contacted(self, user_ids: Iterable[str]) -> None:
        for user_id in user_ids:
            self._advance(user_id, ContactState.CONTACTED)

    def mark_replied(self, user_id: str) -> None:
        self._advance(user_id, ContactState.REPLIED)

    def items(self) -> dict[str, ContactState]:
        return dict(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ContactRegistry) and self._states == other._states
