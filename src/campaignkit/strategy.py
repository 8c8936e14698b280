"""Expand strategy templates into concrete outbound messages.

Everything here is stateless given its inputs; randomness comes in through
the caller's rng so determinism stays the caller's choice. Templates and
mentions (the '@' sigil) are formatted by the text module, which also parses
mentions back out of logged calls, so templates remain platform-neutral.
Composing is pure formatting and never fails: what a message may be (its
length, its mentions) is the platform's to judge when it is posted, since
only the adapter knows how its platform counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Optional, Sequence

from .model import (
    EVENT_OUTBOUND_CALL, EVENT_OUTBOUND_FOLLOWUP, EVENT_OUTBOUND_QUOTE,
    StrategyId, StrategySpec, slot_init,
)
from .text import expand_template


class MessageKind(str, Enum):
    CALL = "Call"
    QUOTE = "Quote"
    FOLLOWUP = "Followup"


MESSAGE_CALL, MESSAGE_QUOTE, MESSAGE_FOLLOWUP = MessageKind

# The log event each posted message is recorded as.
EVENT_KIND_BY_MESSAGE = {
    MESSAGE_CALL: EVENT_OUTBOUND_CALL,
    MESSAGE_QUOTE: EVENT_OUTBOUND_QUOTE,
    MESSAGE_FOLLOWUP: EVENT_OUTBOUND_FOLLOWUP,
}


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class OutboundMessage:
    kind: MessageKind
    text: str
    mentions: tuple[str, ...]
    strategy: StrategyId
    topic: str
    conversation_id: str
    # Turn index within the conversation (0 = call to action, n = nth
    # follow-up); part of the platform idempotency key.
    turn: int = 0


def _compose_turn(
    spec: StrategySpec,
    kind: MessageKind,
    template: str,
    topic: str,
    members: Sequence[str],
    *,
    conversation_id: str,
    turn: int,
) -> list[OutboundMessage]:
    """One message per unit of the strategy budget: the turn's own message,
    plus the solidarity quote when the strategy sends two tweets per turn."""
    parts = [(kind, template)]
    if spec.messages_per_turn == 2:
        parts.append((MESSAGE_QUOTE, spec.solidarity_quote or ""))
    mentions = tuple(members)
    return [
        OutboundMessage(
            part_kind,
            expand_template(part_template, topic=topic, members=members),
            mentions, spec.id, topic, conversation_id, turn,
        )
        for part_kind, part_template in parts
    ]


def compose_call(
    spec: StrategySpec,
    topic: str,
    members: Sequence[str],
    *,
    conversation_id: str,
) -> list[OutboundMessage]:
    """Compose the call to action for a freshly formed group (turn 0)."""
    return _compose_turn(
        spec, MESSAGE_CALL, spec.call_to_action, topic, members, conversation_id=conversation_id, turn=0
    )


def select_followup(
    used: Collection[int], spec: StrategySpec, rng: random.Random
) -> Optional[int]:
    """Pick a follow-up question not in ``used`` uniformly at random.

    Sampling is without replacement per conversation: no group is ever asked
    the same question twice. Returns None once every question has been used;
    the conversation then gets no more follow-ups.
    """
    unused = [i for i in range(len(spec.followups)) if i not in used]
    if not unused:
        return None
    return rng.choice(unused)


def compose_followup(
    spec: StrategySpec,
    topic: str,
    members: Sequence[str],
    index: int,
    *,
    conversation_id: str,
    turn: int,
) -> list[OutboundMessage]:
    """Compose the follow-up question at ``index`` (one that
    :func:`select_followup` drew) for the addressed members."""
    return _compose_turn(
        spec, MESSAGE_FOLLOWUP, spec.followups[index], topic, members,
        conversation_id=conversation_id, turn=turn,
    )
