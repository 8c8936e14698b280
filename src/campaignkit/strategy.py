"""Expand strategy templates into concrete outbound messages.

Everything here is stateless given its inputs; randomness comes in through
the caller's rng so determinism stays the caller's choice. Mention formatting
(the '@' sigil) is delegated to the platform port so templates remain
platform-neutral.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .model import CampaignError, ConversationRecord, EventKind, StrategyId, StrategySpec


class TemplateOverflow(CampaignError):
    """A template expanded past the platform character limit."""


class MessageKind(str, Enum):
    CALL = "Call"
    QUOTE = "Quote"
    FOLLOWUP = "Followup"


# The log event each posted message is recorded as.
EVENT_KIND_BY_MESSAGE = {
    MessageKind.CALL: EventKind.OUTBOUND_CALL,
    MessageKind.QUOTE: EventKind.OUTBOUND_QUOTE,
    MessageKind.FOLLOWUP: EventKind.OUTBOUND_FOLLOWUP,
}


@dataclass(frozen=True)
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


def _format_mentions(members: Sequence[str]) -> str:
    # Late import: the platform port owns the mention sigil.
    from .platform import format_mentions

    return format_mentions(members)


def expand_template(
    template: str, *, topic: str, members: Sequence[str], char_limit: int
) -> str:
    """Fill ``{topic}``/``{mentions}`` placeholders, prepending mentions when
    the template does not place them itself."""
    mention_block = _format_mentions(members)
    if "{mentions}" in template:
        text = template.format(topic=topic, mentions=mention_block)
    else:
        text = f"{mention_block} {template.format(topic=topic)}" if mention_block else template.format(topic=topic)
    if len(text) > char_limit:
        raise TemplateOverflow(
            f"expanded to {len(text)} characters, limit is {char_limit}: {text!r}"
        )
    return text


def _compose_turn(
    spec: StrategySpec,
    kind: MessageKind,
    template: str,
    topic: str,
    members: Sequence[str],
    *,
    conversation_id: str,
    turn: int,
    char_limit: int,
) -> list[OutboundMessage]:
    """One message per unit of the strategy budget: the turn's own message,
    plus the solidarity quote when the strategy sends two tweets per turn."""
    parts = [(kind, template)]
    if spec.messages_per_turn == 2:
        parts.append((MessageKind.QUOTE, spec.solidarity_quote or ""))
    return [
        OutboundMessage(
            kind=part_kind,
            text=expand_template(
                part_template, topic=topic, members=members, char_limit=char_limit
            ),
            mentions=tuple(members),
            strategy=spec.id,
            topic=topic,
            conversation_id=conversation_id,
            turn=turn,
        )
        for part_kind, part_template in parts
    ]


def compose_call(
    spec: StrategySpec,
    topic: str,
    members: Sequence[str],
    *,
    conversation_id: str,
    char_limit: int = 140,
) -> list[OutboundMessage]:
    """Compose the call to action for a freshly formed group (turn 0)."""
    return _compose_turn(
        spec,
        MessageKind.CALL,
        spec.call_to_action,
        topic,
        members,
        conversation_id=conversation_id,
        turn=0,
        char_limit=char_limit,
    )


def select_followup(
    record: ConversationRecord, spec: StrategySpec, rng: random.Random
) -> Optional[int]:
    """Pick an unused follow-up question uniformly at random.

    Sampling is without replacement per conversation: no group is ever asked
    the same question twice. Returns None once every question has been used,
    which closes the conversation.
    """
    unused = [i for i in range(len(spec.followups)) if i not in record.used_followups]
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
    char_limit: int = 140,
) -> list[OutboundMessage]:
    """Compose the follow-up question at ``index`` for the addressed members."""
    if index < 0 or index >= len(spec.followups):
        raise IndexError(f"follow-up index {index} out of range for {spec.id}")
    return _compose_turn(
        spec,
        MessageKind.FOLLOWUP,
        spec.followups[index],
        topic,
        members,
        conversation_id=conversation_id,
        turn=turn,
        char_limit=char_limit,
    )
