"""Agent-population model behind the simulated platform.

Agents post keyword-bearing messages at Poisson rates and respond to bot
messages with per-strategy Bernoulli reply draws, independent retweet and
favorite draws, and a per-agent conversation-depth cap with a geometric tail.
Everything is driven by a caller-supplied rng and a virtual clock, so a fixed
seed yields byte-identical behavior run over run.

Draws, all from the platform's one rng. Set-up draws each agent's turn
budget (``random()`` until a geometric stop, none for a mean of 1 or less),
then each agent's first post gap, in agent order. Each public post draws a
topic index, a keyword index within the topic, a post-pattern index, then
the gap to the agent's next post. Each bot message delivered to a member
draws, if it is not a quote and the member has turns left, the reply draw;
on a reply, the stance (at the member's first reply only), the
reply-pattern index and the reply delay. Then come the member's retweet
draw and, if it hits, its delay, and the favorite draw and, if it hits, its
delay (without favorites, no favorite draw). After a reply, each co-member
of the conversation makes the same retweet and favorite draws toward it.
Once the platform's public stream is closed no post draw is made, and
reactions go on drawing from the same rng. The rng's ``choice``, ``expovariate`` and
``uniform`` are not called; their draws are reproduced as CPython 3.10-3.13
makes them. An index below ``n`` is ``getrandbits(n.bit_length())``, redrawn
until below ``n`` (:func:`draw_index`); a gap is ``-log(1 - random()) /
lambd`` (:func:`draw_exponential`); a delay's logarithm is ``lo + (hi - lo) *
random()`` (:func:`draw_uniform`). The tests check each against the stdlib
call it replaces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence, Union

from .eventlog import volunteer_replies
from .fixtures import _data_text
from .model import (
    LABEL_OFF_TOPIC, LABEL_ON_TOPIC, CampaignError, FieldCodec, Topic, VolunteerLabel, load_yaml,
    replace,
)
from .platform import ITEM_FAVORITE, ITEM_PUBLIC_POST, ITEM_REPLY_TO_BOT, ITEM_RETWEET, InboundItem
from .strategy import MESSAGE_QUOTE, OutboundMessage

# Machine-readable stance tags appended to generated replies so label
# fixtures can be derived from a log without human coders.
ON_TOPIC_TAG = "#ontopic"
OFF_TOPIC_TAG = "#offtopic"

HOUR_MS = 3_600_000

# An agent replies at most once per soliciting message, and a conversation
# sends at most 1 + len(followups) of them (8 for the shipped arms), so a
# larger mean reply depth changes no run; it only lengthens _geometric's loop.
MAX_MEAN_TURNS = 100
# Mixture weights are relative shares; the cap keeps them finite.
MAX_WEIGHT = 100

# A propensity is either one float for every arm or a per-arm mapping with an
# optional "default" key.
Propensity = Union[float, Mapping[str, float]]


def resolve_propensity(value: Propensity, strategy: str) -> float:
    if isinstance(value, (float, int)):
        return float(value)
    return float(value.get(strategy, value.get("default", 0.0)))


class Clock(str, Enum):
    VIRTUAL = "virtual"  # the only clock: runs are deterministic


@dataclass(frozen=True)
class ReplyDelay(FieldCodec):
    """Reply and interaction delays are log-uniform between these bounds, in seconds."""

    min_s: int = 60
    max_s: int = 6 * 3600


@dataclass(frozen=True)
class MixtureComponent(FieldCodec):
    """A share of the population; each key it sets overrides the profile's."""

    weight: float = 1.0
    post_rate: Optional[float] = None
    mean_turns: Optional[float] = None
    reply_propensity: Optional[Propensity] = None
    interaction_propensity: Optional[Propensity] = None
    on_topic_probability: Optional[Propensity] = None


@dataclass(frozen=True)
class SimulationProfile(FieldCodec):
    """Config-side description of the agent population, decoded from the
    config's ``simulation`` subtree. Its keys, all optional: ``profile`` (a
    shipped profile, ``reference``, that the other keys are laid over),
    ``population``, ``post_rate``, ``mean_turns``, ``reply_propensity``,
    ``interaction_propensity``, ``on_topic_probability``, ``reply_delay``
    (``min_s``, ``max_s``), ``posts_per_minute_limit``, ``clock``
    (``virtual``) and ``mixture`` (a list of components, each a ``weight``
    and overrides of any keys from ``post_rate`` to ``on_topic_probability``).
    """

    population: int = 1000
    post_rate: float = 0.2  # keyword posts per agent per simulated hour
    mean_turns: float = 2.0  # geometric mean of per-agent reply depth
    reply_propensity: Propensity = 0.3
    interaction_propensity: Propensity = 0.1
    on_topic_probability: Propensity = 0.8
    reply_delay: ReplyDelay = field(default_factory=ReplyDelay)
    posts_per_minute_limit: Optional[int] = None
    clock: Clock = Clock.VIRTUAL
    mixture: tuple[MixtureComponent, ...] = ()


def resolve_profile(simulation: Mapping[str, Any]) -> SimulationProfile:
    """The ``simulation`` subtree decoded, its keys laid over the named ``profile`` if any.
    Errors name the key path from ``simulation``; values the simulator cannot run fail too."""
    raw = dict(simulation)
    name = raw.pop("profile", None)
    try:
        if name is not None:
            if name != "reference":
                raise CampaignError(f"profile: expected one of ['reference'], got {name!r}")
            raw = {**load_yaml(_data_text("profile_reference.yaml")), **raw}
        profile = SimulationProfile.from_dict(raw)
        delay, limit = profile.reply_delay, profile.posts_per_minute_limit
        if profile.population < 1:
            raise CampaignError("population: must be at least 1")
        _check_mean_turns("mean_turns", profile.mean_turns)
        if not 1 <= delay.min_s <= delay.max_s:
            raise CampaignError("reply_delay: min_s must be at least 1 and at most max_s")
        if limit is not None and limit < 1:
            raise CampaignError("posts_per_minute_limit: must be at least 1")
        for i, comp in enumerate(profile.mixture):
            if not 0 < comp.weight <= MAX_WEIGHT:  # NaN fails every comparison
                raise CampaignError(
                    f"mixture[{i}].weight: must be finite, above 0 and at most {MAX_WEIGHT}"
                )
            if comp.mean_turns is not None:
                _check_mean_turns(f"mixture[{i}].mean_turns", comp.mean_turns)
    except CampaignError as exc:
        raise CampaignError(f"simulation.{exc}") from exc
    return profile


def _check_mean_turns(key: str, mean: float) -> None:
    if not -math.inf < mean <= MAX_MEAN_TURNS:  # NaN fails every comparison
        raise CampaignError(f"{key}: must be finite and at most {MAX_MEAN_TURNS}")


@dataclass(slots=True)
class AgentProfile:
    user_id: str
    reply_propensity: Propensity
    interaction_propensity: Propensity
    on_topic_probability: Propensity
    max_turns: int
    post_rate: float
    replies_made: int = 0
    on_topic: Optional[bool] = None  # stance drawn at first reply, then fixed


_POST_PATTERNS = (
    "Ya no soporto la {keyword} en mi ciudad",
    "Otra vez {keyword} en las noticias, que verguenza",
    "Cuando acabara la {keyword}? Estoy harto",
)

_ON_TOPIC_PATTERNS = (
    "Propongo denunciar cada caso de {topic} y darle seguimiento {tag}",
    "Podemos organizar vigilancia ciudadana contra la {topic} {tag}",
    "Hay que exigir transparencia para frenar la {topic} {tag}",
)

_OFF_TOPIC_PATTERNS = (
    "Lo siento, no colaboro con bots {tag}",
    "Desde cuando los bots quieren arreglar el mundo? {tag}",
)


def draw_index(rng: random.Random, n: int) -> int:
    """The index ``rng.choice`` draws from a sequence of ``n`` items, from the
    same draws: ``getrandbits(n.bit_length())``, redrawn until below ``n``."""
    if n < 1:
        raise IndexError("cannot draw an index from an empty sequence")
    k = n.bit_length()
    i = rng.getrandbits(k)
    while i >= n:
        i = rng.getrandbits(k)
    return i


def draw_exponential(rng: random.Random, lambd: float) -> float:
    """``rng.expovariate(lambd)`` from the same draw."""
    return -math.log(1.0 - rng.random()) / lambd


def draw_uniform(rng: random.Random, a: float, b: float) -> float:
    """``rng.uniform(a, b)`` from the same draw."""
    return a + (b - a) * rng.random()


def _geometric(mean: float, rng: random.Random) -> int:
    """Geometric draw on {1, 2, ...} with the given mean."""
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    n = 1
    while rng.random() > p:
        n += 1
    return n


def _agent_profiles(profile: SimulationProfile) -> list[SimulationProfile]:
    """Each agent's profile, in agent order. In a mixture, an agent takes the
    profile with the keys of the component furthest below its weighted share
    so far laid over it, ties to the first (a smooth weighted round-robin on
    weights scaled to exact integers). Equal weights give agent i component i
    modulo their number."""
    if not profile.mixture:
        return [profile] * profile.population
    components = [
        replace(profile, **{k: v for k, v in comp.to_dict().items() if k != "weight"})
        for comp in profile.mixture
    ]
    shares = [Fraction(comp.weight) for comp in profile.mixture]
    scale = math.lcm(*(share.denominator for share in shares))
    weights = [int(share * scale) for share in shares]
    total = sum(weights)
    credits = [0] * len(weights)
    out = []
    for _ in range(profile.population):
        credits = [credit + weight for credit, weight in zip(credits, weights)]
        best = credits.index(max(credits))
        credits[best] -= total
        out.append(components[best])
    return out


class AgentPopulation:
    """Deterministic population of simulated platform users."""

    def __init__(self, profile: SimulationProfile, topics: Sequence[Topic], rng: random.Random):
        self.topics = tuple(topics)
        self._item_counter = 0
        self._log_delay_ms = (
            math.log(profile.reply_delay.min_s * 1000),
            math.log(profile.reply_delay.max_s * 1000),
        )
        # Every public post's text, formatted once: [topic][keyword][pattern].
        self._post_texts = tuple(
            tuple(tuple(pattern.format(keyword=keyword) for pattern in _POST_PATTERNS)
                  for keyword in topic.keywords)
            for topic in self.topics
        )
        self.agents = [
            AgentProfile(
                f"u{i:05d}", comp.reply_propensity, comp.interaction_propensity,
                comp.on_topic_probability, _geometric(comp.mean_turns, rng), comp.post_rate,
            )
            for i, comp in enumerate(_agent_profiles(profile))
        ]
        self.by_id = {a.user_id: a for a in self.agents}

    def _mint(self, prefix: str) -> str:
        self._item_counter += 1
        return f"{prefix}{self._item_counter:08d}"

    # -- public posting ----------------------------------------------------

    def next_post_gap_ms(self, agent: AgentProfile, rng: random.Random) -> Optional[int]:
        if agent.post_rate <= 0:
            return None
        return max(1, round(draw_exponential(rng, agent.post_rate / HOUR_MS)))

    def make_public_post(self, agent: AgentProfile, ts: int, rng: random.Random) -> InboundItem:
        by_topic = self._post_texts
        by_keyword = by_topic[draw_index(rng, len(by_topic))]
        texts = by_keyword[draw_index(rng, len(by_keyword))]
        return InboundItem(
            ITEM_PUBLIC_POST, agent.user_id, self._mint("t"), ts, None,
            texts[draw_index(rng, len(texts))],
        )

    # -- reactions ----------------------------------------------------------

    def _reply_delay_ms(self, rng: random.Random) -> int:
        return round(math.exp(draw_uniform(rng, *self._log_delay_ms)))

    def react(
        self,
        user_id: str,
        message: OutboundMessage,
        message_id: str,
        now: int,
        rng: random.Random,
        *,
        favorites_enabled: bool = True,
    ) -> list[InboundItem]:
        """Reactions of one recipient to one bot message, delivered under
        ``message_id``.

        Calls and follow-ups solicit a reply; quotes do not. At most one
        reply per received message; replies stop once the agent's turn
        budget is spent. Retweet and favorite draws are independent of the
        reply draw.
        """
        agent = self.by_id.get(user_id)
        if agent is None:
            return []
        items: list[InboundItem] = []
        if message.kind is not MESSAGE_QUOTE and agent.replies_made < agent.max_turns:
            if rng.random() < resolve_propensity(agent.reply_propensity, message.strategy):
                agent.replies_made += 1
                if agent.on_topic is None:
                    agent.on_topic = rng.random() < resolve_propensity(
                        agent.on_topic_probability, message.strategy
                    )
                patterns = _ON_TOPIC_PATTERNS if agent.on_topic else _OFF_TOPIC_PATTERNS
                pattern = patterns[draw_index(rng, len(patterns))]
                items.append(
                    InboundItem(
                        ITEM_REPLY_TO_BOT,
                        user_id,
                        self._mint("r"),
                        now + self._reply_delay_ms(rng),
                        message_id,
                        pattern.format(
                            topic=message.topic,
                            tag=ON_TOPIC_TAG if agent.on_topic else OFF_TOPIC_TAG,
                        ),
                    )
                )
        items.extend(
            self.interaction_draws(
                user_id,
                message.strategy,
                message_id,
                now,
                rng,
                favorites_enabled=favorites_enabled,
            )
        )
        return items

    def interaction_draws(
        self,
        user_id: str,
        strategy: str,
        target_message_id: str,
        base_ts: int,
        rng: random.Random,
        *,
        favorites_enabled: bool = True,
    ) -> list[InboundItem]:
        """Independent retweet/favorite draws toward one message."""
        agent = self.by_id.get(user_id)
        if agent is None:
            return []
        propensity = resolve_propensity(agent.interaction_propensity, strategy)
        items: list[InboundItem] = []
        if rng.random() < propensity:
            items.append(
                InboundItem(
                    ITEM_RETWEET, user_id, self._mint("x"),
                    base_ts + self._reply_delay_ms(rng), target_message_id,
                )
            )
        if favorites_enabled and rng.random() < propensity:
            items.append(
                InboundItem(
                    ITEM_FAVORITE, user_id, self._mint("x"),
                    base_ts + self._reply_delay_ms(rng), target_message_id,
                )
            )
        return items


def derive_labels(events) -> list[VolunteerLabel]:
    """Coder ``sim``'s volunteer labels, from the stance tags in simulated replies.

    A volunteer is on-topic when any of their replies carries the on-topic
    tag; simulated agents keep a fixed stance, so first reply decides.
    """
    stance: dict[str, bool] = {}
    for event in volunteer_replies(events):
        if event.text is not None and event.actor not in stance:
            stance[event.actor] = ON_TOPIC_TAG in event.text
    return [
        VolunteerLabel(user, LABEL_ON_TOPIC if on else LABEL_OFF_TOPIC, "sim")
        for user, on in sorted(stance.items())
    ]
