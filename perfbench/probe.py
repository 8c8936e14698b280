"""Host-speed probe: fixed pure-Python work that times how fast the host runs
Python right now.

On a shared host the speed at which one core runs Python drifts by tens of
percent over minutes, and for seconds at a time it nearly doubles, as other
tenants come and go; that, not the program, set most of the spread between
runs. The probe is this file's own code, so no change to the program moves
it. The measurement loop runs a probe block before every timed step and
scales the run's CPU times by ``NOMINAL_S / median probe block``: the time
the step would take on a host on which one probe lasts ``NOMINAL_S`` of CPU
time. A change that makes the program faster moves the scaled time as much
as the unscaled one.

A probe has three parts, because the program's steps speed up unequally
when the host does: string folding, splitting and dict counting on a few
cached words (close to key terms); a walk of random hops through about
200,000 small objects (close to a campaign over 30,000 agents, whose working
set misses the caches); and parsing JSON lines into fresh small objects
(close to reading a log). Each part alone tracked the steps it resembles and
over- or under-corrected the others; their sum tracked all of them best.

A campaign still sped up less than the probe: in 10-seed sets on both
campaign workloads, runs in which the probe ran 45% faster ran their
campaigns 25 to 30% faster, and their analysis, key terms and set-up about
as much as the probe. So a campaign's time is scaled by the square root of
the factor (``CAMPAIGN_SENSITIVITY``), which cut the spread of its scaled
times across seeds from 0.20 to 0.10 and from 0.33 to 0.14 of the median,
where the full factor did not improve on no scaling.
"""

from __future__ import annotations

import json
import random
import time
from statistics import median

# One probe's time on the host the benchmark was tuned on; scaled timings
# read as seconds on that host.
NOMINAL_S = 0.025
# Power of the probe's factor that scales a campaign's time; other steps
# take the full factor.
CAMPAIGN_SENSITIVITY = 0.5
# Probes in a block; the block's time is their median.
BLOCK = 3
OBJECTS = 200_000
LOOKUPS = 40_000
RECORDS = 1_500

_WORDS = (
    "Voluntarios", "para", "limpiar", "el", "PARQUE", "este", "sábado", "#Ayuda",
    "@vecinos", "gracias", "por", "su", "apoyo", "Comunidad", "barrio", "mañana",
)


class _Token:
    __slots__ = ("text", "weight")

    def __init__(self, text: str, weight: int):
        self.text = text
        self.weight = weight


def _fold(word: str) -> str:
    return word.lower().strip("#@").replace("á", "a").replace("ñ", "n")


def compute_work(rounds: int = 400) -> int:
    """Cache-resident half; returns a checksum so that none of it is skipped."""
    counts: dict[str, int] = {}
    total = 0
    for r in range(rounds):
        line = " ".join(_WORDS[(r + i) % len(_WORDS)] for i in range(12))
        for word in line.split():
            token = _Token(_fold(word), len(word))
            counts[token.text] = counts.get(token.text, 0) + token.weight
            total += token.weight if token.text.isalpha() else 1
        total += len(f"{r}:{total % 97}")
    return total + len(counts)


class _Record:
    __slots__ = ("seq", "kind", "actor", "text", "tokens")

    def __init__(self, seq: int, kind: str, actor: str, text: str):
        self.seq = seq
        self.kind = kind
        self.actor = actor
        self.text = text
        self.tokens = tuple(text.split())


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key: int, next: int):
        self.key = key
        self.next = next


class Probe:
    """Holds the walk's objects and the JSON lines, built once; ``block()``
    times a block."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        rng = random.Random(0)
        self.nodes = {key: _Node(key, rng.randrange(OBJECTS)) for key in range(OBJECTS)}
        self.start = rng.randrange(OBJECTS)
        self.lines = [
            json.dumps({
                "seq": seq,
                "kind": rng.choice(("post", "reply", "call")),
                "actor": f"user{rng.randrange(30_000)}",
                "text": " ".join(rng.choice(_WORDS) for _ in range(8)),
            })
            for seq in range(RECORDS)
        ]

    def memory_work(self) -> int:
        """A walk of LOOKUPS random hops through the objects."""
        nodes, key, total = self.nodes, self.start, 0
        for _ in range(LOOKUPS):
            node = nodes[key]
            total += node.key & 7
            key = node.next
        return total

    def parse_work(self) -> int:
        """The JSON lines parsed into fresh records, grouped by actor."""
        records = [_Record(**json.loads(line)) for line in self.lines]
        by_actor: dict[str, list[int]] = {}
        for record in records:
            by_actor.setdefault(record.actor, []).append(record.seq)
        return len(by_actor)

    def block(self) -> float:
        """Median time of BLOCK probes, each all three parts."""
        times = []
        for _ in range(BLOCK):
            start = self.clock()
            compute_work()
            self.memory_work()
            self.parse_work()
            times.append(self.clock() - start)
        return median(times)
