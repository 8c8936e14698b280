"""Seeded synthetic corpora for the key-term workload.

Two sides of documents drawn from one Zipf-like vocabulary, with one term
planted in every side-A document and in no side-B document. Most terms are
absent from most documents, so most per-document weights are zero: the
input property that sparse rank computations depend on.
"""

from __future__ import annotations

import itertools
import random

PLANTED_TERM = "#voluntariado"
DOCS_PER_SIDE = 200
VOCABULARY_SIZE = 3000
TOKENS_PER_DOC = (100, 400)
ZIPF_EXPONENT = 1.0

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "ch", "tr")
_VOWELS = ("a", "e", "i", "o", "u")


def vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct two- to four-syllable words in a seeded order."""
    syllables = [o + v for o, v in itertools.product(_ONSETS, _VOWELS)]
    words: set[str] = set()
    out: list[str] = []
    while len(out) < size:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        if word not in words:
            words.add(word)
            out.append(word)
    return out


def make_corpora(seed: int) -> tuple[list[str], list[str]]:
    """(side A, side B) documents; the same seed gives the same corpora."""
    rng = random.Random(f"{seed}:corpora")
    words = vocabulary(rng, VOCABULARY_SIZE)
    cum_weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(VOCABULARY_SIZE))
    )

    def document(planted: bool) -> str:
        tokens = rng.choices(words, cum_weights=cum_weights, k=rng.randint(*TOKENS_PER_DOC))
        if planted:
            for _ in range(rng.randint(1, 3)):
                tokens.insert(rng.randrange(len(tokens) + 1), PLANTED_TERM)
        return " ".join(tokens)

    side_a = [document(True) for _ in range(DOCS_PER_SIDE)]
    side_b = [document(False) for _ in range(DOCS_PER_SIDE)]
    return side_a, side_b
