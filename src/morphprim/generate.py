"""Word generators for benchmarks and corpora."""

from __future__ import annotations

import random

from .words import Word, intern_word, surface_symbol


def palindrome_pair_word(k: int) -> Word:
    """The word ``a1 a2 .. ak ak .. a2 a1`` over ``k`` distinct letters.

    Morphically primitive for every ``k``; the engine needs one round per
    letter on it, which makes the family a quadratic-work stress case for
    growing alphabets.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = list(range(k)) + list(range(k - 1, -1, -1))
    return intern_word(surface_symbol(a) for a in ids)


def random_word(length: int, alphabet: int, seed: int) -> Word:
    """Uniform random word; deterministic for a fixed seed.

    The interned alphabet may be smaller than ``alphabet`` if some symbol
    never gets drawn.
    """
    if length < 0 or alphabet < 1:
        raise ValueError("length must be >= 0 and alphabet >= 1")
    rng = random.Random(seed)
    return intern_word(
        surface_symbol(rng.randrange(alphabet)) for _ in range(length)
    )
