"""Seeded input generators for the benchmark's four workloads.

Every generator draws only from ``random.Random(seed)`` and the constants in
this file.  Nothing here imports ``morphprim``: a later change to
``morphprim.generate`` or ``surface_symbol`` leaves the inputs byte-identical.
Every letter is a single code point, so a word's surface text is a plain
string, and that string is all the program is given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    random4_n: int
    wn_k: int
    planted_n: int
    stream_words: int


FULL = Sizes(random4_n=16_000, wn_k=256, planted_n=24_000, stream_words=1_500)
# a few milliseconds per pass: for the checker tests and a quick try
SMOKE = Sizes(random4_n=400, wn_k=12, planted_n=480, stream_words=60)

RANDOM4_LETTERS = "abcd"
# wn draws its k letters from three scripts, so the letters' string widths
# (2 or 4 bytes per code point) vary with the seed: Latin Extended-A, CJK
# Unified Ideographs and CJK Extension B, outside the Basic Multilingual Plane
WN_POOL = (
    list(range(0x0100, 0x0180))
    + list(range(0x4E00, 0x4E00 + 2048))
    + list(range(0x20000, 0x20000 + 2048))
)
PLANTED_POOL = "abcdefghijklmnopqrstuvwxyz"
PLANTED_ALPHABET = 12
PLANTED_EXPANDING = 3
# every planted image has this length, so n = PLANTED_IMAGE_LEN * |u| exactly
PLANTED_IMAGE_LEN = 8
STREAM_LETTERS = "abcd"
STREAM_MAX_LEN = 16


@dataclass(frozen=True)
class Inputs:
    """The surface texts of one workload, plus what the generator planted."""

    texts: tuple[str, ...]
    # planted workload only: the morphism f with f(text) = text, letter -> image
    planted_images: dict[str, str] | None = None

    @property
    def letters(self) -> int:
        return sum(len(t) for t in self.texts)


def random4(seed: int, sizes: Sizes) -> Inputs:
    """One uniform random word of ``random4_n`` letters over 4 letters."""
    rng = random.Random(seed)
    return Inputs(texts=("".join(rng.choices(RANDOM4_LETTERS, k=sizes.random4_n)),))


def wn(seed: int, sizes: Sizes) -> Inputs:
    """The palindrome pair ``a1 .. ak ak .. a1`` over ``wn_k`` seeded letters."""
    rng = random.Random(seed)
    codes = rng.sample(WN_POOL, sizes.wn_k)
    letters = [chr(c) for c in codes]
    return Inputs(texts=("".join(letters + letters[::-1]),))


def planted(seed: int, sizes: Sizes) -> Inputs:
    """One imprimitive word ``f(u)`` for a random idempotent morphism ``f``.

    ``f`` keeps ``PLANTED_EXPANDING`` of ``PLANTED_ALPHABET`` letters.  Each
    kept letter's image is ``x e y``: the letter once, flanked by erased
    letters, ``PLANTED_IMAGE_LEN`` letters in all.  Every erased letter
    occurs in some image and ``u`` holds every kept letter, so the alphabet
    of ``f(u)`` is all twelve letters and ``f(f(u)) = f(u)``.
    """
    rng = random.Random(seed)
    letters = rng.sample(PLANTED_POOL, PLANTED_ALPHABET)
    expanding = letters[:PLANTED_EXPANDING]
    erased = letters[PLANTED_EXPANDING:]
    side = PLANTED_IMAGE_LEN - 1
    slots = erased + rng.choices(erased, k=side * len(expanding) - len(erased))
    rng.shuffle(slots)
    images: dict[str, str] = {c: "" for c in erased}
    for i, e in enumerate(expanding):
        part = "".join(slots[i * side : (i + 1) * side])
        cut = rng.randint(0, side)
        images[e] = part[:cut] + e + part[cut:]
    u = expanding + rng.choices(expanding, k=sizes.planted_n // PLANTED_IMAGE_LEN - len(expanding))
    rng.shuffle(u)
    return Inputs(texts=("".join(images[e] for e in u),), planted_images=images)


def stream(seed: int, sizes: Sizes) -> Inputs:
    """``stream_words`` short words: 1 to 16 letters over at most 4 letters.

    Lengths are drawn in pairs ``k, 17 - k`` and shuffled, so each length is
    still uniform on 1..16 but every seed gives the same number of letters:
    the letters per pass, and with them the memory the command holds, do not
    vary with the seed.
    """
    rng = random.Random(seed)
    lengths = []
    for _ in range(sizes.stream_words // 2):
        k = rng.randint(1, STREAM_MAX_LEN)
        lengths += [k, STREAM_MAX_LEN + 1 - k]
    rng.shuffle(lengths)
    return Inputs(texts=tuple("".join(rng.choices(STREAM_LETTERS, k=k)) for k in lengths))


GENERATORS = {"random4": random4, "wn": wn, "planted": planted, "stream": stream}
