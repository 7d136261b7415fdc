"""Differential digest: a SHA-256 over everything ``run()`` reports.

Usage::

    python tests/digest.py --src src

puts ``--src`` first on ``sys.path``, imports ``morphprim`` from there, runs
``run()`` over a fixed corpus and prints the number of words and a SHA-256
over, for every word, the verdict, the expanding set, the images, the
factor cuts, the final L/R cuts, each round's letter, neighborhood (with
``visited``), ``scanned``, ``edges``, ``cells`` and L/R cuts, and all five
counters.  Run it on two checkouts (``--src other/src``) to show that a
change leaves every output and counter as it was.  Unlike the golden digest
of ``test_golden.py`` it covers the ``scanned`` and ``cells`` counters,
which a change to how the engine works may move on purpose, so it is a tool
to compare two trees, not a test.

The corpus: every canonical word of length at most 8 over at most 4
letters, ``wn`` for k = 1..128, 60 seeded random words of up to 5 000
letters over 2 to 30 letters, periodic words, and words ``f(u)`` with a
planted idempotent morphism ``f``, generated here from fixed seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path


def planted_word(mp, rng: random.Random, m: int, kept: int, length: int):
    """A word ``f(u)`` where ``f`` keeps ``kept`` of ``m`` letters.

    Each kept letter ``e`` maps to ``x e y`` with ``x`` and ``y`` over the
    erased letters; every erased letter occurs in some image and ``u``
    holds every kept letter, so the word's alphabet is all ``m`` letters.
    """
    symbols = [mp.words.surface_symbol(i) for i in range(m)]
    expanding, erased = symbols[:kept], symbols[kept:]
    images = {}
    for i, e in enumerate(expanding):
        # the erased letters are dealt out over the images in turn
        part = erased[i::kept] + rng.choices(erased, k=rng.randrange(4))
        rng.shuffle(part)
        cut = rng.randrange(len(part) + 1)
        images[e] = part[:cut] + [e] + part[cut:]
    u = expanding + rng.choices(expanding, k=length)
    return mp.intern_word([c for e in u for c in images[e]])


def corpus(mp):
    yield from mp.all_words(8, 4)
    for k in range(1, 129):
        yield mp.palindrome_pair_word(k)
    rng = random.Random(2026)
    for seed in range(60):
        yield mp.random_word(rng.randrange(1, 5001), rng.randrange(2, 31), seed)
    for period, reps in [("ab", 500), ("aab", 400), ("abccc", 600), ("abcab", 300), ("abcdbca", 200)]:
        yield mp.intern_word(period * reps)
    for seed in range(12):
        r = random.Random(seed)
        m = r.randrange(3, 13)
        yield planted_word(mp, r, m, r.randrange(1, m), r.randrange(1, 800))


def outputs(mp, w) -> tuple:
    r = mp.run(w)
    c = r.counters
    return (
        w.letters,
        r.primitive,
        tuple(sorted(r.expanding)),
        r.morphism.images,
        r.factor_cuts,
        r.left_cuts,
        r.right_cuts,
        tuple(
            (rr.number, rr.letter, tuple(rr.neighborhood), rr.scanned,
             rr.edges, rr.cells, rr.left_cuts, rr.right_cuts)
            for rr in r.rounds
        ),
        (c.scanned, c.visits, c.edges, c.cells, c.loop_checks),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the morphprim package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import morphprim as mp

    if src not in Path(mp.__file__).resolve().parents:
        parser.error(f"morphprim was imported from {mp.__file__}, not from {src}")
    h = hashlib.sha256()
    count = 0
    for w in corpus(mp):
        h.update(repr(outputs(mp, w)).encode())
        h.update(b"\n")
        count += 1
    print(f"{count} words sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
