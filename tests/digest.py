"""Differential digest: SHA-256s over everything ``run()`` reports.

Usage::

    python tests/digest.py --src src [--dump PATH]

puts ``--src`` first on ``sys.path``, imports ``morphprim`` from there, runs
``run()`` over a fixed corpus and prints three lines.  The first gives the
number of words and the *outputs* hash: a SHA-256 over, for every word, the
verdict, the expanding set, the images, the factor cuts, the final L/R
cuts, each round's letter, neighborhood (with ``visited``), ``edges`` and
L/R cuts, and the counters ``visits``, ``edges`` and ``loop_checks``.  The
second gives the *work* hash, over the counters that measure how the engine
does its work, ``scanned`` and ``cells``, per round and per run.  The third
gives the number of traces and a SHA-256 over the ``trace`` command's JSON
for the worked example, ``wn`` for k = 1..64 and every canonical word of
length at most 6 over at most 4 letters.  ``tests/test_golden.py`` pins all
three: a refactor leaves them as they are, and a change that moves the work
hash on purpose says why.  Run it on two checkouts (``--src other/src``) to
compare them.  ``--dump PATH`` also writes one line per corpus word to
``PATH``: its index and the SHA-256s of its outputs and of its work, so
that ``diff`` of two trees' dumps names the first word that differs.

The corpus: every canonical word of length at most 8 over at most 4
letters, ``wn`` for k = 1..128, 60 seeded random words of up to 5 000
letters over 2 to 30 letters, periodic words, words ``f(u)`` with a
planted idempotent morphism ``f``, and 4 000 structured words of 10 to 40
letters (see ``structured_word``), generated here from fixed seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
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


def structured_word(mp, rng: random.Random, length: int):
    """A block of 1 to 7 letters repeated, with 0 to 3 random letters after
    each copy, until the word is at least ``length`` letters long.

    Such words hold segments with many left cuts, where which of
    ``find_violation``'s two reads a segment takes shows in ``scanned``.
    """
    alphabet = [mp.words.surface_symbol(i) for i in range(rng.randrange(2, 10))]
    block = rng.choices(alphabet, k=rng.randrange(1, 8))
    letters = []
    while len(letters) < length:
        letters += block + rng.choices(alphabet, k=rng.randrange(4))
    return mp.intern_word(letters)


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
    rng = random.Random(16)
    for _ in range(4000):
        yield structured_word(mp, rng, rng.randrange(10, 41))


def trace_corpus(mp):
    yield mp.intern_word("caabcaadeaabeaad")
    for k in range(1, 65):
        yield mp.palindrome_pair_word(k)
    yield from mp.all_words(6, 4)


def outputs_and_work(mp, w) -> tuple[tuple, tuple]:
    """What ``run(w)`` reports, and the counters of how it did the work."""
    r = mp.run(w)
    c = r.counters
    outputs = (
        # by value, so the hash does not depend on the letters' type
        tuple(w.letters),
        r.primitive,
        tuple(sorted(r.expanding)),
        r.morphism.images,
        r.factor_cuts,
        r.left_cuts,
        r.right_cuts,
        tuple(
            (number, rr.letter, tuple(rr.neighborhood), rr.edges,
             rr.left_cuts, rr.right_cuts)
            for number, rr in enumerate(r.rounds, start=1)
        ),
        (c.visits, c.edges, c.loop_checks),
    )
    work = (tuple((rr.scanned, rr.cells) for rr in r.rounds), (c.scanned, c.cells))
    return outputs, work


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the morphprim package")
    parser.add_argument("--dump", type=Path, help="write each corpus word's index, outputs hash and work hash here")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import morphprim as mp
    from morphprim.cli import _dump, trace_document

    if src not in Path(mp.__file__).resolve().parents:
        parser.error(f"morphprim was imported from {mp.__file__}, not from {src}")
    h_out, h_work = hashlib.sha256(), hashlib.sha256()
    count = 0
    with open(args.dump or os.devnull, "w", encoding="ascii") as dump:
        for w in corpus(mp):
            line = [str(count)]
            for h, part in zip((h_out, h_work), outputs_and_work(mp, w)):
                text = repr(part).encode()
                h.update(text)
                h.update(b"\n")
                line.append(hashlib.sha256(text).hexdigest())
            dump.write(" ".join(line) + "\n")
            count += 1
    print(f"{count} words outputs sha256 {h_out.hexdigest()}")
    print(f"{count} words work sha256 {h_work.hexdigest()}")
    h = hashlib.sha256()
    count = 0
    for w in trace_corpus(mp):
        h.update(_dump(trace_document(w, mp.run(w))).encode())
        h.update(b"\n")
        count += 1
    print(f"{count} traces sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
