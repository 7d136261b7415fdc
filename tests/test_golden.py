"""Golden digest: the engine's outputs on a fixed corpus must not change.

A SHA-256 is taken over, for every word of the corpus, the verdict, the
expanding set, the images, each round's letter, neighborhood and L/R cuts,
the factor cuts and the counters ``visits``, ``edges`` and ``loop_checks``.
The counters ``scanned`` and ``cells`` are left out: they measure how the
engine does its work, and a faster engine may lower them.

A change that is meant to alter these outputs must say why and update
``GOLDEN``; a refactor must leave it as it is.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import morphprim
from morphprim import palindrome_pair_word, random_word, run
from morphprim.oracle import all_words

import digest

GOLDEN = "4df7fcbd6869bed8c11513baab7a571792d4b42e4357fe5b5d63fa1be726ca44"


def corpus():
    """All canonical words of length <= 7 on <= 4 letters, ``wn`` for
    k = 1..64, and 20 seeded random words of up to 3 000 letters."""
    yield from all_words(7, 4)
    for k in range(1, 65):
        yield palindrome_pair_word(k)
    rng = random.Random(2012)
    for seed in range(20):
        yield random_word(rng.randrange(1, 3001), rng.randrange(2, 13), seed)


def outputs(w) -> tuple:
    r = run(w)
    c = r.counters
    return (
        w.letters,
        r.primitive,
        tuple(sorted(r.expanding)),
        r.morphism.images,
        tuple(
            (rr.letter, rr.neighborhood.left_len, rr.neighborhood.right_len,
             rr.left_cuts, rr.right_cuts)
            for rr in r.rounds
        ),
        r.factor_cuts,
        (c.visits, c.edges, c.loop_checks),
    )


def test_golden_digest():
    h = hashlib.sha256()
    for w in corpus():
        h.update(repr(outputs(w)).encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN


def test_digest_dump_names_each_corpus_word(tmp_path, capsys):
    # tests/digest.py --dump writes one line per corpus word, its index and
    # the SHA-256 of its outputs, beside the two lines it always prints
    src = Path(morphprim.__file__).resolve().parents[1]
    dump = tmp_path / "digest.txt"
    assert digest.main(["--src", str(src), "--dump", str(dump)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in printed] == ["words", "traces"]
    lines = dump.read_text(encoding="ascii").splitlines()
    assert [line.split()[0] for line in lines] == [str(i) for i in range(int(printed[0].split()[0]))]
    first = next(digest.corpus(morphprim))
    text = repr(digest.outputs(morphprim, first)).encode()
    assert lines[0].split()[1] == hashlib.sha256(text).hexdigest()
