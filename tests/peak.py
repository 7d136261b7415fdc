"""Peak memory of ``run()``: the ``tracemalloc`` peak of one run, per word.

Usage::

    python tests/peak.py

with ``morphprim`` importable (installed, or ``PYTHONPATH=src``), prints one
line per fixed word: its name, its length ``n``, the peak in bytes and the
peak in bytes per letter.  The words are ``"abccc" * 4000``,
``random_word(16000, 4, seed=1)``, ``palindrome_pair_word(1024)``, a
planted word ``f(u)`` of the benchmark's ``planted`` shape (12 letters, 3
kept, ``tests/digest.py``'s ``planted_word``) and ``"ab" * 50000``, whose
result holds an int object for each of its cuts, each built before tracing
starts, so the peak counts only what ``run()`` allocates, its occurrence
index included.  The counts depend on the Python version, not on the
machine's speed or load, so two logs of one version compare directly.
``tests/test_engine.py`` imports ``peak_alloc`` from here.
"""

from __future__ import annotations

import random
import tracemalloc

import morphprim
from morphprim import intern_word, palindrome_pair_word, random_word, run

from digest import planted_word


def peak_alloc(w) -> int:
    """The most memory ``run(w)`` holds at once, in bytes, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        run(w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    words = {
        '"abccc" * 4000': intern_word("abccc" * 4000),
        "random_word(16000, 4, seed=1)": random_word(16000, 4, seed=1),
        "palindrome_pair_word(1024)": palindrome_pair_word(1024),
        "planted_word(12, 3, 3000, seed=1)":
            planted_word(morphprim, random.Random(1), 12, 3, 3000),
        '"ab" * 50000': intern_word("ab" * 50000),
    }
    print("word\tn\tpeak_bytes\tbytes_per_letter")
    for name, w in words.items():
        peak = peak_alloc(w)
        print(f"{name}\t{w.n}\t{peak}\t{peak / w.n:.1f}")


if __name__ == "__main__":
    main()
