"""Peak memory of ``run()``: the ``tracemalloc`` peak of one run, per word.

Usage::

    python tests/peak.py

with ``morphprim`` importable (installed, or ``PYTHONPATH=src``), prints one
line per fixed word: its name, its length ``n``, the peak of ``run(w)`` in
bytes and in bytes per letter, and the peak of ``run(intern_word(text))``
per letter, where ``text`` is what ``intern_word`` reads to build the word
(``source``).  The second peak is counted as the benchmark's
``peak_alloc_mb`` counts a pass: garbage collected first, then the
interning and the run, so it adds the word's letters and the list they are
gathered in.  The words are ``"abccc" * 4000``,
``random_word(16000, 4, seed=1)``, ``palindrome_pair_word(1024)``, a
planted word ``f(u)`` of the benchmark's ``planted`` shape (12 letters, 3
kept, ``tests/digest.py``'s ``planted_word``) and ``"ab" * 50000``, whose
result holds an int object for each of its cuts, each built before tracing
starts, so the first peak counts only what ``run()`` allocates, its
occurrence index included.  The counts depend on the Python version, not on
the machine's speed or load, so two logs of one version compare directly.
``tests/test_engine.py`` and ``tests/test_words.py`` take their memory gates'
counts from here.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import morphprim
from morphprim import intern_word, palindrome_pair_word, random_word, run

from digest import planted_word


def traced_peak(call, arg) -> int:
    """The most memory ``call(arg)`` holds at once, in bytes, by
    ``tracemalloc``, collecting garbage first."""
    gc.collect()
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_alloc(w) -> int:
    """The peak of ``run(w)``."""
    return traced_peak(run, w)


def interned_peak_alloc(text) -> int:
    """The peak of ``run(intern_word(text))``, with the word it builds."""
    return traced_peak(lambda t: run(intern_word(t)), text)


def source(w) -> str | list[str]:
    """What ``intern_word`` reads to build ``w``: its text, split into
    tokens where a symbol is longer than one character."""
    text = w.render()
    return text if len(text) == w.n else text.split()


def main() -> None:
    words = {
        '"abccc" * 4000': intern_word("abccc" * 4000),
        "random_word(16000, 4, seed=1)": random_word(16000, 4, seed=1),
        "palindrome_pair_word(1024)": palindrome_pair_word(1024),
        "planted_word(12, 3, 3000, seed=1)":
            planted_word(morphprim, random.Random(1), 12, 3, 3000),
        '"ab" * 50000': intern_word("ab" * 50000),
    }
    print("word\tn\tpeak_bytes\tbytes_per_letter\tinterned_bytes_per_letter")
    for name, w in words.items():
        peak = peak_alloc(w)
        interned = interned_peak_alloc(source(w))
        print(f"{name}\t{w.n}\t{peak}\t{peak / w.n:.1f}\t{interned / w.n:.1f}")


if __name__ == "__main__":
    main()
