"""Brute-force oracle for morphic primitivity.

Deliberately naive and fully independent of the engine: it enumerates block
factorizations directly, with no cut sets, no neighborhoods and no
least-frequent-letter machinery, so agreement between the two is meaningful
evidence.  Intended for desk-scale cross-validation only.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple

from .words import Morphism, Word, intern_word, surface_symbol

DEFAULT_SIZE_GUARD = 16


class WordTooLongError(ValueError):
    """Raised when a word exceeds the exhaustive-search size guard."""


def _factorize(word: Word, expanding: frozenset[int]) -> dict[int, tuple[int, ...]] | None:
    """Find block images for ``expanding``, or None.

    Blocks are delimited so that each contains exactly one occurrence of an
    expanding letter; the cut after block ``i`` ranges over the window
    between that occurrence and the next one.  As soon as a letter's block
    is fixed, later blocks of the same letter are forced, which prunes the
    search.  The depth-first search keeps its open choices on an explicit
    stack, so its depth is not bounded by Python's recursion limit.
    """
    occ = [p for p, a in enumerate(word.letters, start=1) if a in expanding]
    # cuts that may end block i; the last block ends the word
    window = [range(p, nxt) for p, nxt in zip(occ, occ[1:])] + [range(word.n, word.n + 1)]
    images: dict[int, tuple[int, ...]] = {}
    # blocks whose letter got its image there, innermost last:
    # (block, its letter, cut before it, cut ending it)
    choices: list[tuple[int, int, int, int]] = []
    i = prev_cut = 0
    while i < len(occ):
        e = word.letters[occ[i] - 1]
        if e in images:
            c = prev_cut + len(images[e])
            if c in window[i] and word.segment(prev_cut + 1, c) == images[e]:
                i, prev_cut = i + 1, c
                continue
        else:
            # a new choice, moved onto the window's first cut just below
            choices.append((i, e, prev_cut, window[i].start - 1))
        # move the innermost choice to its next cut, dropping exhausted ones
        while True:
            if not choices:
                return None
            i, e, prev_cut, c = choices.pop()
            if c + 1 in window[i]:
                break
            del images[e]
        c += 1
        images[e] = word.segment(prev_cut + 1, c)
        choices.append((i, e, prev_cut, c))
        i, prev_cut = i + 1, c
    return images


def factorization_exists(word: Word, expanding: frozenset[int] | set[int]) -> bool:
    """True iff ``word`` splits into blocks with one ``expanding`` letter each.

    Equal-letter blocks must coincide, so a factorization is exactly a
    morphism fixing the word whose non-erased letters are ``expanding``.
    """
    expanding = frozenset(expanding)
    if not expanding:
        raise ValueError("expanding set must be nonempty")
    if any(a < 0 or a >= word.alphabet_size for a in expanding):
        raise ValueError("expanding set must be a subset of the alphabet")
    return _factorize(word, expanding) is not None


class OracleResult(NamedTuple):
    """Minimal expanding set found by exhaustive search."""

    size: int
    expanding: frozenset[int]
    proper: bool
    images: dict[int, tuple[int, ...]]

    def morphism(self, word: Word) -> Morphism:
        return Morphism(
            expanding=self.expanding,
            images=tuple(
                self.images.get(a, ()) for a in range(word.alphabet_size)
            ),
        )


def _check_guard(word: Word, max_len: int, force: bool) -> None:
    if word.n > max_len and not force:
        raise WordTooLongError(
            f"word of length {word.n} exceeds the size guard {max_len}; "
            "raise the limit or force the search to override"
        )


def min_expanding(
    word: Word, max_len: int = DEFAULT_SIZE_GUARD, force: bool = False
) -> OracleResult:
    """Smallest expanding set admitting a factorization.

    Subsets are tried in order of increasing size, so the first hit is
    minimal.  The full alphabet always works (single-letter blocks), hence
    the search terminates; ``proper`` tells whether a proper subset won.
    """
    _check_guard(word, max_len, force)
    m = word.alphabet_size
    if m == 0:
        return OracleResult(size=0, expanding=frozenset(), proper=False, images={})
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            images = _factorize(word, frozenset(combo))
            if images is not None:
                return OracleResult(
                    size=size,
                    expanding=frozenset(combo),
                    proper=size < m,
                    images=images,
                )
    raise AssertionError("full alphabet must always admit a factorization")


def is_primitive_oracle(
    word: Word, max_len: int = DEFAULT_SIZE_GUARD, force: bool = False
) -> bool:
    """True iff no proper alphabet subset admits a factorization."""
    return not min_expanding(word, max_len=max_len, force=force).proper


def all_words(max_len: int, max_alphabet: int) -> Iterator[Word]:
    """Every word of length 1..max_len, one per isomorphism class.

    Canonical labeling assigns letter ids in order of first appearance, so
    each position may use any letter seen so far or the next fresh one (up
    to ``max_alphabet``).
    """
    def patterns(length: int) -> Iterator[tuple[int, ...]]:
        prefix: list[int] = []

        def rec(used: int) -> Iterator[tuple[int, ...]]:
            if len(prefix) == length:
                yield tuple(prefix)
                return
            for a in range(min(used + 1, max_alphabet)):
                prefix.append(a)
                yield from rec(max(used, a + 1))
                prefix.pop()

        yield from rec(0)

    for length in range(1, max_len + 1):
        for pattern in patterns(length):
            yield intern_word(surface_symbol(a) for a in pattern)
