"""Word representation, occurrence indexing and neighborhoods.

Conventions used throughout the package: letters are dense 0-based ids,
positions in a word are 1-based (``w[1] .. w[n]``), and cuts are 0-based
borders between letters (cut ``k`` follows the prefix of length ``k``, so a
word of length ``n`` has cuts ``0 .. n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple


@dataclass(frozen=True)
class Word:
    """An interned word over a compact alphabet.

    ``letters[i]`` is the letter id at 1-based position ``i + 1``;
    ``symbols[a]`` is the surface form of letter id ``a``. Every id below
    ``alphabet_size`` occurs in ``letters``, i.e. the alphabet is exactly
    the set of letters occurring in the word.
    """

    letters: tuple[int, ...]
    symbols: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def alphabet_size(self) -> int:
        return len(self.symbols)

    def segment(self, i: int, j: int) -> tuple[int, ...]:
        """Letter ids at positions ``i .. j`` inclusive (empty if ``i > j``)."""
        return self.letters[i - 1 : j]

    def render(self, letters: Iterable[int] | None = None) -> str:
        """Surface form of ``letters`` (the whole word by default).

        Single-character alphabets are concatenated; alphabets containing a
        multi-character symbol are joined with spaces.
        """
        ids = self.letters if letters is None else tuple(letters)
        sep = " " if any(len(s) > 1 for s in self.symbols) else ""
        return sep.join(self.symbols[a] for a in ids)


def intern_word(symbols: Iterable[str]) -> Word:
    """Intern a sequence of surface symbols into a :class:`Word`.

    Letter ids are assigned in order of first appearance, so the result
    round-trips to the original symbols via ``symbols``.
    """
    ids: dict[str, int] = {}
    letters = []
    for s in symbols:
        if s not in ids:
            ids[s] = len(ids)
        letters.append(ids[s])
    return Word(letters=tuple(letters), symbols=tuple(ids))


def surface_symbol(i: int) -> str:
    """Surface form of the ``i``-th letter: ``a`` .. ``z``, then ``x1``, ``x2``, ..."""
    if i < 26:
        return chr(ord("a") + i)
    return f"x{i - 25}"


@dataclass(frozen=True)
class PosIndex:
    """Per-letter occurrence counts and 1-based occurrence positions.

    ``pos[a][i]`` is the position of the ``i + 1``-th occurrence of letter
    ``a``; ``count[a] == len(pos[a])`` and counts sum to the word length.
    """

    count: tuple[int, ...]
    pos: tuple[tuple[int, ...], ...]


def build_index(w: Word) -> PosIndex:
    """Build the occurrence index in one left-to-right pass."""
    occ: list[list[int]] = [[] for _ in range(w.alphabet_size)]
    for p, a in enumerate(w.letters, start=1):
        occ[a].append(p)
    return PosIndex(count=tuple(map(len, occ)), pos=tuple(map(tuple, occ)))


class Neighborhood(NamedTuple):
    """Maximal common context of all occurrences of one letter.

    ``left_len`` and ``right_len`` are the lengths of the longest extensions
    to the left and right on which all occurrences agree without crossing a
    word boundary.  ``visited`` counts the positions read while computing
    them (it is at most ``2n``: left parts of distinct occurrences are
    disjoint, and so are right parts).
    """

    left_len: int
    right_len: int
    visited: int = 0


def neighborhood(w: Word, idx: PosIndex, a: int) -> Neighborhood:
    """Compute the neighborhood of letter ``a`` in ``w``.

    A letter with a single occurrence extends to both word boundaries.
    """
    if not 0 <= a < w.alphabet_size or idx.count[a] == 0:
        raise ValueError(f"letter {a} does not occur in the word")
    occ = idx.pos[a]
    right, right_visited = _common_extension(w.letters, occ, 1)
    left, left_visited = _common_extension(w.letters, occ, -1)
    return Neighborhood(left_len=left, right_len=right, visited=right_visited + left_visited)


def _common_extension(
    letters: tuple[int, ...], occ: tuple[int, ...], step: int
) -> tuple[int, int]:
    """Length of the common extension of ``occ`` and the positions read.

    Extends by ``step`` (+1 rightwards, -1 leftwards) while every occurrence
    reads the same letter inside the word.
    """
    n = len(letters)
    first, rest = occ[0], occ[1:]
    length = visited = 0
    while True:
        k = (length + 1) * step
        if not 1 <= first + k <= n:
            return length, visited
        visited += 1
        c = letters[first + k - 1]
        for p in rest:
            if not 1 <= p + k <= n:
                return length, visited
            visited += 1
            if letters[p + k - 1] != c:
                return length, visited
        length += 1

