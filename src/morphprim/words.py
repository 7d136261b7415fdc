"""Word representation, occurrence indexing, neighborhoods and morphisms.

Conventions used throughout the package: letters are dense 0-based ids,
positions in a word are 1-based (``w[1] .. w[n]``), and cuts are 0-based
borders between letters (cut ``k`` follows the prefix of length ``k``, so a
word of length ``n`` has cuts ``0 .. n``).  A word keeps one byte per
letter (``bytes``) over at most 256 letters, and four (``array("I")``, ids
below ``2**32``) over more.
"""

from __future__ import annotations

from array import array
from typing import Iterable, NamedTuple, Sequence


class Word:
    """An interned word over a compact alphabet.

    ``letters[i]`` is the letter id at 1-based position ``i + 1``;
    ``symbols[a]`` is the surface form of letter id ``a``. Every id below
    ``alphabet_size`` occurs in ``letters``, i.e. the alphabet is exactly
    the set of letters occurring in the word.

    ``letters`` is ``bytes``, one byte per letter, when the alphabet has at
    most 256 letters, and an ``array("I")``, four bytes per letter, beyond
    that, so ids stay below ``2**32``.  The constructor picks the type from
    ``len(symbols)`` alone and copies any iterable of ids into it, so two
    words over alphabets of one size hold the same type.  Both index,
    slice and iterate as ints; neither is a tuple, so ``segment`` returns
    one, and a caller that compares ``letters`` with a tuple converts it.

    The fields are read-only by convention: nothing stops an assignment,
    but equality and the hash read them, and engine states keep the word.
    A word is not a tuple, so ``len`` and iteration are not defined on it,
    and it equals only another ``Word`` with the same fields.
    """

    __slots__ = ("letters", "symbols")

    def __init__(self, letters: Iterable[int], symbols: tuple[str, ...]):
        self.letters = bytes(letters) if len(symbols) <= 256 else array("I", letters)
        self.symbols = symbols

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Word:
            return NotImplemented
        return self.letters == other.letters and self.symbols == other.symbols

    def __hash__(self) -> int:
        # an array is unhashable; two of one typecode are equal exactly when
        # their bytes are
        return hash((bytes(self.letters), self.symbols))

    def __repr__(self) -> str:
        return f"Word(letters={tuple(self.letters)!r}, symbols={self.symbols!r})"

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def alphabet_size(self) -> int:
        return len(self.symbols)

    def segment(self, i: int, j: int) -> tuple[int, ...]:
        """Letter ids at positions ``i .. j`` inclusive (empty if ``i > j``),
        as a tuple."""
        return tuple(self.letters[i - 1 : j])

    def render(self, letters: Iterable[int] | None = None, sep: str | None = None) -> str:
        """Surface form of ``letters`` (the whole word by default), their
        symbols joined with ``sep``.

        By default, single-character alphabets are concatenated and
        alphabets containing a multi-character symbol are joined with
        spaces.
        """
        ids = self.letters if letters is None else letters
        if sep is None:
            sep = " " if any(len(s) > 1 for s in self.symbols) else ""
        return sep.join(self.symbols[a] for a in ids)


def intern_word(symbols: Iterable[str]) -> Word:
    """Intern a sequence of surface symbols into a :class:`Word`.

    Letter ids are assigned in order of first appearance, so the result
    round-trips to the original symbols via ``symbols``.  The ids are
    gathered in a list, which ``Word`` copies into its letter type.
    """
    ids: dict[str, int] = {}
    letters = []
    for s in symbols:
        if s not in ids:
            ids[s] = len(ids)
        letters.append(ids[s])
    return Word(letters, tuple(ids))


def surface_symbol(i: int) -> str:
    """Surface form of the ``i``-th letter: ``a`` .. ``z``, then ``x1``, ``x2``, ..."""
    if i < 26:
        return chr(ord("a") + i)
    return f"x{i - 25}"


class Morphism(NamedTuple):
    """Letter-to-word map; letters outside ``expanding`` map to the empty word."""

    expanding: frozenset[int]
    images: tuple[tuple[int, ...], ...]

    def apply(self, letters: Iterable[int]) -> tuple[int, ...]:
        out: list[int] = []
        for a in letters:
            out.extend(self.images[a])
        return tuple(out)


class PosIndex(NamedTuple):
    """Per-letter occurrence counts and 1-based occurrence positions.

    ``pos[a][i]`` is the position of the ``i + 1``-th occurrence of letter
    ``a``; ``count[a] == len(pos[a])`` and counts sum to the word length.
    Each ``pos[a]`` is an ``array("I")`` of 32-bit positions, so a
    position is at most ``2**32 - 1`` (``build_index`` raises
    ``OverflowError`` past it).  It keeps 4 bytes per position and no int
    object, where a tuple keeps an 8-byte slot and a 32-byte int for each.
    """

    count: tuple[int, ...]
    pos: tuple[array, ...]


# sliced for each letter's positions: a slice copies the typecode, where
# array("I") parses it on every call
_NO_POSITIONS = array("I")


def build_index(w: Word) -> PosIndex:
    """Build the occurrence index in one left-to-right pass."""
    occ = [_NO_POSITIONS[:] for _ in range(w.alphabet_size)]
    for p, a in enumerate(w.letters, start=1):
        occ[a].append(p)
    # tuple.__new__ skips PosIndex.__new__'s argument parsing
    return tuple.__new__(PosIndex, (tuple(map(len, occ)), tuple(occ)))


class Neighborhood(NamedTuple):
    """Maximal common context of all occurrences of one letter.

    ``left_len`` and ``right_len`` are the lengths of the longest extensions
    to the left and right on which all occurrences agree without crossing a
    word boundary.  ``visited`` counts the positions a step-by-step walk
    computing them would read (see ``neighborhood``), not the ones it
    reads; it is at most ``2n``: left parts of distinct occurrences are
    disjoint, and so are right parts.
    """

    left_len: int
    right_len: int
    visited: int


def neighborhood(w: Word, idx: PosIndex, a: int) -> Neighborhood:
    """Compute the neighborhood of letter ``a`` in ``w``.

    A letter with a single occurrence extends to both word boundaries.
    ``visited`` counts the positions a step-by-step walk reads: at each
    step the first occurrence's letter, then every other occurrence's in
    order, up to and including the first that differs or until one would
    leave the word.  The occurrences are sorted, so all of them stay inside
    the word for ``n - occ[-1]`` steps rightwards and ``occ[0] - 1``
    leftwards, and those steps are walked without range checks.  Past
    them, only a rightward walk reads more, in one step that stops at the
    last occurrence.
    """
    if not 0 <= a < len(w.symbols) or idx.count[a] == 0:
        raise ValueError(f"letter {a} does not occur in the word")
    letters, occ = w.letters, idx.pos[a]
    n, m, first = len(letters), len(occ), occ[0]
    if m == 1:
        # nothing to disagree with: one position read per step, to both ends
        # (tuple.__new__ skips Neighborhood.__new__'s argument parsing)
        return tuple.__new__(Neighborhood, (first - 1, n - first, n - 1))
    # a list of the later occurrences, so the walk reads no array slot
    rest = occ[1:].tolist()
    # a step at offset d reads letters[p + d] at each occurrence p, the
    # letter at 1-based position p + d + 1; each of the left + right steps
    # on which all agree reads all m, and the step that stops a walk reads
    # up to the first occurrence that differs
    steps = n - occ[-1]
    right, more = _first_mismatch(letters, first, rest, range(steps))
    if right is None:
        # the step that would take the last occurrence out of the word reads
        # all the others when none of them differs
        right = steps
        _, more = _first_mismatch(letters, first, rest[:-1], range(steps, steps + 1))
        more = more or m - 1
    d, seen = _first_mismatch(letters, first, rest, range(-2, -first - 1, -1))
    left = first - 1 if d is None else -d - 2
    return tuple.__new__(Neighborhood, (left, right, (left + right) * m + seen + more))


def _first_mismatch(
    letters: Sequence[int], first: int, rest: list[int], offsets: range
) -> tuple[int | None, int]:
    """The first offset ``d`` at which some occurrence in ``rest`` reads
    another letter than ``first`` does (``letters[p + d]``), and the number
    of positions the step at ``d`` reads: ``first``'s, then ``rest``'s up to
    and including the one that differs; ``(None, 0)`` if they agree at
    every offset."""
    for d in offsets:
        c = letters[first + d]
        for p in rest:
            if letters[p + d] != c:
                return d, rest.index(p) + 2
    return None, 0
