"""Shared helpers: corpora, reference implementations the engine is checked
against, and exhaustive stability/fixed-point audits."""

from __future__ import annotations

import random
from bisect import bisect_right
from math import log2

import pytest
from hypothesis import settings

import morphprim
from morphprim import FactorizationResult, Morphism, Word, verify
from morphprim.engine import Counters, prefix_image_lengths
from morphprim.words import PosIndex, build_index, neighborhood

from digest import planted_word

EXAMPLE_WORD = "caabcaadeaabeaad"

# a wider sweep, selected with --hypothesis-profile=ci; tests that set their
# own max_examples keep it
settings.register_profile("ci", max_examples=400)


def at(w: Word, p: int) -> int:
    """Letter id at 1-based position ``p``."""
    if not 1 <= p <= w.n:
        raise IndexError(f"position {p} out of range 1..{w.n}")
    return w.letters[p - 1]


def alpha_naive(w: Word, idx: PosIndex, i: int, j: int) -> int:
    """Leftmost position in ``(i, j]`` of a letter with minimal frequency.

    Frequency is measured in the whole word, not in the factor; ties break
    to the leftmost position.  This is the reference implementation used to
    cross-check the amortized segment scan in the engine.
    """
    if not 0 <= i < j <= w.n:
        raise ValueError(f"invalid cut interval ({i}, {j}] for length {w.n}")
    best = i + 1
    best_freq = idx.count[at(w, best)]
    for k in range(i + 2, j + 1):
        f = idx.count[at(w, k)]
        if f < best_freq:
            best, best_freq = k, f
    return best


def neighborhood_by_walk(w: Word, idx: PosIndex, a: int) -> tuple[int, int, int]:
    """Reference ``(left_len, right_len, visited)`` of letter ``a``, walked
    one step at a time with a range check at every position."""
    occ = idx.pos[a]
    right, right_visited = _extension_by_walk(w.letters, occ, 1)
    left, left_visited = _extension_by_walk(w.letters, occ, -1)
    return left, right, right_visited + left_visited


def _extension_by_walk(letters, occ, step):
    """Extends by ``step`` while every occurrence reads the same letter
    inside the word; each step reads the first occurrence, then the others
    in order up to the first that differs or would leave the word."""
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


def image_by_walk(state, k):
    """Reference readout: walk the forest's flags cut by cut from ``k``."""
    left, right = state.forest.flags["L"], state.forest.flags["R"]
    i = 0
    while not right[k - i - 1]:
        i += 1
    best_j = j = 0
    while True:
        if right[k + j]:
            best_j = j
        if left[k + j]:
            break
        j += 1
    return state.word.segment(k - i, k + best_j)


def add_star(forest, occ, lo: int, hi: int) -> int:
    """Buffer in ``forest.pending`` the edges ``(occ[0] + m, k + m)`` for
    every later ``k`` in ``occ`` and every ``m`` in ``range(lo, hi)``, as
    ``expand_letter`` buffers its star; components change only at the next
    recompress.

    Returns the number of edges buffered.  A cut out of range raises
    ``ValueError`` and buffers nothing.
    """
    if len(occ) < 2 or hi <= lo:
        return 0
    low, high = min(occ) + lo, max(occ) + hi - 1
    if low < 0 or high > forest.n:
        cut = low if low < 0 else high
        raise ValueError(f"cut {cut} out of range 0..{forest.n}")
    forest.pending.append((occ, lo, hi))
    return (len(occ) - 1) * (hi - lo)


def same_component(forest, c: int, d: int) -> bool:
    """Whether the cuts ``c`` and ``d`` share a component: one cut, or one
    member array."""
    return c == d or (forest.comp[c] is not None and forest.comp[c] is forest.comp[d])


def assert_components(forest) -> None:
    """The member arrays' invariants: every non-``None`` ``comp[c]`` holds
    ``c``; every member of an array has that same array object as its
    entry; the arrays are disjoint and cover the cuts whose entry is not
    ``None``; the members of each agree on both sides' bytes; and a cut on
    a side is never lone, so a ``None`` entry is on neither side and an
    array has one member only when that cut is on a side."""
    comp = forest.comp
    fl, fr = forest.flags["L"], forest.flags["R"]
    assert len(comp) == forest.n + 1
    arrays = {id(members): members for members in comp if members is not None}
    for c, members in enumerate(comp):
        assert members is None or c in members
        assert members is not None or not (fl[c] or fr[c])
    for members in arrays.values():
        assert members.typecode == "I"
        assert len(members) >= 2 or fl[members[0]] or fr[members[0]]
        assert all(comp[x] is members for x in members)
        for flags in (fl, fr):
            assert all(flags[x] == flags[members[0]] for x in members)
    moved = sorted(x for members in arrays.values() for x in members)
    assert moved == [c for c, members in enumerate(comp) if members is not None]


def assert_sides(forest) -> None:
    """The byte arrays and the join logs are keyed by exactly ``L`` and
    ``R``; each side's byte array is 1 exactly at the cuts in its join log,
    an ``array("I")``, no cut is logged twice, and the member arrays keep
    their invariants (``assert_components``), so the members of a
    component agree on both byte arrays.  Calls no ``flagged_cuts``."""
    assert set(forest.flags) == set(forest.log) == {"L", "R"}
    for side in "LR":
        flags, log = forest.flags[side], forest.log[side]
        assert log.typecode == "I"
        log = log.tolist()
        assert len(flags) == forest.n + 1
        assert len(set(log)) == len(log)
        assert sorted(log) == [c for c, bit in enumerate(flags) if bit]
        assert set(flags) <= {0, 1}
    assert_components(forest)


def total_work(c: Counters) -> int:
    """The four work counters of a run, summed."""
    return c.scanned + c.visits + c.edges + c.cells


def factor_cuts_by_definition(w: Word, f: Morphism) -> tuple[int, ...]:
    """The cuts ``k`` with ``|f(w[1..k])| = k``, from the running image length."""
    plen = prefix_image_lengths(w, f)
    return tuple(k for k, t in enumerate(plen) if t == k)


def left_right_cut_check(w: Word, f: Morphism, left: list[int], right: list[int]) -> bool:
    """Check that claimed left/right cuts are left/right cuts of ``f``.

    A cut ``k`` is left if the image of the length-``k`` prefix is at most
    ``k`` long, right if at least ``k`` long.
    """
    plen = prefix_image_lengths(w, f)
    return all(plen[k] <= k for k in left) and all(plen[k] >= k for k in right)


def first_violation_of_cuts(w: Word, idx: PosIndex, left, right, expanding) -> int | None:
    """The letter of the first left cut whose stretch violates, by
    alpha_naive: the least frequent letter between the cut and the next
    right cut is not in ``expanding``.  ``left`` and ``right`` are sorted
    and hold ``n``."""
    for l in left:
        if l < w.n:
            a = at(w, alpha_naive(w, idx, l, right[bisect_right(right, l)]))
            if a not in expanding:
                return a
    return None


def first_violation_naive(w: Word, state) -> int | None:
    """``first_violation_of_cuts`` on an engine state's cut sets."""
    left, right = state.forest.flagged_cuts("L"), state.forest.flagged_cuts("R")
    return first_violation_of_cuts(w, state.index, left, right, state.expanding)


def assert_stable(w: Word, result: FactorizationResult) -> None:
    """Exhaustive (quadratic) check of all stability conditions at exit."""
    idx = build_index(w)
    left, right = set(result.left_cuts), set(result.right_cuts)
    expanding = result.expanding

    # extremal cuts on both sides
    assert {0, w.n} <= left and {0, w.n} <= right

    for a in expanding:
        nb = neighborhood(w, idx, a)
        occ = idx.pos[a]
        for k in occ:
            # occurrence delimited by a left and a right cut
            assert k - 1 in left and k in right
            # neighborhood delimited by a right and a left cut
            assert k + nb.right_len in left
            assert k - nb.left_len - 1 in right
        # synchronization of all occurrence pairs over the full offset range
        for k in occ:
            for k2 in occ:
                for m in range(-nb.left_len - 1, nb.right_len + 1):
                    assert ((k + m) in left) == ((k2 + m) in left)
                    assert ((k + m) in right) == ((k2 + m) in right)

    # least-frequent-letter condition over ALL cut pairs, via the naive path
    for i in left:
        for j in right:
            if i < j:
                assert at(w, alpha_naive(w, idx, i, j)) in expanding


def assert_fixed_point(w: Word, result: FactorizationResult) -> None:
    """Witness morphism fixes the word, is idempotent, and matches the cuts."""
    f = result.morphism
    assert verify(w, f)
    if not result.primitive:
        assert any(img == () for img in f.images)
    else:
        assert f.images == tuple((a,) for a in range(w.alphabet_size))
    assert left_right_cut_check(w, f, list(result.left_cuts), list(result.right_cuts))


def assert_counter_bounds(w: Word, result: FactorizationResult) -> None:
    """Per-round and whole-run work bounds.

    Per round: the violation scan reads at most n (it resumes where the
    last round's changes begin, so it often reads far fewer).  Its count is
    positions read by suffix scans plus, per range-minimum query, one per
    occurrence list probed and one for the letter read; a query reads at
    most d + 1 (d distinct frequencies), and a segment is queried only when
    it is longer than that, so no segment costs more than its length.
    Neighborhood computation reads at most 2n positions, fewer than 2n
    synchronization edges are added, and recompression counts at most
    8n + 2 cells, a bound that is measured, not proven.

    Whole run: a cell is one cut moved into another component's member
    array, which happens only when the cut's component at least doubles,
    so the cells of a run over N = n + 1 cuts are at most
    (N / 2) * log2(N), a proven bound (see ``SyncForest.recompress``).
    """
    n = w.n
    e = len(result.expanding)
    for r in result.rounds:
        assert r.scanned <= n
        assert r.neighborhood.visited <= 2 * n
        assert r.edges < 2 * n
        assert r.cells <= 8 * n + 2
    assert result.round_count == e
    assert result.counters.loop_checks == e + 1
    assert result.counters.scanned <= (e + 1) * n
    assert result.counters.cells <= (n + 1) / 2 * log2(n + 1)


def planted(seed, length):
    """A seeded word ``f(u)``, where ``u`` holds ``length`` letters plus one
    of each kept letter, and the number of letters ``f`` keeps."""
    rng = random.Random(seed)
    m = rng.randrange(3, 13)
    kept = rng.randrange(1, m)
    return planted_word(morphprim, rng, m, kept, length), kept


@pytest.fixture(scope="session")
def small_corpus():
    """Every canonical word of length <= 8 over at most 4 letters."""
    from morphprim.oracle import all_words

    return list(all_words(8, 4))
