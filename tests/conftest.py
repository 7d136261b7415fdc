"""Shared helpers: corpora and exhaustive stability/fixed-point audits."""

from __future__ import annotations

import pytest

from morphprim import (
    FactorizationResult,
    Word,
    alpha_naive,
    build_index,
    left_right_cut_check,
    neighborhood,
    verify,
)

EXAMPLE_WORD = "caabcaadeaabeaad"


def first_violation_naive(w: Word, state) -> int | None:
    """The letter of the first left cut whose stretch violates, by alpha_naive."""
    left, right = state.left_cuts, state.right_cuts
    for l in left:
        if l >= w.n:
            continue
        r = min(c for c in right if c > l)
        a = w.at(alpha_naive(w, state.index, l, r))
        if a not in state.expanding:
            return a
    return None


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
                assert w.at(alpha_naive(w, idx, i, j)) in expanding


def assert_fixed_point(w: Word, result: FactorizationResult) -> None:
    """Witness morphism fixes the word, is idempotent, and matches the cuts."""
    f = result.morphism
    assert verify(w, f)
    if not result.primitive:
        assert any(img == () for img in f.images)
    else:
        assert f.is_identity()
    assert left_right_cut_check(w, f, list(result.left_cuts), list(result.right_cuts))


def assert_counter_bounds(w: Word, result: FactorizationResult) -> None:
    """Per-round and whole-run work bounds.

    Per round: the violation scan reads at most n (it resumes where the
    last round's changes begin, so it often reads far fewer).  Its count is
    positions read by suffix scans plus, per range-minimum query, one per
    occurrence list probed and one for the letter read; a query reads at
    most d + 1 (d distinct frequencies), and a segment holding q left cuts
    is queried only when (d + 1) * q is less than its length, so no segment
    costs more than its length.  Neighborhood computation reads at most 2n
    positions, fewer than 2n synchronization edges are added, and
    recompression touches at most 8n + 2 cells.  A cell is one root-search
    hop or one cut pointed at a new root (at most n of those); with linking
    by index and path halving the hops are not linear in the worst case,
    so this bound is a measured one, not a proven one (see
    ``SyncForest.recompress``).
    """
    n = w.n
    e = len(result.expanding)
    for r in result.rounds:
        assert r.scanned <= n
        assert r.visits <= 2 * n
        assert r.edges < 2 * n
        assert r.cells <= 8 * n + 2
    assert result.round_count == e
    assert result.counters.loop_checks == e + 1
    assert result.counters.scanned <= (e + 1) * n


@pytest.fixture(scope="session")
def small_corpus():
    """Every canonical word of length <= 8 over at most 4 letters."""
    from morphprim.oracle import all_words

    return list(all_words(8, 4))
