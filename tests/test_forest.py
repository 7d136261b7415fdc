from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphprim import SyncForest
from morphprim.forest import SIDE_BIT


def components(f):
    """Current components as sorted cut lists, smallest root first."""
    groups: dict[int, list[int]] = {}
    for c, root in enumerate(f.parent):
        groups.setdefault(root, []).append(c)
    return [groups[r] for r in sorted(groups)]


def flagged(f, c, side):
    """Whether the root of ``c`` carries the flag bit of ``side``."""
    return bool(f.flags[f.parent[c]] & SIDE_BIT[side])


def test_new_forest_singletons():
    f = SyncForest(6)
    assert components(f) == [[c] for c in range(7)]
    assert f.flagged_cuts("L") == []
    assert f.flagged_cuts("R") == []


def test_new_forest_empty_word():
    f = SyncForest(0)
    assert components(f) == [[0]]


def test_new_forest_sixteen_cuts():
    f = SyncForest(16)
    assert len(components(f)) == 17


def test_find_fresh():
    f = SyncForest(6)
    assert f.parent[5] == 5


def test_find_transitive_closure():
    f = SyncForest(6)
    f.add_star((0, 3, 6), 0, 1)
    f.recompress()
    assert f.parent[6] == f.parent[0] == 0
    assert f.parent[5] == 5


def test_set_flag_basic():
    f = SyncForest(6)
    f.set_flag(0, "L")
    assert flagged(f, 0, "L")
    assert not flagged(f, 0, "R")


def test_set_flag_spreads_over_component():
    # components of abaaba after synchronizing letter b: {0,3,6},{1,4},{2,5}
    f = SyncForest(6)
    f.add_star((0, 3), 0, 4)  # (0, 3), (1, 4), (2, 5), (3, 6)
    f.recompress()
    f.set_flag(3, "L")
    assert flagged(f, 6, "L")
    assert flagged(f, 0, "L")
    assert not flagged(f, 1, "L")


def test_set_flag_idempotent():
    f = SyncForest(3)
    f.set_flag(2, "R")
    f.set_flag(2, "R")
    assert f.flagged_cuts("R") == [2]


def test_unknown_side_is_rejected():
    f = SyncForest(3)
    with pytest.raises(KeyError):
        f.set_flag(1, "X")
    with pytest.raises(KeyError):
        f.set_flag(1, "l")
    with pytest.raises(KeyError):
        f.flagged_cuts("")
    assert f.flagged_cuts("L") == f.flagged_cuts("R") == []


def test_add_star_buffered_until_recompress():
    f = SyncForest(6)
    assert f.add_star((0, 3), 0, 1) == 1
    assert f.parent[3] == 3
    f.recompress()
    assert f.parent[3] == 0


@pytest.mark.parametrize("star", [
    ((1, 3), -2, 1),  # low end: 1 - 2 = -1
    ((0, 3), 0, 3),  # high end: 3 + 3 - 1 = 5
    ((3, 0), -1, 1),  # the extremes, whatever the order
], ids=["low", "high", "unsorted"])
def test_add_star_out_of_range(star):
    f = SyncForest(4)
    with pytest.raises(ValueError):
        f.add_star(*star)
    assert f.pending == []


@pytest.mark.parametrize(
    "star", [((2,), -2, 2), ((0, 3), 1, 1), ((0, 3), 2, 1)],
    ids=["one-occurrence", "no-offset", "reversed-offsets"],
)
def test_add_star_without_edges_buffers_nothing(star):
    # one occurrence, or no offset: no edge to buffer
    f = SyncForest(4)
    assert f.add_star(*star) == 0
    assert f.pending == []
    assert f.recompress() == 0


def test_recompress_no_pending_is_noop():
    f = SyncForest(5)
    f.set_flag(2, "L")
    before = (list(f.parent), list(f.flagged_cuts("L")), list(f.flagged_cuts("R")))
    assert f.recompress() == 0
    assert (list(f.parent), f.flagged_cuts("L"), f.flagged_cuts("R")) == before


def test_recompress_abaaba_round_one():
    # flags: extremal cuts both sides; occurrences of b at 2 and 5 with
    # neighborhood a_a contribute 1,4,3,6 to L and 2,5,0,3 to R
    f = SyncForest(6)
    for c in (0, 6):
        f.set_flag(c, "L")
        f.set_flag(c, "R")
    for c in (1, 4, 3, 6):
        f.set_flag(c, "L")
    for c in (2, 5, 0, 3):
        f.set_flag(c, "R")
    # b at 2 and 5, neighborhood a_a: offsets -2 .. 1 around each
    assert f.add_star((2, 5), -2, 2) == 4  # (0, 3), (1, 4), (2, 5), (3, 6)
    f.recompress()
    assert components(f) == [[0, 3, 6], [1, 4], [2, 5]]
    assert f.flagged_cuts("L") == [0, 1, 3, 4, 6]
    assert f.flagged_cuts("R") == [0, 2, 3, 5, 6]


def test_recompress_merges_components_and_ors_flags():
    # abba: round 1 links (0,3),(1,4); round 2 links (1,2),(2,3) collapse all
    f = SyncForest(4)
    f.add_star((0, 3), 0, 2)
    f.recompress()
    f.set_flag(0, "L")
    f.set_flag(1, "R")
    f.add_star((1, 2, 3), 0, 1)  # (1, 2), (1, 3)
    f.recompress()
    assert components(f) == [[0, 1, 2, 3, 4]]
    assert f.flagged_cuts("L") == [0, 1, 2, 3, 4]
    assert f.flagged_cuts("R") == [0, 1, 2, 3, 4]


def test_height_one_and_flags_at_roots():
    f = SyncForest(10)
    f.add_star((0, 5, 9), 0, 1)
    f.add_star((2, 3, 4), 0, 1)
    f.set_flag(9, "L")
    f.recompress()
    for c in range(11):
        assert f.parent[f.parent[c]] == f.parent[c]
    for c in range(11):
        if f.parent[c] != c:
            assert not f.flags[c]


def test_smallest_cut_is_root():
    f = SyncForest(8)
    f.add_star((7, 2, 5), 0, 1)  # (7, 2), (7, 5)
    f.recompress()
    assert f.parent[7] == 2
    assert f.parent[5] == 2


def test_flag_set_before_recompress_survives_merge():
    f = SyncForest(4)
    f.set_flag(3, "L")
    f.add_star((1, 3), 0, 1)
    f.recompress()
    assert flagged(f, 1, "L")
    assert f.flagged_cuts("L") == [1, 3]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_recompress_long_chain(order):
    # one path through every cut, one star per link, fed in three orders:
    # the merge must give the same single component whatever the order
    n = 10_000
    links = list(range(n))
    if order == "descending":
        links.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(links)
    f = SyncForest(n)
    f.set_flag(n, "L")
    f.set_flag(n // 2, "R")
    for c in links:
        f.add_star((c, c + 1), 0, 1)
    cells = f.recompress()
    assert cells <= 8 * n + 2
    assert all(p == 0 for p in f.parent)  # root is the smallest cut, height one
    assert f.flagged_cuts("L") == f.flagged_cuts("R") == list(range(n + 1))
    assert [c for c in range(n + 1) if f.flags[c]] == [0]


def member_cycle(f, root):
    cycle, c = [root], f.next[root]
    while c != root:
        cycle.append(c)
        c = f.next[c]
    return cycle


@st.composite
def overlapping_stars(draw):
    """A star whose occurrences lie closer than its window is wide, so
    neighbouring windows share cuts, as a periodic word's do."""
    gap = draw(st.integers(1, 3))
    lo = draw(st.integers(-3, 0))
    hi = draw(st.integers(lo + gap + 1, lo + gap + 4))
    first = draw(st.integers(0, 12))
    occ = tuple(first + i * gap for i in range(draw(st.integers(2, 4))))
    return occ, lo, hi


ops = st.lists(
    st.one_of(
        st.tuples(st.just("flag"), st.integers(0, 12), st.sampled_from("LR")),
        st.tuples(
            st.just("merge"),
            st.lists(
                st.one_of(
                    st.tuples(
                        st.lists(st.integers(0, 12), max_size=4),
                        st.integers(-3, 3),
                        st.integers(-3, 4),
                    ),
                    overlapping_stars(),
                ),
                max_size=3,
            ),
        ),
        st.tuples(st.just("read"), st.sampled_from("LR")),
    ),
    max_size=30,
)


@given(st.integers(0, 12), ops)
def test_incremental_lists_match_brute_force(n, steps):
    # flagged_cuts must equal a scan of the roots' flags, whatever order
    # flags, merges and reads come in; the join log must hold each flagged
    # cut exactly once, and flagged_cuts must return the same list object
    # every time; the components must be those of a naive closure over the
    # stars' edges, and the member cycles must partition the cuts the same
    f = SyncForest(n)
    lists = {side: f.flagged_cuts(side) for side in "LR"}
    label = list(range(n + 1))  # naive closure: each cut's smallest partner

    def read(side):
        cuts = f.flagged_cuts(side)
        assert cuts is lists[side]
        assert cuts == [c for c in range(n + 1) if flagged(f, c, side)]
        assert sorted(f.log[side]) == cuts

    for step in steps:
        if step[0] == "flag":
            f.set_flag(min(step[1], n), step[2])
        elif step[0] == "merge":
            for occ, lo, hi in step[1]:
                occ = tuple(min(k, n) for k in occ)
                edges = [(occ[0] + m, k + m) for k in occ[1:] for m in range(lo, hi)]
                if not all(0 <= c <= n for e in edges for c in e):
                    pending = list(f.pending)
                    with pytest.raises(ValueError):
                        f.add_star(occ, lo, hi)
                    assert f.pending == pending
                    continue
                assert f.add_star(occ, lo, hi) == len(edges)
                for u, v in edges:
                    new, old = sorted((label[u], label[v]))
                    label = [new if x == old else x for x in label]
            f.recompress()
        else:
            read(step[1])
        comps = components(f)
        assert comps == components(SimpleNamespace(parent=label))
        assert [sorted(member_cycle(f, comp[0])) for comp in comps] == comps
        # flags sit at roots only, as the two side bits
        assert all(f.flags[c] == 0 for c in range(n + 1) if f.parent[c] != c)
        assert set(f.flags) <= {0, 1, 2, 3}
    read("L")
    read("R")


def test_flagged_cuts_reports_joined_cuts():
    # each joined cut is logged once, in join order; reads merge the log's
    # new tail into one sorted list
    f = SyncForest(6)
    cuts = f.flagged_cuts("L")
    f.add_star((1, 4), 0, 1)
    f.recompress()
    f.set_flag(4, "L")
    assert f.log["L"] == [1, 4]
    assert f.flagged_cuts("L") == [1, 4]
    f.set_flag(2, "L")
    f.set_flag(4, "L")  # already flagged: joins nothing
    f.add_star((0, 2), 0, 1)  # 0 joins with 2's flag
    f.recompress()
    assert f.log["L"] == [1, 4, 2, 0]
    assert f.flagged_cuts("L") == [0, 1, 2, 4]
    assert f.flagged_cuts("L") is cuts
    assert f.log["L"] == [1, 4, 2, 0] and f.log["R"] == []


def test_add_star_out_of_range_buffers_nothing():
    f = SyncForest(4)
    f.add_star((0, 1), 0, 1)
    with pytest.raises(ValueError):
        f.add_star((2, 3), -3, 1)
    with pytest.raises(ValueError):
        f.add_star((2, 3), 0, 3)
    assert f.pending == [((0, 1), 0, 1)]
    assert f.add_star((1, 3), 0, 2) == 2  # (1, 3), (2, 4)
    assert f.recompress() > 0
    assert components(f) == [[0, 1, 3], [2, 4]]


def test_lone_cut_follows_its_root_linked_away_in_the_same_merge():
    # (3, 5) links the lone cut 5 under 3, which records nothing for the
    # relabel walk; (1, 3) then links 3 away under 1, and the walk of 3's
    # run must carry 5 along to 1
    f = SyncForest(6)
    f.set_flag(5, "L")
    f.add_star((3, 5), 0, 1)
    f.add_star((1, 3), 0, 1)
    cells = f.recompress()
    assert components(f) == [[0], [1, 3, 5], [2], [4], [6]]
    assert f.parent[5] == f.parent[3] == 1
    assert sorted(member_cycle(f, 1)) == [1, 3, 5]
    # the flag of 5 passed to 3, then to 1, each joining L once
    assert f.log["L"] == [5, 3, 1]
    assert f.flags[1] == SIDE_BIT["L"] and not f.flags[3] and not f.flags[5]
    # no hop past a slice's parent, two links, one cut relabeled (5)
    assert cells == 3


def test_lone_cuts_join_each_log_once():
    f = SyncForest(8)
    f.add_star((2, 4), 0, 1)  # unflagged {2, 4}
    f.add_star((3, 7), 0, 1)  # {3, 7}, to be L only
    f.recompress()
    f.set_flag(3, "L")
    f.set_flag(0, "L")
    f.set_flag(0, "R")
    # the flagged lone cut 0 takes in the unflagged {2, 4}; the unflagged
    # lone cut 5 is linked under the L-only {3, 7}; the unflagged lone cut
    # 1 takes in {3, 5, 7} and joins L
    f.add_star((0, 2), 0, 1)
    f.add_star((3, 5), 0, 1)
    f.recompress()
    assert f.log["L"] == [3, 7, 0, 2, 4, 5]
    assert f.log["R"] == [0, 2, 4]
    f.add_star((1, 3), 0, 1)
    f.recompress()
    assert f.log["L"] == [3, 7, 0, 2, 4, 5, 1]
    for side in "LR":
        log = f.log[side]
        assert len(set(log)) == len(log)
        assert sorted(log) == f.flagged_cuts(side)
    assert components(f) == [[0, 2, 4], [1, 3, 5, 7], [6], [8]]
    assert f.flags[0] == SIDE_BIT["L"] | SIDE_BIT["R"]
    assert f.flags[1] == SIDE_BIT["L"]
    assert [c for c in range(9) if f.flags[c]] == [0, 1]


@pytest.mark.parametrize("n", [0, 1, 8])
def test_flag_ends_matches_four_set_flag_calls(n):
    # one call leaves what four set_flag and two flagged_cuts calls leave
    # on a new forest, and returns the live sorted lists
    stepwise, seeded = SyncForest(n), SyncForest(n)
    for side in "LR":
        stepwise.set_flag(0, side)
        stepwise.set_flag(n, side)
    lists = (stepwise.flagged_cuts("L"), stepwise.flagged_cuts("R"))
    left, right = seeded.flag_ends()
    assert (left, right) == lists == ([0, n] if n else [0],) * 2
    assert left is seeded.flagged_cuts("L") and right is seeded.flagged_cuts("R")
    assert seeded.log == stepwise.log and seeded.flags == stepwise.flags
    assert seeded.log["L"] is not seeded.log["R"] and left is not right
    # flags sit only at roots
    assert all(seeded.parent[c] == c for c in range(n + 1) if seeded.flags[c])


def test_flag_ends_refuses_a_flagged_or_merged_end():
    f = SyncForest(4)
    f.set_flag(2, "L")
    with pytest.raises(ValueError):
        f.flag_ends()
    f = SyncForest(4)
    f.add_star((0, 2), 0, 1)
    f.recompress()
    with pytest.raises(ValueError):
        f.flag_ends()
