from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphprim import SyncForest
from morphprim.engine import merge_cuts
from morphprim.forest import SIDE_BIT


def components(f):
    """Current components as sorted cut lists, ordered by smallest member."""
    groups: dict[int, list[int]] = {}
    for c, root in enumerate(f.parent):
        groups.setdefault(root, []).append(c)
    return sorted(groups.values())


def member_cycle(f, root):
    cycle, c = [root], f.next[root]
    while c != root:
        cycle.append(c)
        c = f.next[c]
    return cycle


def assert_forest(f):
    """The forest's invariants, whichever cut is a component's root: height
    one, so one root per component and that root among its members; every
    member on its root's cycle; flags only at roots, as the two side bits;
    and each log holding each flagged cut once.  Reads no sorted list, so
    the order of ``flagged_cuts`` calls stays the caller's."""
    parent = f.parent
    assert all(parent[root] == root for root in parent)
    groups: dict[int, list[int]] = {}
    for c, root in enumerate(parent):
        groups.setdefault(root, []).append(c)
    for root, members in groups.items():
        assert sorted(member_cycle(f, root)) == members
    assert all(f.flags[c] == 0 for c in range(f.n + 1) if parent[c] != c)
    assert set(f.flags) <= {0, 1, 2, 3}
    for side in "LR":
        log = f.log[side]
        assert len(set(log)) == len(log)
        assert sorted(log) == [c for c in range(f.n + 1) if flagged(f, c, side)]


def flagged(f, c, side):
    """Whether the root of ``c`` carries the flag bit of ``side``."""
    return bool(f.flags[f.parent[c]] & SIDE_BIT[side])


def test_new_forest_singletons():
    # every cut alone in its component; the extremal cuts, which are left
    # and right cuts of every word, flagged on both sides and in both logs,
    # and no other cut flagged
    for n in (0, 1, 8):
        f = SyncForest(n)
        ends = [0, n] if n else [0]
        assert components(f) == [[c] for c in range(n + 1)]
        assert all(f.next[c] == c for c in range(n + 1))
        assert list(f.flags) == [3 if c in (0, n) else 0 for c in range(n + 1)]
        assert f.log == {"L": ends, "R": ends}
        assert f.log["L"] is not f.log["R"]
        assert f.flagged_cuts("L") == f.flagged_cuts("R") == ends
        assert_forest(f)


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
    assert components(f) == [[0, 3, 6], [1], [2], [4], [5]]
    assert f.parent[5] == 5


def test_set_flag_basic():
    f = SyncForest(6)
    f.set_flag(2, "L")
    assert flagged(f, 2, "L")
    assert not flagged(f, 2, "R")


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
    assert f.flagged_cuts("R") == [0, 2, 3]
    assert f.log["R"] == [0, 3, 2]


def test_unknown_side_is_rejected():
    f = SyncForest(3)
    with pytest.raises(KeyError):
        f.set_flag(1, "X")
    with pytest.raises(KeyError):
        f.set_flag(1, "l")
    with pytest.raises(KeyError):
        f.flagged_cuts("")
    # nothing joined either side
    assert f.flagged_cuts("L") == f.flagged_cuts("R") == [0, 3]


def test_add_star_buffered_until_recompress():
    f = SyncForest(6)
    assert f.add_star((0, 3), 0, 1) == 1
    assert f.parent[3] == 3
    f.recompress()
    assert f.parent[3] == f.parent[0]


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
    assert components(f) == [[0, 5, 9], [1], [2, 3, 4], [6], [7], [8], [10]]
    assert_forest(f)


def test_star_merges_one_component_with_one_root():
    f = SyncForest(8)
    f.set_flag(5, "R")
    f.add_star((7, 2, 5), 0, 1)  # (7, 2), (7, 5)
    f.recompress()
    assert components(f) == [[0], [1], [2, 5, 7], [3], [4], [6], [8]]
    assert f.flagged_cuts("R") == [0, 2, 5, 7, 8]
    assert_forest(f)


@pytest.mark.parametrize("j", [0, 1, 4, 10])
def test_balanced_merges_reach_the_run_bound(j):
    # N = 2^j cuts merged pairwise, level by level: every merge joins two
    # components of the same size, so each cut is relabeled once per level
    # and the cells total exactly (N / 2) * log2(N), the bound of a run
    big = 1 << j
    f = SyncForest(big - 1)
    cells = 0
    for level in range(j):
        width = 1 << level
        for c in range(0, big, 2 * width):
            f.add_star((c, c + width), 0, 1)
        cells += f.recompress()
    assert cells == big // 2 * j
    assert components(f) == [list(range(big))]
    assert_forest(f)


def test_flag_set_before_recompress_survives_merge():
    f = SyncForest(4)
    f.set_flag(3, "L")
    f.add_star((1, 3), 0, 1)
    f.recompress()
    assert flagged(f, 1, "L")
    assert f.flagged_cuts("L") == [0, 1, 3, 4]


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
    assert components(f) == [list(range(n + 1))]
    assert f.flagged_cuts("L") == f.flagged_cuts("R") == list(range(n + 1))
    assert [c for c in range(n + 1) if f.flags[c]] == [f.parent[0]]
    assert_forest(f)


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
    # flags, merges and reads come in, and so must a sorted list kept apart
    # that takes in the join log's new tail at each read, as the engine's
    # lists do; the join log must hold each flagged cut exactly once; the
    # components must be those of a naive closure over the stars' edges,
    # each with one root whose member cycle holds them all
    f = SyncForest(n)
    lists = {side: f.flagged_cuts(side) for side in "LR"}
    label = list(range(n + 1))  # naive closure: each cut's smallest partner

    def read(side):
        cuts = f.flagged_cuts(side)
        assert cuts == [c for c in range(n + 1) if flagged(f, c, side)]
        assert sorted(f.log[side]) == cuts
        kept = lists[side]
        merge_cuts(kept, f.log[side][len(kept):])
        assert kept == cuts

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
        assert_forest(f)
    read("L")
    read("R")


def test_flagged_cuts_reports_joined_cuts():
    # each joined cut is logged once, and the log's first k cuts, sorted,
    # are the side as it stood when the log had k cuts, which is what a
    # round's record rebuilds its cut sets from; the order of the cuts that
    # join in one step is not defined, so only their set is pinned
    f = SyncForest(6)
    sides = [f.flagged_cuts("L")]
    f.add_star((1, 4), 0, 1)
    f.recompress()
    f.set_flag(4, "L")  # 1 and 4 join together
    sides.append(f.flagged_cuts("L"))
    f.set_flag(2, "L")
    f.set_flag(4, "L")  # already flagged: joins nothing
    sides.append(f.flagged_cuts("L"))
    f.add_star((2, 3), 0, 1)  # 3 joins with 2's flag
    f.recompress()
    sides.append(f.flagged_cuts("L"))
    assert sides == [[0, 6], [0, 1, 4, 6], [0, 1, 2, 4, 6], [0, 1, 2, 3, 4, 6]]
    log = f.log["L"]
    assert log[:2] == [0, 6] and set(log[2:4]) == {1, 4} and log[4:] == [2, 3]
    assert [sorted(log[: len(side)]) for side in sides] == sides
    assert f.log["R"] == [0, 6]
    # a new list on every call: changing one changes nothing in the forest
    cuts = f.flagged_cuts("L")
    cuts.clear()
    assert f.flagged_cuts("L") == sides[-1] and len(log) == 6


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
    # (3, 5) merges the lone cuts 3 and 5; (1, 3) then merges the lone cut
    # 1 with {3, 5} in the same recompress, and all three must end under
    # one root that carries 5's flag
    f = SyncForest(6)
    f.set_flag(5, "L")
    f.add_star((3, 5), 0, 1)
    f.add_star((1, 3), 0, 1)
    f.recompress()
    assert components(f) == [[0], [1, 3, 5], [2], [4], [6]]
    root = f.parent[1]
    assert f.parent[3] == f.parent[5] == root
    assert sorted(member_cycle(f, root)) == [1, 3, 5]
    # each of the three joined L once, after the extremal cuts
    assert f.log["L"][:2] == [0, 6] and sorted(f.log["L"][2:]) == [1, 3, 5]
    assert f.flags[root] == SIDE_BIT["L"]
    assert [c for c in range(7) if f.flags[c]] == [0, root, 6]
    assert_forest(f)


def test_lone_cuts_join_each_log_once():
    f = SyncForest(8)
    f.add_star((2, 4), 0, 1)  # unflagged {2, 4}
    f.add_star((3, 7), 0, 1)  # {3, 7}, to be L only
    f.recompress()
    f.set_flag(3, "L")
    # the lone cut 0, flagged on both sides from the start, merges with
    # the unflagged {2, 4}; the unflagged lone cut 5 merges with the L-only
    # {3, 7}; the unflagged lone cut 1 then merges with {3, 5, 7} and
    # joins L; the lone cut 8, flagged on both sides, stays alone
    f.add_star((0, 2), 0, 1)
    f.add_star((3, 5), 0, 1)
    f.recompress()
    assert sorted(f.log["L"]) == [0, 2, 3, 4, 5, 7, 8]
    assert sorted(f.log["R"]) == [0, 2, 4, 8]
    f.add_star((1, 3), 0, 1)
    f.recompress()
    assert f.log["L"][7:] == [1] and len(f.log["R"]) == 4
    for side in "LR":
        log = f.log[side]
        assert len(set(log)) == len(log)
        assert sorted(log) == f.flagged_cuts(side)
    assert components(f) == [[0, 2, 4], [1, 3, 5, 7], [6], [8]]
    assert f.flags[f.parent[0]] == SIDE_BIT["L"] | SIDE_BIT["R"]
    assert f.flags[f.parent[1]] == SIDE_BIT["L"]
    assert [c for c in range(9) if f.flags[c]] == sorted({f.parent[0], f.parent[1], 8})
    assert f.flags[8] == SIDE_BIT["L"] | SIDE_BIT["R"]
    assert_forest(f)


@pytest.mark.parametrize("n", [0, 1, 8])
def test_flag_ends_matches_four_set_flag_calls(n):
    # a new forest starts with its two ends flagged as four set_flag calls
    # would flag them on a forest that has no flag yet: same flags, same
    # logs in the same join order, same flagged lists, flags only at roots
    ends = [0, n] if n else [0]
    seeded, stepwise = SyncForest(n), SyncForest(n)
    stepwise.flags = bytearray(n + 1)
    stepwise.log = {"L": [], "R": []}
    for side in "LR":
        stepwise.set_flag(0, side)
        stepwise.set_flag(n, side)
    assert seeded.flags == stepwise.flags
    assert seeded.log == stepwise.log == {"L": ends, "R": ends}
    assert seeded.log["L"] is not seeded.log["R"]
    for side in "LR":
        assert seeded.flagged_cuts(side) == stepwise.flagged_cuts(side) == ends
    assert all(seeded.parent[c] == c for c in range(n + 1) if seeded.flags[c])
    # the ends take no second join: flagging them again logs nothing
    for side in "LR":
        seeded.set_flag(0, side)
        seeded.set_flag(n, side)
    assert seeded.log == stepwise.log
    assert_forest(seeded)
