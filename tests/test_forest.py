from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphprim.forest import SyncForest

from conftest import assert_sides


def grouped(keys):
    """The cuts ``0 .. len(keys) - 1`` grouped by equal key, as sorted cut
    lists ordered by smallest member."""
    groups: dict[int, list[int]] = {}
    for c, key in enumerate(keys):
        groups.setdefault(key, []).append(c)
    return sorted(groups.values())


def components(f):
    """Current components as sorted cut lists, ordered by smallest member:
    a lone cut alone, the others by member array."""
    return grouped(-1 - c if m is None else id(m) for c, m in enumerate(f.comp))


def members(f, c):
    """The cuts of ``c``'s component, in its member array's order."""
    return [c] if f.comp[c] is None else f.comp[c].tolist()


def logs(f):
    """Both join logs as lists."""
    return {side: log.tolist() for side, log in f.log.items()}


def side_bytes(f):
    """Each cut's sides as one number, 1 for L plus 2 for R."""
    return [left + 2 * right for left, right in zip(f.flags["L"], f.flags["R"])]


def test_new_forest_singletons():
    # every cut alone in its component; the extremal cuts, which are left
    # and right cuts of every word, flagged on both sides and in both logs,
    # and no other cut flagged; a cut on a side is never lone, so cuts 0
    # and n each hold a one-member array and every other cut None
    for n in (0, 1, 8):
        f = SyncForest(n)
        ends = [0, n] if n else [0]
        assert [None if m is None else m.tolist() for m in f.comp] == [
            [c] if c in (0, n) else None for c in range(n + 1)
        ]
        assert all(f.comp[c].typecode == "I" for c in ends)
        assert n == 0 or f.comp[0] is not f.comp[n]
        assert side_bytes(f) == [3 if c in (0, n) else 0 for c in range(n + 1)]
        assert f.flags["L"] is not f.flags["R"]
        assert logs(f) == {"L": ends, "R": ends}
        assert f.log["L"] is not f.log["R"]
        assert f.flagged_cuts("L") == f.flagged_cuts("R") == ends
        assert_sides(f)


def test_new_forest_empty_word():
    f = SyncForest(0)
    assert components(f) == [[0]]


def test_new_forest_sixteen_cuts():
    f = SyncForest(16)
    assert len(components(f)) == 17


def test_find_fresh():
    f = SyncForest(6)
    assert f.comp[5] is None


def test_find_transitive_closure():
    f = SyncForest(6)
    f.add_star((0, 3, 6), 0, 1)
    f.recompress()
    assert components(f) == [[0, 3, 6], [1], [2], [4], [5]]
    assert f.comp[5] is None and sorted(members(f, 6)) == [0, 3, 6]


def test_set_flag_basic():
    f = SyncForest(6)
    f.set_flag(2, "L")
    assert f.flags["L"][2]
    assert not f.flags["R"][2]


def test_set_flag_spreads_over_component():
    # components of abaaba after synchronizing letter b: {0,3,6},{1,4},{2,5}
    f = SyncForest(6)
    f.add_star((0, 3), 0, 4)  # (0, 3), (1, 4), (2, 5), (3, 6)
    f.recompress()
    f.set_flag(3, "L")
    assert f.flags["L"][6]
    assert f.flags["L"][0]
    assert not f.flags["L"][1]


def test_set_flag_gives_a_lone_cut_a_one_member_array():
    # a cut on a side is never lone: the lone 2 joins L in an array of its
    # own, which joining R keeps; an unflagged cut stays None
    f = SyncForest(5)
    f.set_flag(2, "L")
    members = f.comp[2]
    assert members.typecode == "I" and members.tolist() == [2]
    f.set_flag(2, "R")
    assert f.comp[2] is members and members.tolist() == [2]
    assert f.comp[1] is f.comp[3] is None
    assert logs(f) == {"L": [0, 5, 2], "R": [0, 5, 2]}
    assert_sides(f)


def test_set_flag_idempotent():
    f = SyncForest(3)
    f.set_flag(2, "R")
    f.set_flag(2, "R")
    assert f.flagged_cuts("R") == [0, 2, 3]
    assert f.log["R"].tolist() == [0, 3, 2]


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


@pytest.mark.parametrize("call, message", [
    (lambda: SyncForest(-1), "non-negative"),
    (lambda: SyncForest(3).set_flag(-1, "L"), "cut -1 out of range"),
    (lambda: SyncForest(3).set_flag(4, "R"), "cut 4 out of range"),
], ids=["negative-length", "cut-below-0", "cut-above-n"])
def test_out_of_range_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_add_star_buffered_until_recompress():
    f = SyncForest(6)
    assert f.add_star((0, 3), 0, 1) == 1
    assert f.comp[3] is None
    f.recompress()
    assert f.comp[3] is f.comp[0] is not None


@pytest.mark.parametrize("star, cut", [
    (((1, 3), -2, 1), -1),  # low end: 1 - 2 = -1
    (((0, 3), 0, 3), 5),  # high end 3 + 3 - 1 = 5, with the low end at 0
    (((3, 0), -1, 1), -1),  # the extremes, whatever the order
], ids=["low", "high", "unsorted"])
def test_add_star_out_of_range(star, cut):
    f = SyncForest(4)
    with pytest.raises(ValueError, match=rf"^cut {cut} out of range 0\.\.4$"):
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
    before = (list(f.comp), list(f.flagged_cuts("L")), list(f.flagged_cuts("R")))
    assert f.recompress() == 0
    assert (list(f.comp), f.flagged_cuts("L"), f.flagged_cuts("R")) == before


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
    # the union of both components' sides, on every member
    assert side_bytes(f) == [3] * 5


def test_height_one_and_flags_on_every_member():
    f = SyncForest(10)
    f.add_star((0, 5, 9), 0, 1)
    f.add_star((2, 3, 4), 0, 1)
    f.set_flag(9, "L")
    f.recompress()
    assert components(f) == [[0, 5, 9], [1], [2, 3, 4], [6], [7], [8], [10]]
    # 9 joined L alone, then 0's sides spread to 5 and 9
    assert [side_bytes(f)[c] for c in (0, 5, 9, 10)] == [3, 3, 3, 3]
    assert f.flagged_cuts("L") == f.flagged_cuts("R") == [0, 5, 9, 10]
    assert f.log["L"].tolist() == [0, 10, 9, 5]
    assert_sides(f)


def test_star_merges_one_component_with_one_root():
    f = SyncForest(8)
    f.set_flag(5, "R")
    f.add_star((7, 2, 5), 0, 1)  # (7, 2), (7, 5)
    f.recompress()
    assert components(f) == [[0], [1], [2, 5, 7], [3], [4], [6], [8]]
    assert f.flagged_cuts("R") == [0, 2, 5, 7, 8]
    assert_sides(f)


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
    assert_sides(f)


def test_flag_set_before_recompress_survives_merge():
    f = SyncForest(4)
    f.set_flag(3, "L")
    f.add_star((1, 3), 0, 1)
    f.recompress()
    assert f.flags["L"][1]
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
    assert f.flags == {"L": bytearray([1]) * (n + 1), "R": bytearray([1]) * (n + 1)}
    assert_sides(f)


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
    # flagged_cuts must equal a scan of the cuts' flags, whatever order
    # flags, merges and reads come in, and so must the cuts a reader steps
    # through by searching the side's bytes in place, as the engine does;
    # the join log must hold each flagged cut exactly once; the components
    # must be those of a naive closure over the stars' edges, each with one
    # member array that every member's entry holds
    f = SyncForest(n)
    label = list(range(n + 1))  # naive closure: each cut's smallest partner

    def read(side):
        assert f.flagged_cuts(side) == sorted(f.log[side]) == found_cuts(f.flags[side])

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
        assert components(f) == grouped(label)
        assert_sides(f)
    read("L")
    read("R")


def found_cuts(flags):
    """The cuts set in ``flags``, stepped through by ``find``."""
    cuts, c = [], flags.find(1)
    while c != -1:
        cuts.append(c)
        c = flags.find(1, c + 1)
    return cuts


@pytest.mark.parametrize("k", range(10))
def test_cuts_joined_in_any_order_read_back_ascending(k):
    # k new cuts joined to sides of several sizes, ascending, descending or
    # shuffled: the side's bytes, stepped through by find, and its sorted
    # log are the sorted union, and the log keeps the join order
    rng = random.Random(k)
    n = 61
    for size in (0, 1, 5, 40):
        drawn = rng.sample(range(1, n), size + k)
        cuts, new = sorted(drawn[:size]), drawn[size:]
        for tail in (sorted(new), sorted(new, reverse=True), new):
            f = SyncForest(n)
            for c in cuts + tail:
                f.set_flag(c, "L")
            union = sorted({0, n, *cuts, *new})
            log = f.log["L"].tolist()
            assert found_cuts(f.flags["L"]) == sorted(log) == union
            assert log[len(log) - k:] == tail
            assert found_cuts(f.flags["R"]) == [0, n]
            assert_sides(f)


def test_flagged_cuts_reports_joined_cuts():
    # each joined cut is logged once, and the log's first k cuts, sorted,
    # are the side as it stood when the log had k cuts, which is what a
    # round's record rebuilds its cut sets from; the order of the cuts that
    # join in one step is not defined, so only their set is pinned; the
    # log grows in place, as the rounds' records share it
    f = SyncForest(6)
    joined = f.log["L"]
    sides = [f.flagged_cuts("L")]
    f.add_star((1, 4), 0, 1)
    f.recompress()
    f.set_flag(4, "L")  # 1 and 4 join together
    assert f.flags["L"] == bytearray([1, 1, 0, 0, 1, 0, 1])
    assert f.flags["R"] == bytearray([1, 0, 0, 0, 0, 0, 1])
    sides.append(f.flagged_cuts("L"))
    f.set_flag(2, "L")
    f.set_flag(4, "L")  # already flagged: joins nothing
    sides.append(f.flagged_cuts("L"))
    f.add_star((2, 3), 0, 1)  # 3 joins with 2's flag
    f.recompress()
    sides.append(f.flagged_cuts("L"))
    assert sides == [[0, 6], [0, 1, 4, 6], [0, 1, 2, 4, 6], [0, 1, 2, 3, 4, 6]]
    log = f.log["L"].tolist()
    assert log[:2] == [0, 6] and set(log[2:4]) == {1, 4} and log[4:] == [2, 3]
    assert [sorted(log[: len(side)]) for side in sides] == sides
    assert f.log["L"] is joined and f.log["R"].tolist() == [0, 6]
    # a new list on every call: changing one changes nothing in the forest
    cuts = f.flagged_cuts("L")
    cuts.clear()
    assert f.flagged_cuts("L") == sides[-1] and len(f.log["L"]) == 6


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
    # 1 with {3, 5} in the same recompress, and all three must end in one
    # member array that carries 5's flag
    f = SyncForest(6)
    f.set_flag(5, "L")
    f.add_star((3, 5), 0, 1)
    f.add_star((1, 3), 0, 1)
    f.recompress()
    assert components(f) == [[0], [1, 3, 5], [2], [4], [6]]
    assert f.comp[1] is f.comp[3] is f.comp[5]
    assert sorted(members(f, 1)) == [1, 3, 5]
    # each of the three joined L once, after the extremal cuts
    log = f.log["L"].tolist()
    assert log[:2] == [0, 6] and sorted(log[2:]) == [1, 3, 5]
    assert (f.flags["L"][1], f.flags["R"][1]) == (1, 0)
    assert side_bytes(f) == [3, 1, 0, 1, 0, 1, 3]
    assert_sides(f)


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
    assert sorted(f.log["L"].tolist()) == [0, 2, 3, 4, 5, 7, 8]
    assert sorted(f.log["R"].tolist()) == [0, 2, 4, 8]
    f.add_star((1, 3), 0, 1)
    f.recompress()
    assert f.log["L"].tolist()[7:] == [1] and len(f.log["R"]) == 4
    for side in "LR":
        log = f.log[side].tolist()
        assert len(set(log)) == len(log)
        assert sorted(log) == f.flagged_cuts(side)
    assert components(f) == [[0, 2, 4], [1, 3, 5, 7], [6], [8]]
    assert (f.flags["L"][0], f.flags["R"][0]) == (1, 1)
    assert (f.flags["L"][1], f.flags["R"][1]) == (1, 0)
    # {0, 2, 4} and 8 on both sides, {1, 3, 5, 7} on L, 6 on neither
    assert side_bytes(f) == [3, 1, 3, 1, 3, 1, 0, 1, 3]
    assert_sides(f)


@pytest.mark.parametrize("n", [0, 1, 8])
def test_flag_ends_matches_four_set_flag_calls(n):
    # a new forest starts with its two ends flagged as four set_flag calls
    # would flag them on a forest that has no flag yet: same flags, same
    # logs in the same join order, same flagged lists
    ends = [0, n] if n else [0]
    seeded, stepwise = SyncForest(n), SyncForest(n)
    stepwise.flags = {"L": bytearray(n + 1), "R": bytearray(n + 1)}
    stepwise.log = {"L": array("I"), "R": array("I")}
    for side in "LR":
        stepwise.set_flag(0, side)
        stepwise.set_flag(n, side)
    assert seeded.flags == stepwise.flags
    assert logs(seeded) == logs(stepwise) == {"L": ends, "R": ends}
    assert seeded.log["L"] is not seeded.log["R"]
    for side in "LR":
        assert seeded.flagged_cuts(side) == stepwise.flagged_cuts(side) == ends
    # the ends take no second join: flagging them again logs nothing
    for side in "LR":
        seeded.set_flag(0, side)
        seeded.set_flag(n, side)
    assert logs(seeded) == logs(stepwise)
    assert_sides(seeded)


def counting_joins(f):
    """Record the members each ``_join`` call of ``f`` joins, as a list."""
    calls = []
    join = f._join

    def counted(members, flags, log):
        calls.append(list(members))
        join(members, flags, log)

    f._join = counted
    return calls


@pytest.mark.parametrize("star", [(4, 6), (6, 4)], ids=["lone-second", "lone-first"])
def test_lone_cut_takes_the_sides_of_a_component_on_l(star):
    # the lone cut 6 meets {2, 4}, which is on L: 6 joins L by its own
    # byte, with no join call, and is appended to the member array of 2
    # and 4; which end of the edge it is does not matter
    f = SyncForest(8)
    f.add_star((2, 4), 0, 1)
    assert f.recompress() == 1
    f.set_flag(2, "L")
    pair = f.comp[2]
    assert pair.tolist() == [2, 4] and f.comp[4] is pair
    assert logs(f) == {"L": [0, 8, 2, 4], "R": [0, 8]}
    calls = counting_joins(f)
    f.add_star(star, 0, 1)
    assert f.recompress() == 1
    assert calls == []
    assert f.comp[2] is f.comp[4] is f.comp[6] is pair
    assert pair.tolist() == [2, 4, 6]
    assert logs(f) == {"L": [0, 8, 2, 4, 6], "R": [0, 8]}
    assert side_bytes(f) == [3, 0, 1, 0, 1, 0, 1, 0, 3]
    assert_sides(f)


def test_lone_cut_on_r_makes_its_component_join_r_in_member_order():
    # {1, 3, 5} is on L, its array listing 1, 3, 5; the cut 6, with no
    # partner, is on R, so it holds a one-member array.  Merged through the
    # general branch, 6 joins L through one join call, and the whole of
    # {1, 3, 5} joins R through another, in its array's order
    f = SyncForest(8)
    f.add_star((1, 3, 5), 0, 1)
    assert f.recompress() == 2
    f.set_flag(1, "L")
    f.set_flag(6, "R")
    assert members(f, 1) == [1, 3, 5] and members(f, 6) == [6]
    calls = counting_joins(f)
    f.add_star((3, 6), 0, 1)
    assert f.recompress() == 1
    assert calls == [[6], [1, 3, 5]]
    assert members(f, 6) == [1, 3, 5, 6]
    assert logs(f) == {"L": [0, 8, 1, 3, 5, 6], "R": [0, 8, 6, 1, 3, 5]}
    assert side_bytes(f) == [3, 3, 0, 3, 0, 3, 3, 0, 3]
    assert_sides(f)


def test_two_lone_cuts_merge_the_second_into_the_first():
    # 2 is on R and 5 on L, each with no partner, so each holds a
    # one-member array: on the tie, 5 is put after 2 in 2's array, and
    # each takes the other's side through a join call
    f = SyncForest(6)
    f.set_flag(5, "L")
    f.set_flag(2, "R")
    calls = counting_joins(f)
    f.add_star((2, 5), 0, 1)
    assert f.recompress() == 1
    assert calls == [[2], [5]]
    assert f.comp[2] is f.comp[5] and members(f, 2) == [2, 5]
    assert logs(f) == {"L": [0, 6, 5, 2], "R": [0, 6, 2, 5]}
    assert side_bytes(f) == [3, 0, 3, 0, 0, 3, 3]
    assert_sides(f)


@pytest.mark.parametrize("star", [(3, 6), (6, 3)], ids=["lone-second", "lone-first"])
def test_lone_cut_takes_the_side_of_a_one_member_array(star):
    # the cut 3, on R with no partner, holds a one-member array; the lone
    # 6 is appended to it, one cell, and joins R by its own byte, with no
    # join call, whichever end of the edge it is
    f = SyncForest(8)
    f.set_flag(3, "R")
    one = f.comp[3]
    assert one.tolist() == [3] and f.comp[6] is None
    calls = counting_joins(f)
    f.add_star(star, 0, 1)
    assert f.recompress() == 1
    assert calls == []
    assert f.comp[3] is f.comp[6] is one and one.tolist() == [3, 6]
    assert logs(f) == {"L": [0, 8], "R": [0, 8, 3, 6]}
    assert side_bytes(f) == [3, 0, 0, 2, 0, 0, 2, 0, 3]
    assert_sides(f)


@pytest.mark.parametrize("star, order", [
    ((2, 6), [1, 2, 5, 6]), ((6, 2), [5, 6, 1, 2]),
], ids=["first-2", "first-6"])
def test_tie_moves_the_second_ends_component_into_the_first(star, order):
    # {1, 2} and {5, 6}, the latter on L, the same size: the edge's second
    # end's component moves, 2 cells, into the first end's array, which
    # stays; {1, 2} joins L through one join call whichever of them moves
    f = SyncForest(8)
    f.add_star((1, 2), 0, 1)
    f.add_star((5, 6), 0, 1)
    assert f.recompress() == 2
    f.set_flag(5, "L")
    kept = f.comp[star[0]]
    calls = counting_joins(f)
    f.add_star(star, 0, 1)
    assert f.recompress() == 2
    assert calls == [[1, 2]]
    assert all(f.comp[c] is kept for c in (1, 2, 5, 6))
    assert kept.tolist() == order
    assert logs(f) == {"L": [0, 8, 5, 6, 1, 2], "R": [0, 8]}
    assert_sides(f)
