from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphprim import SyncForest


def test_new_forest_singletons():
    f = SyncForest(6)
    assert f.components() == [[c] for c in range(7)]
    assert f.flagged_cuts("L") == []
    assert f.flagged_cuts("R") == []


def test_new_forest_empty_word():
    f = SyncForest(0)
    assert f.components() == [[0]]


def test_new_forest_sixteen_cuts():
    f = SyncForest(16)
    assert len(f.components()) == 17


def test_find_fresh():
    f = SyncForest(6)
    assert f.find(5) == 5


def test_find_transitive_closure():
    f = SyncForest(6)
    f.add_edges([(0, 3), (3, 6)])
    f.recompress()
    assert f.find(6) == f.find(0) == 0
    assert f.find(5) == 5


def test_find_out_of_range():
    f = SyncForest(4)
    with pytest.raises(ValueError):
        f.find(5)
    with pytest.raises(ValueError):
        f.find(-1)


def test_set_flag_basic():
    f = SyncForest(6)
    f.set_flag(0, "L")
    assert f.has_flag(0, "L")
    assert not f.has_flag(0, "R")


def test_set_flag_spreads_over_component():
    # components of abaaba after synchronizing letter b: {0,3,6},{1,4},{2,5}
    f = SyncForest(6)
    f.add_edges([(0, 3), (1, 4), (2, 5), (3, 6)])
    f.recompress()
    f.set_flag(3, "L")
    assert f.has_flag(6, "L")
    assert f.has_flag(0, "L")
    assert not f.has_flag(1, "L")


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
        f.has_flag(1, "l")
    with pytest.raises(KeyError):
        f.flagged_cuts("")
    assert f.flagged_cuts("L") == f.flagged_cuts("R") == []


def test_add_edges_buffered_until_recompress():
    f = SyncForest(6)
    f.add_edges([(0, 3)])
    assert f.find(3) == 3
    f.recompress()
    assert f.find(3) == 0


def test_add_edges_out_of_range():
    f = SyncForest(4)
    with pytest.raises(ValueError):
        f.add_edges([(0, 7)])


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
    f.add_edges([(0, 3), (1, 4), (2, 5), (3, 6)])
    f.recompress()
    assert f.components() == [[0, 3, 6], [1, 4], [2, 5]]
    assert f.flagged_cuts("L") == [0, 1, 3, 4, 6]
    assert f.flagged_cuts("R") == [0, 2, 3, 5, 6]


def test_recompress_merges_components_and_ors_flags():
    # abba: round 1 links (0,3),(1,4); round 2 links (1,2),(2,3) collapse all
    f = SyncForest(4)
    f.add_edges([(0, 3), (1, 4)])
    f.recompress()
    f.set_flag(0, "L")
    f.set_flag(1, "R")
    f.add_edges([(1, 2), (2, 3)])
    f.recompress()
    assert f.components() == [[0, 1, 2, 3, 4]]
    assert f.flagged_cuts("L") == [0, 1, 2, 3, 4]
    assert f.flagged_cuts("R") == [0, 1, 2, 3, 4]


def test_height_one_and_flags_at_roots():
    f = SyncForest(10)
    f.add_edges([(0, 5), (5, 9), (2, 3), (3, 4)])
    f.set_flag(9, "L")
    f.recompress()
    for c in range(11):
        assert f.parent[f.parent[c]] == f.parent[c]
    for c in range(11):
        if f.parent[c] != c:
            assert not f._flags["L"][c] and not f._flags["R"][c]


def test_smallest_cut_is_root():
    f = SyncForest(8)
    f.add_edges([(7, 2), (2, 5)])
    f.recompress()
    assert f.find(7) == 2
    assert f.find(5) == 2


def test_flag_set_before_recompress_survives_merge():
    f = SyncForest(4)
    f.set_flag(3, "L")
    f.add_edges([(1, 3)])
    f.recompress()
    assert f.has_flag(1, "L")
    assert f.flagged_cuts("L") == [1, 3]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_recompress_long_chain(order):
    # one path through every cut, its edges fed in three orders: the merge
    # must give the same single component whatever the order
    n = 10_000
    edges = [(c, c + 1) for c in range(n)]
    if order == "descending":
        edges.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(edges)
    f = SyncForest(n)
    f.set_flag(n, "L")
    f.set_flag(n // 2, "R")
    f.add_edges(edges)
    cells = f.recompress()
    assert cells <= 8 * n + 2
    assert all(p == 0 for p in f.parent)  # root is the smallest cut, height one
    assert f.flagged_cuts("L") == f.flagged_cuts("R") == list(range(n + 1))
    assert [c for c in range(n + 1) if f._flags["L"][c] or f._flags["R"][c]] == [0]


def member_cycle(f, root):
    cycle, c = [root], f.next[root]
    while c != root:
        cycle.append(c)
        c = f.next[c]
    return cycle


ops = st.lists(
    st.one_of(
        st.tuples(st.just("flag"), st.integers(0, 12), st.sampled_from("LR")),
        st.tuples(
            st.just("merge"),
            st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=6),
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
    # every time; the member cycles must partition the cuts exactly as
    # components() does
    f = SyncForest(n)
    lists = {side: f.flagged_cuts(side) for side in "LR"}

    def read(side):
        flags = f._flags[side]
        cuts = f.flagged_cuts(side)
        assert cuts is lists[side]
        assert cuts == [c for c in range(n + 1) if flags[f.parent[c]]]
        assert sorted(f.log[side]) == cuts

    for step in steps:
        if step[0] == "flag":
            f.set_flag(min(step[1], n), step[2])
        elif step[0] == "merge":
            f.add_edges([(min(u, n), min(v, n)) for u, v in step[1]])
            f.recompress()
        else:
            read(step[1])
        components = f.components()
        assert [sorted(member_cycle(f, comp[0])) for comp in components] == components
    read("L")
    read("R")


def test_flagged_cuts_reports_joined_cuts():
    # each joined cut is logged once, in join order; reads merge the log's
    # new tail into one sorted list
    f = SyncForest(6)
    cuts = f.flagged_cuts("L")
    f.add_edges([(1, 4)])
    f.recompress()
    f.set_flag(4, "L")
    assert f.log["L"] == [1, 4]
    assert f.flagged_cuts("L") == [1, 4]
    f.set_flag(2, "L")
    f.set_flag(4, "L")  # already flagged: joins nothing
    f.add_edges([(0, 2)])  # 0 joins with 2's flag
    f.recompress()
    assert f.log["L"] == [1, 4, 2, 0]
    assert f.flagged_cuts("L") == [0, 1, 2, 4]
    assert f.flagged_cuts("L") is cuts
    assert f.log["L"] == [1, 4, 2, 0] and f.log["R"] == []


def test_add_edges_out_of_range_buffers_nothing():
    f = SyncForest(4)
    f.add_edges([(0, 1)])
    with pytest.raises(ValueError):
        f.add_edges([(2, 3), (-1, 2)])
    with pytest.raises(ValueError):
        f.add_edges(iter([(2, 3), (4, 5)]))
    with pytest.raises(ValueError):
        f.add_edges([(2, 3), (4,)])
    assert f.pending == [0, 1]
    assert f.add_edges((e for e in [(1, 2), (3, 4)])) == 2
    assert f.recompress() > 0
    assert f.components() == [[0, 1, 2], [3, 4]]
