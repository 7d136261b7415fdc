"""The value types: what their dataclass forms gave, kept without dataclasses.

Only ``FactorizationResult`` stays a dataclass, for ``dataclasses.replace``;
the others are ``NamedTuple``s or ``__slots__`` classes, whose classes are
built at import without generating methods.  ``Rounds``, a result's
``rounds``, is a sequence that builds each ``RoundRecord`` when it is read.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from array import array

import pytest

import morphprim
from morphprim import (
    FactorizationResult,
    Morphism,
    OracleResult,
    Word,
    intern_word,
    min_expanding,
    run,
)
from morphprim.engine import Counters, RoundRecord, Rounds
from morphprim.words import PosIndex, build_index


class TestWord:
    def test_keyword_construction_and_fields(self):
        w = Word(letters=(0, 1, 0), symbols=("a", "b"))
        assert w.letters == (0, 1, 0) and w.symbols == ("a", "b")
        assert (w.n, w.alphabet_size) == (3, 2)
        assert w == intern_word("aba")

    def test_equality_and_hash_follow_the_fields(self):
        w = intern_word("abba")
        assert w == Word(letters=(0, 1, 1, 0), symbols=("a", "b"))
        assert hash(w) == hash(intern_word("abba"))
        assert len({w, intern_word("abba"), intern_word("baab")}) == 2
        assert w != intern_word("abab")
        assert w != Word(letters=(0, 1, 1, 0), symbols=("x", "y"))

    def test_no_tuple_behaviour(self):
        w = intern_word("ab")
        assert w != ((0, 1), ("a", "b"))
        with pytest.raises(TypeError):
            len(w)
        with pytest.raises(TypeError):
            iter(w)

    def test_repr(self):
        assert repr(intern_word("aba")) == "Word(letters=(0, 1, 0), symbols=('a', 'b'))"


def test_pos_index_fields_and_equality():
    idx = build_index(intern_word("abaaba"))
    assert idx == PosIndex(
        count=(4, 2), pos=(array("I", [1, 3, 4, 6]), array("I", [2, 5]))
    )
    assert idx.count == (4, 2) and list(idx.pos[1]) == [2, 5]


def test_morphism_fields_equality_and_apply():
    f = Morphism(expanding=frozenset({1}), images=((), (0, 1, 0)))
    assert f.expanding == frozenset({1}) and f.images == ((), (0, 1, 0))
    assert f == run(intern_word("abaaba")).morphism
    assert f.apply((0, 1, 0)) == (0, 1, 0)


def test_oracle_result_fields_equality_and_morphism():
    w = intern_word("abaaba")
    res = min_expanding(w)
    assert OracleResult._fields == ("morphism",)
    assert res == OracleResult(Morphism(frozenset({1}), ((), (0, 1, 0))))
    assert res.morphism == run(w).morphism
    assert (res.size, res.expanding, res.proper) == (1, frozenset({1}), True)
    assert not hasattr(res, "images")


def test_counters_start_at_zero():
    c = Counters()
    assert (c.scanned, c.visits, c.edges, c.cells, c.loop_checks) == (0, 0, 0, 0, 0)
    assert c == Counters()
    c.scanned += 1
    assert c != Counters()
    # equal only to Counters
    assert Counters().__eq__(object()) is NotImplemented
    assert Counters() != (0, 0, 0, 0, 0)
    assert repr(c) == "Counters(scanned=1, visits=0, edges=0, cells=0, loop_checks=0)"


def test_rounds_read_as_a_sequence_of_records():
    w = intern_word("abcbabcbabcacbabcba")
    rounds = run(w).rounds
    records = list(rounds)
    assert len(rounds) == len(records) == 3
    assert all(type(r) is RoundRecord for r in records)
    # iteration, indexing and slicing give the records in recording order
    assert [w.symbols[r.letter] for r in records] == ["c", "a", "b"]
    assert rounds[-1] == rounds[2] == records[-1]
    assert rounds[1:] == tuple(records[1:])
    assert rounds[::-1] == tuple(reversed(records))
    with pytest.raises(IndexError):
        rounds[3]
    assert rounds == run(w).rounds
    assert rounds != run(intern_word("abcbabcbabcacbabcbb")).rounds
    # the repr shows the join logs and the 32-bit counts, and no address
    assert repr(run(intern_word("abaaba")).rounds) == (
        "Rounds(log={'L': array('I', [0, 6, 3, 1, 4]), 'R': array('I', [0, 6, 3, 2, 5])}, "
        "counts=array('I', [1, 1, 1, 5, 2, 4, 4, 5, 5]))"
    )
    assert " at 0x" not in repr(run(w))
    # nine counts per round, 64-bit for a word too long for 32-bit counts
    big = Rounds({"L": array("I", [0, 1]), "R": array("I", [0])}, 2**32)
    big.counts.extend((3, 1, 2, 2**33, 4, 5, 2**40, 2, 1))
    assert big[0].neighborhood.visited == 2**33 and big[0].cells == 2**40
    assert big[0].left_cuts == (0, 1) and big[0].right_cuts == (0,)


# N = n + 1 cuts: cells reach at most N * 29 // 2 for 2**28 <= N < 2**29,
# which stays below 2**32 up to N = 296_204_641
@pytest.mark.parametrize("n, typecode", [(296_204_640, "I"), (296_204_641, "Q")])
def test_rounds_keep_32_bit_counts_while_their_bound_fits(n, typecode):
    # no word of that length is needed: Rounds sizes its counts by n alone
    rounds = Rounds({"L": array("I"), "R": array("I")}, n)
    assert rounds.counts.typecode == typecode
    assert (Rounds.count_bound(n) < 2**32) == (typecode == "I")


def test_results_can_be_replaced_field_by_field():
    # the benchmark's checker tests derive wrong results this way
    result = run(intern_word("abaaba"))
    flipped = dataclasses.replace(result, primitive=not result.primitive)
    assert flipped.primitive is True and result.primitive is False
    assert flipped.morphism is result.morphism
    assert result == run(intern_word("abaaba"))


def test_factorization_result_is_the_only_dataclass():
    # dataclass methods are generated at import, several milliseconds for
    # a handful of classes; keep the package to the one that needs replace
    found = []
    for info in pkgutil.iter_modules(morphprim.__path__, "morphprim."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.append(cls)
    assert found == [FactorizationResult]
