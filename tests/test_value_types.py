"""The value types: what their dataclass forms gave, kept without dataclasses.

Only ``FactorizationResult`` stays a dataclass, for ``dataclasses.replace``;
the others are ``NamedTuple``s or ``__slots__`` classes, whose classes are
built at import without generating methods.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import morphprim
from morphprim import (
    FactorizationResult,
    Morphism,
    OracleResult,
    PosIndex,
    Word,
    build_index,
    intern_word,
    min_expanding,
    run,
)
from morphprim.engine import Counters


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
    assert idx == PosIndex(count=(4, 2), pos=((1, 3, 4, 6), (2, 5)))
    assert idx.count == (4, 2) and idx.pos[1] == (2, 5)


def test_morphism_fields_equality_and_apply():
    f = Morphism(expanding=frozenset({1}), images=((), (0, 1, 0)))
    assert f.expanding == frozenset({1}) and f.images == ((), (0, 1, 0))
    assert f == run(intern_word("abaaba")).morphism
    assert f.apply((0, 1, 0)) == (0, 1, 0)


def test_oracle_result_fields_equality_and_morphism():
    w = intern_word("abaaba")
    res = min_expanding(w)
    assert res == OracleResult(size=1, expanding=frozenset({1}), proper=True, images={1: (0, 1, 0)})
    assert (res.size, res.proper) == (1, True)
    assert res.morphism(w) == run(w).morphism


def test_counters_start_at_zero():
    c = Counters()
    assert (c.scanned, c.visits, c.edges, c.cells, c.loop_checks) == (0, 0, 0, 0, 0)
    assert c == Counters()
    c.scanned += 1
    assert c != Counters()
    assert repr(c) == "Counters(scanned=1, visits=0, edges=0, cells=0, loop_checks=0)"


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
