from __future__ import annotations

import ast
from itertools import product
from pathlib import Path

import pytest

from morphprim import (
    WordTooLongError,
    factorization_exists,
    intern_word,
    is_primitive_oracle,
    min_expanding,
    palindrome_pair_word,
    run,
    verify,
)
import morphprim.oracle
from morphprim.oracle import all_words


class TestFactorizationExists:
    def test_abaaba_b(self):
        assert factorization_exists(intern_word("abaaba"), {1})

    def test_abba_no_single_letter(self):
        w = intern_word("abba")
        assert not factorization_exists(w, {0})
        assert not factorization_exists(w, {1})

    def test_full_alphabet_always_works(self, small_corpus):
        for w in small_corpus[:500]:
            assert factorization_exists(w, set(range(w.alphabet_size)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            factorization_exists(intern_word("ab"), set())

    def test_non_subset_rejected(self):
        with pytest.raises(ValueError):
            factorization_exists(intern_word("ab"), {5})


class TestMinExpanding:
    def test_abaaba(self):
        res = min_expanding(intern_word("abaaba"))
        assert res.size == 1
        assert res.expanding == frozenset({1})
        assert res.proper

    def test_abba(self):
        res = min_expanding(intern_word("abba"))
        assert res.size == 2
        assert not res.proper

    def test_aa_is_primitive(self):
        res = min_expanding(intern_word("aa"))
        assert res.size == 1
        assert not res.proper

    def test_empty_word(self):
        res = min_expanding(intern_word(""))
        assert res.size == 0
        assert not res.proper

    def test_size_guard(self):
        w = intern_word("a" * 17)
        with pytest.raises(WordTooLongError):
            min_expanding(w)
        assert min_expanding(w, max_len=20).size == 1
        assert min_expanding(w, force=True).size == 1

    def test_witness_converts_to_valid_morphism(self, small_corpus):
        for w in small_corpus[:2000]:
            res = min_expanding(w)
            assert verify(w, res.morphism(w))


class TestIsPrimitiveOracle:
    def test_intro_words(self):
        assert not is_primitive_oracle(intern_word("abaaba"))
        assert is_primitive_oracle(intern_word("abba"))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_palindrome_pair_family(self, k):
        assert is_primitive_oracle(palindrome_pair_word(k))


class TestAllWords:
    def test_small_streams(self):
        assert [w.render() for w in all_words(2, 2)] == ["a", "aa", "ab"]
        assert [w.render() for w in all_words(3, 2)] == [
            "a", "aa", "ab", "aaa", "aab", "aba", "abb",
        ]

    def test_counts_match_direct_enumeration(self):
        # independent count: enumerate all raw words, canonicalize, dedupe
        max_len, max_m = 5, 3
        seen = set()
        for length in range(1, max_len + 1):
            for raw in product(range(max_m), repeat=length):
                relabel: dict[int, int] = {}
                canon = tuple(relabel.setdefault(a, len(relabel)) for a in raw)
                seen.add(canon)
        stream = [w.letters for w in all_words(max_len, max_m)]
        assert len(stream) == len(set(stream)) == len(seen)
        assert set(stream) == seen

    def test_words_are_canonical(self):
        for w in all_words(6, 4):
            first_seen: list[int] = []
            for a in w.letters:
                if a not in first_seen:
                    first_seen.append(a)
            assert first_seen == sorted(first_seen)
            assert len(first_seen) == w.alphabet_size


class TestAgreementWithEngine:
    def test_verdicts_and_sizes(self, small_corpus):
        for w in small_corpus:
            res = run(w)
            oracle = min_expanding(w)
            assert res.primitive == (not oracle.proper), w.render()
            assert len(res.expanding) == oracle.size, w.render()


def test_oracle_imports_nothing_of_the_engine():
    # agreement with the engine is evidence only while the oracle shares no
    # code with it: of the package, it may import the word module alone
    tree = ast.parse(Path(morphprim.oracle.__file__).read_text(encoding="utf-8"))
    relative, absolute = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                relative.append("." * node.level + (node.module or ""))
            else:
                absolute.append(node.module)
        elif isinstance(node, ast.Import):
            absolute += [alias.name for alias in node.names]
    assert relative == [".words"]
    assert not [name for name in absolute if name.split(".")[0] == "morphprim"]
