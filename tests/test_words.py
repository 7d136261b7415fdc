from __future__ import annotations

import tracemalloc

import pytest

from morphprim import intern_word, palindrome_pair_word, random_word
from morphprim.words import build_index, neighborhood

from conftest import EXAMPLE_WORD, alpha_naive, at, neighborhood_by_walk


class TestInternWord:
    def test_first_appearance_ids(self):
        w = intern_word("abaaba")
        assert w.letters == (0, 1, 0, 0, 1, 0)
        assert w.alphabet_size == 2
        assert w.symbols == ("a", "b")

    def test_empty(self):
        w = intern_word("")
        assert w.n == 0
        assert w.alphabet_size == 0

    def test_sixteen_letter_example(self):
        w = intern_word(EXAMPLE_WORD)
        assert w.n == 16
        assert w.alphabet_size == 5
        assert w.render() == EXAMPLE_WORD

    def test_token_symbols_roundtrip(self):
        w = intern_word(["foo", "bar", "foo"])
        assert w.letters == (0, 1, 0)
        assert w.render() == "foo bar foo"

    def test_render_with_a_given_separator(self):
        # sep overrides the alphabet's default, for the word or some letters
        w = intern_word(["foo", "b", "foo"])
        assert w.render(sep="") == "foobfoo"
        assert w.render((1, 0), " ") == "b foo"
        assert intern_word("abc").render(sep=" ") == "a b c"
        assert w.render(()) == w.render((), " ") == ""


class TestBuildIndex:
    def test_abaaba(self):
        w = intern_word("abaaba")
        idx = build_index(w)
        a, b = 0, 1
        assert idx.count[a] == 4
        assert idx.count[b] == 2
        assert list(idx.pos[b]) == [2, 5]

    def test_example_word_counts(self):
        w = intern_word(EXAMPLE_WORD)
        idx = build_index(w)
        counts = {w.symbols[i]: c for i, c in enumerate(idx.count)}
        assert counts == {"a": 8, "b": 2, "c": 2, "d": 2, "e": 2}

    def test_empty(self):
        idx = build_index(intern_word(""))
        assert idx.count == ()
        assert idx.pos == ()

    def test_positions_sorted_and_consistent(self, small_corpus):
        for w in small_corpus[:500]:
            idx = build_index(w)
            assert sum(idx.count) == w.n
            for a, occ in enumerate(idx.pos):
                assert list(occ) == sorted(occ)
                assert all(at(w, p) == a for p in occ)

    def test_peak_is_at_most_8_bytes_per_letter(self):
        # positions as 4-byte array slots; as tuples of ints the index took
        # 44 bytes per letter: an 8-byte slot and a 32-byte int for each,
        # and the list the tuple was built from
        w = random_word(24_000, 12, seed=1)
        tracemalloc.start()
        try:
            build_index(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * w.n


class TestNeighborhood:
    @pytest.mark.parametrize(
        "letter,expected",
        [("a", (0, 0)), ("b", (2, 0)), ("c", (0, 2)), ("d", (2, 0)), ("e", (0, 2))],
    )
    def test_example_word(self, letter, expected):
        w = intern_word(EXAMPLE_WORD)
        idx = build_index(w)
        a = w.symbols.index(letter)
        nb = neighborhood(w, idx, a)
        assert (nb.left_len, nb.right_len) == expected

    def test_abaaba_b(self):
        w = intern_word("abaaba")
        nb = neighborhood(w, build_index(w), 1)
        assert (nb.left_len, nb.right_len) == (1, 1)

    def test_single_occurrence_extends_to_boundaries(self):
        w = intern_word("abc")
        nb = neighborhood(w, build_index(w), 1)
        assert (nb.left_len, nb.right_len) == (1, 1)

    def test_unknown_letter(self):
        w = intern_word("ab")
        with pytest.raises(ValueError):
            neighborhood(w, build_index(w), 5)

    @pytest.mark.parametrize("text,expected", [
        ("ababab", (0, 1, 5)), ("ababbab", (0, 1, 5)),
        ("abababab", (0, 1, 7)), ("ababbabbab", (0, 1, 6)),
    ])
    def test_step_that_takes_the_last_occurrence_out(self, text, expected):
        # the last a ends one letter before the word, so the right walk ends
        # with a step that stops at the last occurrence: in ababab and
        # abababab no occurrence differs there and the step reads all but
        # the last; in ababbab and ababbabbab the second one differs, and the
        # step reads the first two
        w = intern_word(text)
        idx = build_index(w)
        assert tuple(neighborhood(w, idx, 0)) == expected == neighborhood_by_walk(w, idx, 0)

    def test_visit_bound(self, small_corpus):
        for w in small_corpus:
            idx = build_index(w)
            for a in range(w.alphabet_size):
                assert neighborhood(w, idx, a).visited <= 2 * w.n

    def test_matches_walk_on_small_corpus(self, small_corpus):
        for w in small_corpus:
            idx = build_index(w)
            for a in range(w.alphabet_size):
                assert tuple(neighborhood(w, idx, a)) == neighborhood_by_walk(w, idx, a)

    def test_matches_walk_on_palindrome_pairs(self):
        for k in range(1, 65):
            w = palindrome_pair_word(k)
            idx = build_index(w)
            for a in range(k):
                assert tuple(neighborhood(w, idx, a)) == neighborhood_by_walk(w, idx, a)

    def test_agreement_and_maximality(self, small_corpus):
        for w in small_corpus[:2000]:
            idx = build_index(w)
            for a in range(w.alphabet_size):
                nb = neighborhood(w, idx, a)
                occ = idx.pos[a]
                for p in occ:
                    assert p - nb.left_len >= 1
                    assert p + nb.right_len <= w.n
                first = occ[0]
                for k in range(1, nb.right_len + 1):
                    assert all(at(w, p + k) == at(w, first + k) for p in occ)
                for k in range(1, nb.left_len + 1):
                    assert all(at(w, p - k) == at(w, first - k) for p in occ)
                # one more step fails agreement or crosses a boundary
                k = nb.right_len + 1
                assert any(p + k > w.n for p in occ) or len(
                    {at(w, p + k) for p in occ}
                ) > 1
                k = nb.left_len + 1
                assert any(p - k < 1 for p in occ) or len(
                    {at(w, p - k) for p in occ}
                ) > 1

    def test_contains_one_occurrence(self, small_corpus):
        # the neighborhood window around any occurrence holds no second copy
        for w in small_corpus[:2000]:
            idx = build_index(w)
            for a in range(w.alphabet_size):
                nb = neighborhood(w, idx, a)
                for p in idx.pos[a]:
                    window = w.segment(p - nb.left_len, p + nb.right_len)
                    assert window.count(a) == 1

    def test_observation_low_frequency_letters_have_clean_context(self, small_corpus):
        # any letter occurring in the neighborhood of a is at least as frequent
        for w in small_corpus:
            idx = build_index(w)
            for a in range(w.alphabet_size):
                nb = neighborhood(w, idx, a)
                p = idx.pos[a][0]
                for b in set(w.segment(p - nb.left_len, p + nb.right_len)):
                    assert idx.count[b] >= idx.count[a]


class TestAlphaNaive:
    def test_example_word_full_interval(self):
        w = intern_word(EXAMPLE_WORD)
        idx = build_index(w)
        k = alpha_naive(w, idx, 0, 16)
        assert k == 1
        assert w.symbols[at(w, k)] == "c"

    def test_example_word_stretch(self):
        w = intern_word(EXAMPLE_WORD)
        idx = build_index(w)
        k = alpha_naive(w, idx, 7, 9)
        assert k == 8
        assert w.symbols[at(w, k)] == "d"

    def test_single_position_interval(self, small_corpus):
        for w in small_corpus[:200]:
            idx = build_index(w)
            for i in range(w.n):
                assert alpha_naive(w, idx, i, i + 1) == i + 1

    def test_invalid_interval(self):
        w = intern_word("ab")
        idx = build_index(w)
        with pytest.raises(ValueError):
            alpha_naive(w, idx, 1, 1)
        with pytest.raises(ValueError):
            alpha_naive(w, idx, 2, 1)
        with pytest.raises(ValueError):
            alpha_naive(w, idx, 0, 3)

    def test_narrowing_from_left(self, small_corpus):
        # narrowing past non-minimal positions does not change the answer
        for w in small_corpus[:1000]:
            idx = build_index(w)
            n = w.n
            for i in range(n):
                for j in range(i + 1, n + 1):
                    k = alpha_naive(w, idx, i, j)
                    for i2 in range(i, k):
                        assert alpha_naive(w, idx, i2, j) == k


@pytest.mark.parametrize("call, message", [
    (lambda: palindrome_pair_word(0), "k must be >= 1"),
    (lambda: random_word(-1, 2, 0), "length must be >= 0"),
    (lambda: random_word(3, 0, 0), "alphabet >= 1"),
], ids=["wn-k", "random-length", "random-alphabet"])
def test_generator_arguments_out_of_range_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
