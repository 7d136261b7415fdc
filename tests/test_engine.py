from __future__ import annotations

import random
import tracemalloc

import pytest

from morphprim import (
    EngineState,
    Morphism,
    Word,
    build_index,
    expand_letter,
    find_violation,
    image,
    intern_word,
    left_right_cut_check,
    palindrome_pair_word,
    random_word,
    run,
    verify,
)
from morphprim.engine import SHORT_TAIL, alpha_query, frequency_classes, merge_cuts
from morphprim.oracle import all_words

from conftest import (
    EXAMPLE_WORD,
    alpha_naive,
    assert_counter_bounds,
    assert_fixed_point,
    factor_cuts_by_definition,
    first_violation_naive,
    image_by_walk,
)


def letter_id(w, symbol):
    return w.symbols.index(symbol)


def surface(w, letters):
    return "".join(w.symbols[a] for a in letters)


class TestExpandLetter:
    def test_example_round_one(self):
        w = intern_word(EXAMPLE_WORD)
        state = EngineState(w)
        expand_letter(state, letter_id(w, "c"))
        assert state.forest.flagged_cuts("L") == [0, 3, 4, 7, 16]
        assert state.forest.flagged_cuts("R") == [0, 1, 4, 5, 16]

    def test_example_rounds_two_and_three(self):
        w = intern_word(EXAMPLE_WORD)
        state = EngineState(w)
        expand_letter(state, letter_id(w, "c"))
        expand_letter(state, letter_id(w, "b"))
        assert state.forest.flagged_cuts("L") == [0, 3, 4, 7, 11, 12, 16]
        assert state.forest.flagged_cuts("R") == [0, 1, 4, 5, 9, 12, 16]
        expand_letter(state, letter_id(w, "d"))
        assert state.forest.flagged_cuts("L") == [0, 3, 4, 7, 8, 11, 12, 15, 16]
        assert state.forest.flagged_cuts("R") == [0, 1, 4, 5, 8, 9, 12, 13, 16]

    def test_abaaba_round_one(self):
        w = intern_word("abaaba")
        state = EngineState(w)
        expand_letter(state, letter_id(w, "b"))
        assert state.forest.flagged_cuts("L") == [0, 1, 3, 4, 6]
        assert state.forest.flagged_cuts("R") == [0, 2, 3, 5, 6]

    def test_duplicate_letter_rejected(self):
        w = intern_word("abaaba")
        state = EngineState(w)
        expand_letter(state, 1)
        with pytest.raises(ValueError):
            expand_letter(state, 1)


class TestFindViolation:
    def test_initial_example(self):
        w = intern_word(EXAMPLE_WORD)
        state = EngineState(w)
        assert find_violation(state) == letter_id(w, "c")

    def test_after_round_two(self):
        w = intern_word(EXAMPLE_WORD)
        state = EngineState(w)
        expand_letter(state, letter_id(w, "c"))
        assert find_violation(state) == letter_id(w, "b")
        expand_letter(state, letter_id(w, "b"))
        assert find_violation(state) == letter_id(w, "d")

    def test_stable_after_round_four(self):
        w = intern_word(EXAMPLE_WORD)
        state = EngineState(w)
        for s in "cbde":
            expand_letter(state, letter_id(w, s))
        assert find_violation(state) is None

    def test_abba_after_round_one(self):
        w = intern_word("abba")
        state = EngineState(w)
        expand_letter(state, letter_id(w, "a"))
        assert state.forest.flagged_cuts("L") == [0, 1, 3, 4]
        assert state.forest.flagged_cuts("R") == [0, 1, 3, 4]
        assert find_violation(state) == letter_id(w, "b")

    def test_empty_word_stable(self):
        state = EngineState(intern_word(""))
        assert find_violation(state) is None


class TestImage:
    def test_example_images(self):
        w = intern_word(EXAMPLE_WORD)
        state = EngineState(w)
        while (a := find_violation(state)) is not None:
            expand_letter(state, a)
        expected = {"b": "aab", "c": "c", "d": "aad", "e": "e"}
        for s, img in expected.items():
            assert surface(w, image(state, letter_id(w, s))) == img

    def test_abaaba_image(self):
        w = intern_word("abaaba")
        state = EngineState(w)
        expand_letter(state, 1)
        assert surface(w, image(state, 1)) == "aba"

    def test_non_expanding_rejected(self):
        w = intern_word("abaaba")
        state = EngineState(w)
        expand_letter(state, 1)
        with pytest.raises(ValueError):
            image(state, 0)

    def test_primitive_word_identity_images(self):
        w = intern_word("abba")
        state = EngineState(w)
        while (a := find_violation(state)) is not None:
            expand_letter(state, a)
        for a in range(w.alphabet_size):
            assert image(state, a) == (a,)

    def test_independent_of_anchoring_occurrence(self, small_corpus):
        for w in small_corpus[:2000]:
            state = EngineState(w)
            while (a := find_violation(state)) is not None:
                expand_letter(state, a)
            for a in state.expanding:
                imgs = {image_by_walk(state, k) for k in state.index.pos[a]}
                assert imgs == {image(state, a)}


class TestRun:
    def test_abaaba(self):
        w = intern_word("abaaba")
        r = run(w)
        assert not r.primitive
        assert r.round_count == 1
        assert surface(w, r.morphism.images[letter_id(w, "a")]) == ""
        assert surface(w, r.morphism.images[letter_id(w, "b")]) == "aba"
        assert r.factor_cuts == (0, 3, 6)

    def test_abba(self):
        w = intern_word("abba")
        r = run(w)
        assert r.primitive
        assert r.round_count == 2
        assert [w.symbols[rr.letter] for rr in r.rounds] == ["a", "b"]

    def test_example_word(self):
        w = intern_word(EXAMPLE_WORD)
        r = run(w)
        assert not r.primitive
        assert [w.symbols[rr.letter] for rr in r.rounds] == ["c", "b", "d", "e"]
        images = {
            w.symbols[a]: surface(w, img)
            for a, img in enumerate(r.morphism.images)
        }
        assert images == {"a": "", "b": "aab", "c": "c", "d": "aad", "e": "e"}

    def test_single_letter(self):
        r = run(intern_word("a"))
        assert r.primitive
        assert r.round_count == 1

    def test_empty_word(self):
        r = run(intern_word(""))
        assert r.primitive
        assert r.round_count == 0
        assert r.counters.loop_checks == 1

    def test_round_counters(self, small_corpus):
        for w in small_corpus[:2000]:
            assert_counter_bounds(w, run(w))

    def test_fixed_points(self, small_corpus):
        for w in small_corpus[:2000]:
            assert_fixed_point(w, run(w))

    def test_trace_flag_monotonicity(self, small_corpus):
        for w in small_corpus[:1000]:
            r = run(w)
            prev_l, prev_r = {0, w.n}, {0, w.n}
            for rr in r.rounds:
                assert prev_l <= set(rr.left_cuts)
                assert prev_r <= set(rr.right_cuts)
                prev_l, prev_r = set(rr.left_cuts), set(rr.right_cuts)

    def test_factor_well_formedness(self, small_corpus):
        # factors delimited by the factor cuts contain exactly one expanding
        # letter each, and equal-letter factors coincide
        for w in small_corpus[:2000]:
            r = run(w)
            cuts = r.factor_cuts
            assert cuts[0] == 0 and cuts[-1] == w.n
            blocks: dict[int, tuple[int, ...]] = {}
            for lo, hi in zip(cuts, cuts[1:]):
                factor = w.segment(lo + 1, hi)
                inside = [a for a in factor if a in r.expanding]
                assert len(inside) == 1
                e = inside[0]
                assert blocks.setdefault(e, factor) == factor


class TestVerify:
    def test_abaaba_witness(self):
        w = intern_word("abaaba")
        f = Morphism(expanding=frozenset({1}), images=((), (0, 1, 0)))
        assert verify(w, f)

    def test_abaaba_wrong_image(self):
        w = intern_word("abaaba")
        f = Morphism(expanding=frozenset({1}), images=((), (0, 1)))
        assert not verify(w, f)

    def test_identity(self, small_corpus):
        for w in small_corpus[:200]:
            m = w.alphabet_size
            f = Morphism(
                expanding=frozenset(range(m)),
                images=tuple((a,) for a in range(m)),
            )
            assert verify(w, f)

    def test_non_idempotent_rejected(self):
        # swap fixes the word ... but abab has no nontrivial fixed morphism;
        # use a morphism fixing w yet not idempotent: f(a)=b image breaks f∘f
        w = intern_word("ab")
        f = Morphism(expanding=frozenset({0, 1}), images=((0, 1), ()))
        # f(w) = ab = w, but f(f(b)) = f(()) = () == f(b): idempotent, ok
        assert verify(w, f)
        g = Morphism(expanding=frozenset({0}), images=((1,), (0,)))
        # g(w) = ba != w
        assert not verify(w, g)


class TestLeftRightCutCheck:
    def test_abaaba_final_cuts(self):
        w = intern_word("abaaba")
        r = run(w)
        assert left_right_cut_check(w, r.morphism, [0, 1, 3, 4, 6], [0, 2, 3, 5, 6])

    def test_extremal_cuts_always_pass(self, small_corpus):
        for w in small_corpus[:200]:
            r = run(w)
            assert left_right_cut_check(w, r.morphism, [0, w.n], [0, w.n])

    def test_bad_left_cut_detected(self):
        w = intern_word("abaaba")
        r = run(w)
        # |f(ab)| = 3 > 2, so 2 cannot be a left cut
        assert not left_right_cut_check(w, r.morphism, [2], [])


def test_image_at_matches_flag_walk(small_corpus):
    words = small_corpus[::5] + [intern_word(EXAMPLE_WORD)]
    words += [random_word(300, a, seed) for a in (2, 3, 5) for seed in range(4)]
    for w in words:
        state = EngineState(w)
        while (a := find_violation(state)) is not None:
            expand_letter(state, a)
            # every expanding letter, at every occurrence, after every round
            for b in state.expanding:
                for k in state.index.pos[b]:
                    assert image(state, b) == image_by_walk(state, k)


@pytest.mark.parametrize(
    "text, order",
    [
        ("ebecb", "cb"),  # needs the scan lowered for a new right cut
        ("fedabedbcb", "fcadb"),  # needs the scan lowered for a new left cut
    ],
)
def test_resumed_scan_after_expansions_out_of_scan_order(text, order):
    w = intern_word(text)
    state = EngineState(w)
    for s in order:
        assert find_violation(state) == first_violation_naive(w, state)
        expand_letter(state, letter_id(w, s))
    assert find_violation(state) == first_violation_naive(w, state)


def test_wn_work_gate():
    # resuming the scan and relabeling only the cuts that moved keep the
    # work on wn (k = 64) well below one pass over all cuts per round
    r = run(palindrome_pair_word(64))
    assert r.counters.scanned <= 4_800
    assert r.counters.cells <= 5_000


def test_wn_scan_reads_linear_work():
    # range-minimum queries answer wn's long segments, so the run reads
    # about 3n in all, where suffix scans alone read about n^2 / 4
    w = palindrome_pair_word(1024)
    assert run(w).counters.scanned <= 4 * w.n


def test_round_one_ties_break_to_the_first_occurrence():
    # letter ids follow first appearance only in interned words; a Word
    # built directly may number its letters in any order
    w = Word(letters=(2, 1, 0, 0, 1, 2), symbols=("a", "b", "c"))
    state = EngineState(w)
    assert find_violation(state) == 2 == first_violation_naive(w, state)


def test_fully_expanded_state_returns_none_at_once():
    for text in ("", "a", "abaaba", "abba", EXAMPLE_WORD, "abcb" * 50):
        w = intern_word(text)
        state = EngineState(w)
        for a in reversed(range(w.alphabet_size)):
            expand_letter(state, a)
        assert find_violation(state) is None
        assert state.last_scan == 0
        assert state.scan_from > w.n


def test_round_one_reads_the_alphabet_and_the_last_check_reads_nothing(small_corpus):
    # round 1 takes its letter from the index (m reads, not n), and once
    # every letter expands the last check reads nothing at all
    words = [w for w in small_corpus[::7] if w.n] + [intern_word(EXAMPLE_WORD)]
    words += [palindrome_pair_word(k) for k in (1, 2, 17, 64)]
    words += [random_word(n, a, seed) for n, a, seed in [(500, 2, 0), (4000, 4, 1), (3000, 9, 2)]]
    for w in words:
        r = run(w)
        assert r.rounds[0].scanned == w.alphabet_size
        if r.primitive:
            assert r.counters.scanned == sum(rr.scanned for rr in r.rounds)


@pytest.mark.parametrize("text", [
    "ab" * 50, "abcd" * 100, "abccc" * 300, "aab" * 70, "abcabd" * 40,
    "a" * 30, "ba" * 31 + "b", "abcb" * 50, "abc" * 7 + "d" + "abc" * 7,
])
def test_factor_cuts_of_periodic_words_match_definition(text):
    w = intern_word(text)
    r = run(w)
    assert r.factor_cuts == factor_cuts_by_definition(w, r.morphism)


def drive(text):
    state = EngineState(intern_word(text))
    while (a := find_violation(state)) is not None:
        expand_letter(state, a)
    return state


class TestFrequencyClasses:
    def assert_queries_match_naive(self, w):
        # every interval (i, j] against alpha_naive; a query probes at most
        # one occurrence list per distinct frequency
        idx = build_index(w)
        classes = frequency_classes(idx)
        assert len(classes) == len(set(idx.count))
        for i in range(w.n):
            for j in range(i + 1, w.n + 1):
                p, probes = alpha_query(classes, i, j)
                assert p == alpha_naive(w, idx, i, j)
                assert 1 <= probes <= len(classes)
        return idx, classes

    def test_all_frequencies_equal(self):
        # wn: one class holding every position, so the first probe hits
        w = palindrome_pair_word(12)
        _, classes = self.assert_queries_match_naive(w)
        assert list(classes[0]) == list(range(1, w.n + 1))
        assert all(alpha_query(classes, i, w.n) == (i + 1, 1) for i in range(w.n))

    def test_single_letter(self):
        idx, classes = self.assert_queries_match_naive(intern_word("aaaaa"))
        assert len(classes) == 1 and classes[0] is idx.pos[0]

    def test_distinct_frequencies_keep_each_letters_positions(self):
        # d = m: a once, b twice, c three and d four times; every class is
        # its letter's own position tuple, least frequent first
        w = intern_word("dcbdcdbadc")
        idx, classes = self.assert_queries_match_naive(w)
        order = [w.symbols.index(s) for s in "abcd"]
        assert all(c is idx.pos[a] for c, a in zip(classes, order, strict=True))

    def test_tied_letters_share_one_sorted_class(self):
        w = intern_word("abcbaacdd")  # a 3, b 2, c 2, d 2
        idx, classes = self.assert_queries_match_naive(w)
        assert [list(c) for c in classes] == [[2, 3, 4, 7, 8, 9], [1, 5, 6]]

    def test_classes_are_built_only_for_queries(self):
        # a word stable after round one, over two scans, builds nothing
        state = drive("abcb" * 50)
        assert len(state.rounds) == 1 and state.classes is None
        # the first scan of any word reads the index, not the word
        state = EngineState(palindrome_pair_word(64))
        find_violation(state)
        assert state.classes is None
        # a long segment with one left cut after round one could be queried,
        # but its 200 positions cost less than a build reads (n + m = 203),
        # so it is scanned
        state = drive("ab" * 100 + "c")
        assert state.classes is None and state.rent_due == 3
        # wn (k = 64) has such a segment in every round: the first is
        # scanned, and the second, which would take the scans past a
        # build's 192 reads, builds the lists and is queried
        state = EngineState(palindrome_pair_word(64))
        while (a := find_violation(state)) is not None:
            expand_letter(state, a)
        assert state.classes is not None
        assert [r.scanned for r in state.rounds[:3]] == [64, 127, 3]


def test_round_records_replay_the_cut_lists_of_each_round():
    # a round's record rebuilds its cuts from the forest's join logs; they
    # must equal the sorted lists the engine kept right after that round
    words = list(all_words(7, 4))
    words += [palindrome_pair_word(k) for k in range(1, 33)]
    words += [random_word(n, a, seed) for n, a, seed in [(50, 2, 0), (400, 3, 1), (2000, 5, 2)]]
    for w in words:
        state = EngineState(w)
        seen = []
        while (a := find_violation(state)) is not None:
            expand_letter(state, a)
            seen.append((tuple(state.left_cuts), tuple(state.right_cuts)))
        assert [(r.left_cuts, r.right_cuts) for r in run(w).rounds] == seen


def peak_alloc(w) -> int:
    tracemalloc.start()
    try:
        run(w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rounds_hold_no_copies_of_the_cut_lists():
    # wn has one round per letter and about n cuts per side, so a copy of
    # the cut lists per round would make the peak grow like n^2 (16x from
    # k = 256 to k = 1024); without copies it grows about linearly
    small, large = palindrome_pair_word(256), palindrome_pair_word(1024)
    assert peak_alloc(large) <= 6 * peak_alloc(small)


@pytest.mark.parametrize("k", range(2 * SHORT_TAIL + 2))
def test_merge_cuts_takes_in_a_tail_in_any_order(k):
    # k new cuts, inserted one by one up to SHORT_TAIL and sorted in past
    # it, into lists of several lengths, the tail ascending, descending or
    # shuffled: the list is changed in place to the sorted union, and the
    # tail is left as it was
    rng = random.Random(k)
    for size in (0, 1, 5, 40):
        drawn = rng.sample(range(60), size + k)
        cuts, new = sorted(drawn[:size]), drawn[size:]
        for tail in (sorted(new), sorted(new, reverse=True), new):
            merged, given = cuts[:], tail[:]
            assert merge_cuts(merged, given) is None
            assert merged == sorted(set(cuts + new))
            assert given == tail
