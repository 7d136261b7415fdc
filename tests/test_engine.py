from __future__ import annotations

import random
import sys
import weakref
from itertools import permutations

import pytest

import morphprim
from morphprim import (
    Morphism,
    Word,
    intern_word,
    palindrome_pair_word,
    random_word,
    run,
    verify,
)
from morphprim.engine import (
    EngineState,
    alpha_query,
    expand_letter,
    find_violation,
    frequency_classes,
    image,
)
from morphprim.forest import SyncForest
from morphprim.oracle import all_words, min_expanding
from morphprim.words import Neighborhood, build_index, neighborhood

from conftest import (
    EXAMPLE_WORD,
    alpha_naive,
    assert_fixed_point,
    assert_sides,
    assert_stable,
    at,
    factor_cuts_by_definition,
    first_violation_naive,
    image_by_walk,
    left_right_cut_check,
    planted,
)
from digest import planted_word
from peak import interned_peak_alloc, peak_alloc, source


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

    def test_absent_letter_rejected(self):
        # a symbol the word does not hold, and a letter past its alphabet;
        # both are refused by the one check in words.neighborhood
        for w, a in [(Word((0,), ("a", "b")), 1), (intern_word("ab"), 2)]:
            state = EngineState(w)
            with pytest.raises(ValueError, match="does not occur"):
                expand_letter(state, a)
            assert state.expanding == set()

    def test_uses_a_neighborhood_handed_over(self, monkeypatch):
        # the benchmark's traced run computes and times each neighborhood
        # itself, then hands it over in state.neighborhoods
        w = intern_word("abaaba")
        state = EngineState(w)
        b = letter_id(w, "b")
        nb = neighborhood(w, state.index, b)
        state.neighborhoods[b] = nb

        def unexpected(*args):
            raise AssertionError("neighborhood computed again")

        monkeypatch.setattr("morphprim.engine.neighborhood", unexpected)
        expand_letter(state, b)
        assert state.rounds[-1].neighborhood == nb
        assert state.forest.flagged_cuts("L") == [0, 1, 3, 4, 6]

    def test_neighborhood_outside_the_word_rejected(self, monkeypatch):
        # a single occurrence adds no edge, so only this check keeps a
        # negative cut from wrapping round the flag arrays
        w = intern_word("ab")
        state = EngineState(w)
        monkeypatch.setattr(
            "morphprim.engine.neighborhood", lambda *args: Neighborhood(2, 0, 0)
        )
        with pytest.raises(ValueError, match="leaves the word"):
            expand_letter(state, 1)
        assert state.expanding == set()

    def test_neighborhood_past_the_end_rejected(self, monkeypatch):
        # 'a' at 1 with right = 2 reaches cut 3 of "ab", which the flag
        # reads would meet as an IndexError
        w = intern_word("ab")
        state = EngineState(w)
        monkeypatch.setattr(
            "morphprim.engine.neighborhood", lambda *args: Neighborhood(0, 2, 0)
        )
        with pytest.raises(ValueError, match="leaves the word"):
            expand_letter(state, 0)
        assert state.expanding == set()

    def test_neighborhood_past_the_end_of_a_later_occurrence_rejected(self, monkeypatch):
        # 'a' at 1 and 3 with right = 1: the first occurrence's cut 2 is in
        # "aba", the last one's cut 4 is not; no star is buffered
        w = intern_word("aba")
        state = EngineState(w)
        monkeypatch.setattr(
            "morphprim.engine.neighborhood", lambda *args: Neighborhood(0, 1, 0)
        )
        with pytest.raises(ValueError, match="leaves the word"):
            expand_letter(state, letter_id(w, "a"))
        assert state.expanding == set()
        assert state.forest.pending == []


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
        # a check that scans and finds none leaves scan_from just past n
        assert state.scan_from == w.n + 1

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

    def test_too_few_images_rejected(self):
        w = intern_word("abaaba")
        with pytest.raises(ValueError, match="images for 1 of 2 letters"):
            verify(w, Morphism(frozenset(), ((),)))
        # images past the word's alphabet are not read
        assert verify(w, Morphism(frozenset({1}), ((), (0, 1, 0), (2,))))


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


def assert_images_by_walk(state):
    """Every expanding letter's image, read at every occurrence by a walk."""
    for b in state.expanding:
        for k in state.index.pos[b]:
            assert image(state, b) == image_by_walk(state, k)


def test_byte_searches_on_words_of_length_up_to_two():
    # n = 0, 1 and 2, every letter order: the searches start and stop at
    # the ends of the arrays
    words = [intern_word("")] + list(all_words(2, 2))
    assert sorted({w.n for w in words}) == [0, 1, 2]
    for w in words:
        for order in permutations(range(w.alphabet_size)):
            state = EngineState(w)
            for a in order:
                assert find_violation(state) == first_violation_naive(w, state)
                expand_letter(state, a)
                assert_sides(state.forest)
                assert_images_by_walk(state)
            assert find_violation(state) is first_violation_naive(w, state) is None
        r = run(w)
        assert_stable(w, r)
        assert_fixed_point(w, r)


def test_image_of_letters_first_at_either_end_of_the_word():
    # a letter first at position 1 starts its image after cut 0, the first
    # byte; a letter first at position n ends it at cut n, the last byte
    ends = {"first": 0, "last": 0}
    for w in all_words(6, 3):
        state = EngineState(w)
        while (a := find_violation(state)) is not None:
            expand_letter(state, a)
            assert_images_by_walk(state)
            for b in state.expanding:
                k = state.index.pos[b][0]
                if len(image(state, b)) > 1 and k in (1, w.n):
                    ends["first" if k == 1 else "last"] += 1
    assert min(ends.values()) > 0


def test_resumed_scan_lowered_to_cut_zero():
    # expanding the letter at position 1 after another one flags cut 1 on
    # R; when that is the smallest new R cut, the R cut below it, found by
    # rfind, is cut 0, and the next scan starts there
    hits = 0
    for w in all_words(6, 3):
        x = w.letters[0]
        for a in set(w.letters) - {x}:
            state = EngineState(w)
            find_violation(state)
            expand_letter(state, a)
            assert find_violation(state) == first_violation_naive(w, state)
            if x in state.expanding or state.scan_from == 0:
                continue
            old = len(state.forest.log["R"])
            expand_letter(state, x)
            if min(state.forest.log["R"][old:], default=0) == 1:
                hits += 1
                assert state.scan_from == 0
            assert find_violation(state) == first_violation_naive(w, state)
            assert_images_by_walk(state)
    assert hits > 0


def violating_segment(w, state):
    """The first left cut whose stretch violates, by alpha_naive, and the
    right cut that ends its stretch; None if no stretch violates."""
    left, right = state.forest.flagged_cuts("L"), state.forest.flagged_cuts("R")
    for l in left[:-1]:
        r = min(c for c in right if c > l)
        if at(w, alpha_naive(w, state.index, l, r)) not in state.expanding:
            return l, r
    return None


@pytest.mark.parametrize("path", ["scanned", "queried"])
def test_violation_in_a_segment_ending_at_n(path):
    # the last segment ends at cut n, the last byte of each array; short
    # words read it by suffix minima, and with the frequency classes built
    # up front every segment long enough for queries is queried
    hits = 0
    for w in all_words(7, 3):
        state = EngineState(w)
        if path == "queried":
            state.classes = frequency_classes(state.index)
        expand_letter(state, find_violation(state))
        while (seg := violating_segment(w, state)) is not None:
            l, r = seg
            if r == w.n and (r - l > state.query_cost) == (path == "queried"):
                hits += 1
            a = find_violation(state)
            assert a == first_violation_naive(w, state) is not None
            expand_letter(state, a)
        assert find_violation(state) is None
    assert hits > 0


@pytest.mark.parametrize("text, queried", [("aaabb", []), ("aaaabb", [(0, 4)])])
def test_segment_longer_than_a_query_is_queried(text, queried, monkeypatch):
    # with the classes built and b expanding, the one segment checked runs
    # from cut 0 to the cut before the first b; a query reads at most
    # d + 1 = 3, so a segment of 3 positions is scanned and one of 4 queried
    w = intern_word(text)
    state = EngineState(w)
    state.classes = frequency_classes(state.index)
    expand_letter(state, letter_id(w, "b"))
    calls = []

    def spy(classes, i, j):
        calls.append((i, j))
        return alpha_query(classes, i, j)

    monkeypatch.setattr(morphprim.engine, "alpha_query", spy)
    assert find_violation(state) == letter_id(w, "a")
    assert state.query_cost == 3 and calls == queried


def test_scanned_per_round_of_a_word_with_crowded_segments():
    # a query reads at most d + 1 = 5 here.  Round 2 scans (0, 8] and
    # (8, 16], which hold two left cuts each; a query could answer each,
    # so their positions count towards a build's n + m = 34 reads.  Round 3
    # then builds the lists and queries (19, 26] (3 reads) rather than
    # scanning it (7), after scanning (16, 17] (1)
    r = run(intern_word("22255354222553540222553525022"))
    assert [rr.scanned for rr in r.rounds] == [5, 29, 4, 2, 23]


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


def test_wn_merges_lone_cuts_without_a_join_call(monkeypatch):
    # wn's rounds each merge lone cuts into a component on the side they
    # take; the lone cut, on no side, sets its own bytes, so a join call
    # per lone merge (1 022 at k = 256) would show here, whatever the
    # machine's speed.  The extremal cuts hold arrays from the start, so
    # none is a lone cut on a side that makes its partner join
    calls = []
    join = SyncForest._join

    def counted(self, members, flags, log):
        calls.append(members)
        join(self, members, flags, log)

    monkeypatch.setattr(SyncForest, "_join", counted)
    r = run(palindrome_pair_word(256))
    assert calls == []
    assert r.counters.cells == 767


def test_primitive_run_builds_one_tuple_of_every_cut(monkeypatch):
    # a primitive word has every cut on both sides and ending a block, so
    # run() builds one tuple for all three and sorts no join log; an
    # imprimitive word's sides are its sorted join logs, read with no
    # forest left to call flagged_cuts on
    calls = []
    flagged_cuts = SyncForest.flagged_cuts

    def spied(self, side):
        calls.append(side)
        return flagged_cuts(self, side)

    monkeypatch.setattr(SyncForest, "flagged_cuts", spied)
    r = run(palindrome_pair_word(256))
    assert r.left_cuts is r.right_cuts is r.factor_cuts
    assert r.left_cuts == tuple(range(513))
    r = run(intern_word("abaaba"))
    assert r.left_cuts == (0, 1, 3, 4, 6)
    assert r.right_cuts == (0, 2, 3, 5, 6)
    assert calls == []


@pytest.mark.parametrize("text", ["abba", "abaaba"])
def test_run_frees_its_state_before_building_the_result(monkeypatch, text):
    # the occurrence index, the side bytes and the union-find are freed
    # before any result tuple is built, on both branches: the state is gone
    # by the time the morphism, which run() builds last, is made
    states = []

    class Traced(EngineState):
        # no __slots__, so the state takes a weak reference
        def __init__(self, word):
            super().__init__(word)
            states.append(weakref.ref(self))

    def morphism(**fields):
        assert states and states[0]() is None
        return Morphism(**fields)

    monkeypatch.setattr("morphprim.engine.EngineState", Traced)
    monkeypatch.setattr("morphprim.engine.Morphism", morphism)
    w = intern_word(text)
    r = run(w)
    assert len(states) == 1
    assert r.primitive is (text == "abba") and verify(w, r.morphism)


def test_factor_cuts_need_not_be_left_cuts():
    # every factor cut is a right cut (see the engine's module docstring),
    # but not every one is a left cut, so the factor cuts are not L & R
    w = intern_word("bcabchchca")
    r = run(w)
    assert r.factor_cuts == (0, 1, 3, 4, 6, 8, 10)
    assert r.left_cuts == (0, 2, 3, 5, 7, 9, 10)
    assert r.right_cuts == r.factor_cuts
    assert verify(w, r.morphism) and len(r.expanding) == min_expanding(w).size == 3


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


def test_planted_words_at_scale():
    # words of thousands of letters whose answer is known by construction:
    # the planted f fixes them, so a minimal fixed point keeps at most as
    # many letters as f does
    lengths = []
    for seed in range(20):
        w, kept = planted(seed, random.Random(-seed).randrange(200, 2001))
        r = run(w)
        assert not r.primitive
        assert len(r.expanding) <= kept
        assert_fixed_point(w, r)
        assert r.factor_cuts == factor_cuts_by_definition(w, r.morphism)
        lengths.append(w.n)
    assert max(lengths) > 10_000


def test_planted_cut_sides_match_their_join_logs_after_every_round():
    for seed in range(20):
        w, _ = planted(seed, random.Random(-seed).randrange(200, 2001))
        state = EngineState(w)
        assert_sides(state.forest)
        while (a := find_violation(state)) is not None:
            expand_letter(state, a)
            assert_sides(state.forest)


def test_small_planted_words_are_stable():
    # the stability audit is cubic, so it reads only the short planted words
    checked = 0
    for seed in range(40):
        w, kept = planted(seed, seed % 20)
        if w.n <= 130:
            r = run(w)
            assert len(r.expanding) <= kept
            assert_stable(w, r)
            checked += 1
    assert checked >= 30


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

    @pytest.mark.parametrize("i, j", [(3, 3), (6, 8)], ids=["empty", "past-n"])
    def test_query_with_no_position_in_range_is_rejected(self, i, j):
        classes = frequency_classes(build_index(intern_word("abaaba")))
        with pytest.raises(ValueError, match=rf"no position in \({i}, {j}\]"):
            alpha_query(classes, i, j)

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
    # must equal the cuts set in the forest's byte arrays right after that
    # round
    words = list(all_words(7, 4))
    words += [palindrome_pair_word(k) for k in range(1, 33)]
    words += [random_word(n, a, seed) for n, a, seed in [(50, 2, 0), (400, 3, 1), (2000, 5, 2)]]
    for w in words:
        state = EngineState(w)
        seen = []
        while (a := find_violation(state)) is not None:
            expand_letter(state, a)
            seen.append(tuple(
                tuple(c for c, bit in enumerate(state.forest.flags[side]) if bit)
                for side in "LR"
            ))
        assert [(r.left_cuts, r.right_cuts) for r in run(w).rounds] == seen


def test_run_keeps_no_neighborhoods(monkeypatch):
    # each round keeps its neighborhood's counts in the run's rounds; the
    # state keeps no neighborhood
    states = []

    def recording(state, a):
        states.append(state)
        expand_letter(state, a)

    monkeypatch.setattr("morphprim.engine.expand_letter", recording)
    assert run(palindrome_pair_word(16)).round_count == 16
    assert len(states) == 16 and states[0].neighborhoods == {}


def test_rounds_hold_no_copies_of_the_cut_lists():
    # wn has one round per letter and about n cuts per side, so a copy of
    # the cut lists per round would make the peak grow like n^2 (16x from
    # k = 256 to k = 1024); without copies it grows about linearly
    small, large = palindrome_pair_word(256), palindrome_pair_word(1024)
    assert peak_alloc(large) <= 6 * peak_alloc(small)


@pytest.mark.parametrize("w, gate", [
    # 36.0 B/letter, where a readout beside the state read 42.9
    pytest.param(intern_word("abccc" * 4000), 42, id="abccc"),
    # the planted word of tests/peak.py: 32.2, against 39.5
    pytest.param(planted_word(morphprim, random.Random(1), 12, 3, 3000), 37, id="planted"),
    # wn keeps nine 32-bit counts per round and a frozenset sized like its
    # set: 131.7 (134.4 on Python 3.10), where 64-bit counts and a frozenset
    # copied from the set read 170.0 and a record object per round 253.5;
    # its 1 024 letters are an array, which holds no int object, so the
    # 767 ids past 256 in the expanding set are the run's own 21 KB, which
    # a tuple of letters held before the run (120.5)
    pytest.param(palindrome_pair_word(1024), 135, id="wn"),
])
def test_readout_runs_without_the_engine_state(w, gate):
    # run() frees its state, the union-find included, before it builds the
    # result's tuples, which then come on top of the join logs alone
    assert peak_alloc(w) <= gate * w.n


def test_interned_run_keeps_one_byte_per_letter():
    # run(intern_word(text)) on the planted word of tests/peak.py, counted
    # as the benchmark counts a pass: 33.3 B/letter with the letters as
    # bytes, where a tuple of them read 40.3
    w = planted_word(morphprim, random.Random(1), 12, 3, 3000)
    assert interned_peak_alloc(source(w)) <= 36 * w.n


def test_expanding_frozenset_is_no_larger_than_its_set():
    # a frozenset copied from a set gets twice the set's table (16 600
    # bytes against 8 408 for 256 letters on CPython 3.11); run() builds
    # it from an iterator, which sizes it as a set
    expanding = run(palindrome_pair_word(256)).morphism.expanding
    assert expanding == frozenset(range(256))
    assert sys.getsizeof(expanding) <= sys.getsizeof(set(range(256)))


def test_forest_holds_no_int_object_per_cut():
    # the forest keeps each component's cuts in a 4-byte array, and lone
    # cuts in no object at all: 47.8 B/letter, where a union-find of two
    # lists of n + 1 ints reads 94.4
    w = random_word(16000, 4, seed=1)
    assert peak_alloc(w) <= 56 * w.n
