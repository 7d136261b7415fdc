from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morphprim
from morphprim import intern_word, min_expanding, palindrome_pair_word, run, verify
from morphprim.cli import parse_word, trace_document
from morphprim.engine import (
    Counters,
    EngineState,
    Rounds,
    alpha_query,
    expand_letter,
    find_violation,
    frequency_classes,
    image,
)
from morphprim.words import build_index, neighborhood

from conftest import (
    alpha_naive,
    assert_components,
    assert_counter_bounds,
    assert_fixed_point,
    assert_sides,
    assert_stable,
    at,
    factor_cuts_by_definition,
    first_violation_naive,
    image_by_walk,
    neighborhood_by_walk,
    planted,
    same_component,
)
import digest
from reference import reference_rounds

words = st.text(alphabet="abcd", min_size=0, max_size=14).map(intern_word)
nonempty_words = st.text(alphabet="abcd", min_size=1, max_size=14).map(intern_word)
oracle_words = st.text(alphabet="abcd", min_size=0, max_size=10).map(intern_word)
wide_words = st.text(alphabet="abcdefg", min_size=0, max_size=24).map(intern_word)
eight_letter_words = st.text(alphabet="abcdefgh", min_size=0, max_size=30).map(intern_word)


@st.composite
def tied_token_words(draw):
    """Words over up to 30 tokens of one to three characters, as ``--tokens``.

    Each token occurs one to three times, so letters often tie in frequency.
    """
    k = draw(st.integers(1, 30))
    tokens = draw(st.lists(
        st.text(alphabet="abé東x1", min_size=1, max_size=3),
        min_size=k, max_size=k, unique=True,
    ))
    counts = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    letters = draw(st.permutations([t for t, c in zip(tokens, counts) for _ in range(c)]))
    return parse_word(" ".join(letters), tokens=True)


@st.composite
def fixed_points(draw):
    """``f(u)`` for an idempotent ``f`` over up to 8 letters, and ``u``.

    Each kept letter ``a`` maps to ``x a y`` with ``x`` and ``y`` over the
    erased letters, so ``f(f(u)) = f(u)``; ``u`` is over the kept letters.
    """
    m = draw(st.integers(2, 8))
    kept = draw(st.integers(1, m - 1))
    erased = st.text(alphabet="abcdefgh"[kept:m], max_size=3)
    images = {a: draw(erased) + a + draw(erased) for a in "abcdefgh"[:kept]}
    u = draw(st.text(alphabet="abcdefgh"[:kept], min_size=1, max_size=12))
    return intern_word("".join(images[a] for a in u)), u


@given(nonempty_words)
def test_neighborhood_agreement(w):
    idx = build_index(w)
    for a in range(w.alphabet_size):
        nb = neighborhood(w, idx, a)
        occ = idx.pos[a]
        for k in range(1, nb.right_len + 1):
            assert len({at(w, p + k) for p in occ}) == 1
        for k in range(1, nb.left_len + 1):
            assert len({at(w, p - k) for p in occ}) == 1
        assert nb.visited <= 2 * w.n


@given(st.one_of(eight_letter_words, tied_token_words()))
def test_neighborhood_matches_walk(w):
    # the walk checks the word's ends at every step; neighborhood bounds
    # its steps up front and counts the same positions read
    idx = build_index(w)
    for a in range(w.alphabet_size):
        assert tuple(neighborhood(w, idx, a)) == neighborhood_by_walk(w, idx, a)


@given(nonempty_words)
def test_neighborhood_letters_at_least_as_frequent(w):
    idx = build_index(w)
    for a in range(w.alphabet_size):
        nb = neighborhood(w, idx, a)
        p = idx.pos[a][0]
        for b in w.segment(p - nb.left_len, p + nb.right_len):
            assert idx.count[b] >= idx.count[a]


@given(nonempty_words, st.data())
def test_alpha_narrowing(w, data):
    idx = build_index(w)
    i = data.draw(st.integers(0, w.n - 1))
    j = data.draw(st.integers(i + 1, w.n))
    k = alpha_naive(w, idx, i, j)
    i2 = data.draw(st.integers(i, k - 1))
    assert alpha_naive(w, idx, i2, j) == k


@given(words)
def test_run_fixed_point_and_stability(w):
    result = run(w)
    assert_fixed_point(w, result)
    assert_stable(w, result)
    assert_counter_bounds(w, result)


@settings(max_examples=300)
@given(oracle_words)
def test_run_agrees_with_oracle(w):
    result = run(w)
    oracle = min_expanding(w)
    assert result.primitive == (not oracle.proper)
    assert len(result.expanding) == oracle.size
    assert verify(w, oracle.morphism)


def reversal(w):
    """``w`` read backwards, interned afresh."""
    return intern_word([w.symbols[a] for a in reversed(w.letters)])


@pytest.fixture(scope="module")
def digest_runs():
    """``(w, run(w))`` for each of the digest corpus's 7 976 words, run
    once for the three corpus checks below."""
    return [(w, run(w)) for w in digest.corpus(morphprim)]


def test_reversal_keeps_verdict_and_size_on_the_digest_corpus(digest_runs):
    # reversing a word and every image maps one fixed-point morphism of w
    # onto one of its reversal, so both have the same verdict and the same
    # |E|; the minimal set itself is not unique (ab gives {a} one way and
    # {b} the other), so only sizes are compared.  The reversed run takes
    # other segments, cut orders and merge orders through the same code
    differ = []
    for i, (w, r) in enumerate(digest_runs):
        s = run(reversal(w))
        if (r.primitive, len(r.expanding)) != (s.primitive, len(s.expanding)):
            differ.append(i)
    assert len(digest_runs) == 7976 and differ == []


def test_rounds_match_the_reference_engine_on_the_digest_corpus(digest_runs):
    # every round's letter and L/R cuts, against tests/reference.py, which
    # recomputes each round from the definitions; the corpus words of at
    # most 2 000 letters hold all but the longest random and periodic words.
    # On every corpus word, each of a round's nine counts stays within the
    # bound that lets Rounds store them in 32 bits
    checked, differ = 0, []
    for i, (w, r) in enumerate(digest_runs):
        assert max(r.rounds.counts, default=0) <= Rounds.count_bound(w.n)
        if w.n <= 2000:
            got = [(rd.letter, rd.left_cuts, rd.right_cuts) for rd in r.rounds]
            checked += 1
            if got != reference_rounds(w):
                differ.append(i)
    assert checked == 7932 and differ == []


def wn_variants(k):
    """Four ``wn`` variants over the symbols of ``palindrome_pair_word(k)``
    and two more letters ``C`` and ``D``: a middle block ``C^k``, ``C``
    after every letter, ``wn`` twice, and ``wn`` followed by
    ``(CD)^(k/2) C``.  Each holds long stretches without a right cut that
    the violation scan searches across round after round."""
    w = palindrome_pair_word(k)
    wn = [w.symbols[a] for a in w.letters]
    return [
        wn[:k] + ["C"] * k + wn[k:],
        [s for a in wn for s in (a, "C")],
        wn + wn,
        wn + ["C", "D"] * (k // 2) + ["C"],
    ]


def test_reversal_keeps_verdict_and_size_past_the_digest_corpus():
    # the 20 planted words of test_engine (n up to 20 565), five planted
    # words shaped like the benchmark's (n from 12 991 to 19 033) and the
    # wn variants at k = 256 and 1 024; the middle block and wn twice are
    # palindromes, so only the other two variants reverse to a new word
    ws = [planted(seed, random.Random(-seed).randrange(200, 2001))[0] for seed in range(20)]
    ws += [digest.planted_word(morphprim, random.Random(seed), 12, 3, 3000) for seed in range(5)]
    ws += [intern_word(v) for k in (256, 1024) for v in wn_variants(k)]
    for w in ws:
        r, s = run(w), run(reversal(w))
        assert (s.primitive, len(s.expanding)) == (r.primitive, len(r.expanding)), w.n


@given(fixed_points())
def test_reversal_of_a_fixed_point_keeps_verdict_and_size(planted):
    w, _ = planted
    v = reversal(w)
    r, s = run(w), run(v)
    assert (s.primitive, len(s.expanding)) == (r.primitive, len(r.expanding))
    assert_fixed_point(v, s)


@given(st.one_of(eight_letter_words, tied_token_words()))
def test_factor_cuts_match_definition(w):
    r = run(w)
    assert r.factor_cuts == factor_cuts_by_definition(w, r.morphism)


def test_factor_cuts_are_right_cuts_on_the_digest_corpus(digest_runs):
    # the engine's module docstring argues that every block ends at a cut
    # tied to a right cut by its letter's star
    checked, outside = 0, []
    for i, (w, r) in enumerate(digest_runs):
        if w.n <= 2000:
            checked += 1
            if not set(r.factor_cuts) <= set(r.right_cuts):
                outside.append(i)
    assert checked == 7932 and outside == []


@given(fixed_points())
def test_factor_cuts_of_planted_fixed_points_match_definition(planted):
    w, u = planted
    r = run(w)
    assert r.factor_cuts == factor_cuts_by_definition(w, r.morphism)
    assert set(r.factor_cuts) <= set(r.right_cuts)
    # an erased letter that occurs makes f a proper fixed point of w
    if w.alphabet_size > len(set(u)):
        assert not r.primitive


@given(st.one_of(eight_letter_words, tied_token_words()))
def test_round_one_letter_matches_naive(w):
    # round 1 reads its letter off the index: the least frequent letter
    # with the earliest first occurrence is the naive alpha of (0, n]
    state = EngineState(w)
    assert find_violation(state) == first_violation_naive(w, state)
    assert state.last_scan == w.alphabet_size


@given(tied_token_words(), st.data())
def test_alpha_query_matches_naive_alpha(w, data):
    idx = build_index(w)
    classes = frequency_classes(idx)
    i = data.draw(st.integers(0, w.n - 1))
    j = data.draw(st.integers(i + 1, w.n))
    p, probes = alpha_query(classes, i, j)
    assert p == alpha_naive(w, idx, i, j)
    assert 1 <= probes <= len(set(idx.count))


@pytest.mark.parametrize("strategy", [words, tied_token_words()], ids=["words", "tied_token_words"])
@given(data=st.data())
def test_violation_scan_matches_naive_alpha(strategy, data):
    # the scan picks queries or suffix minima per segment; either way every
    # round's letter is the naive first violation, and a call reads at most n
    w = data.draw(strategy)
    state = EngineState(w)
    while True:
        a = find_violation(state)
        assert a == first_violation_naive(w, state)
        assert state.last_scan <= w.n
        if a is None:
            break
        expand_letter(state, a)


@given(wide_words)
def test_cut_sides_match_their_join_logs_after_every_round(w):
    # the byte arrays the scan reads are the sides the join logs record,
    # initially and after every round
    state = EngineState(w)
    assert_sides(state.forest)
    while (a := find_violation(state)) is not None:
        expand_letter(state, a)
        assert_sides(state.forest)


@given(wide_words, st.data())
def test_a_segment_violates_at_its_first_left_cut_if_at_all(w, data):
    # the suffix pass checks only the first left cut of a segment (up to
    # the next right cut); after any rounds, in any expansion order, no
    # later left cut of a segment may violate unless the first one does
    state = EngineState(w)
    while len(state.expanding) < w.alphabet_size:
        rest = sorted(set(range(w.alphabet_size)) - state.expanding)
        expand_letter(state, data.draw(st.sampled_from(rest)))
        right = state.forest.flagged_cuts("R")
        segments: dict[int, list[int]] = {}
        for l in state.forest.flagged_cuts("L")[:-1]:
            segments.setdefault(min(c for c in right if c > l), []).append(l)
        for r, cuts in segments.items():
            violates = [
                at(w, alpha_naive(w, state.index, l, r)) not in state.expanding
                for l in cuts
            ]
            assert violates[0] or not any(violates)


@settings(max_examples=300)
@given(wide_words, st.data())
def test_resumed_scan_matches_naive_in_any_expansion_order(w, data):
    # letters are expanded in any order, not only the scan's choice, so the
    # cut where the scan resumes is lowered by arbitrary rounds; after every
    # round the scan must still return the first violating stretch, and
    # every occurrence of every expanded letter must have its four cuts
    # flagged and its neighborhood tied to the first occurrence's
    state = EngineState(w)
    while len(state.expanding) < w.alphabet_size:
        expected = first_violation_naive(w, state)
        assert find_violation(state) == expected
        assert find_violation(state) == expected  # a repeated scan agrees
        rest = sorted(set(range(w.alphabet_size)) - state.expanding)
        expand_letter(state, data.draw(st.sampled_from(rest)))
        left = set(state.forest.flagged_cuts("L"))
        right = set(state.forest.flagged_cuts("R"))
        for record in state.rounds:
            b, nb = record.letter, record.neighborhood
            occ = state.index.pos[b]
            for k in occ:
                assert {k - 1, k + nb.right_len} <= left
                assert {k, k - nb.left_len - 1} <= right
                for m in range(-nb.left_len - 1, nb.right_len + 1):
                    assert same_component(state.forest, k + m, occ[0] + m)
    assert find_violation(state) is None


@given(words)
def test_forest_height_one_after_run(w):
    # the member arrays' analogue of height one: after every round, each
    # cut's entry names its whole component, with no chain to follow
    state = EngineState(w)
    while (a := find_violation(state)) is not None:
        expand_letter(state, a)
        assert_components(state.forest)


@given(nonempty_words)
def test_image_occurrence_independence(w):
    state = EngineState(w)
    while (a := find_violation(state)) is not None:
        expand_letter(state, a)
    for a in state.expanding:
        images = {image_by_walk(state, k) for k in state.index.pos[a]}
        assert images == {image(state, a)}
    # run() reads a primitive word's images off its letters, any other
    # word's off the cut lists; either way they match the flag walk
    r = run(w)
    for a in state.expanding:
        assert r.morphism.images[a] == image_by_walk(state, state.index.pos[a][0])


@given(words)
def test_trace_document_round_trips(w):
    import json

    result = run(w)
    doc = trace_document(w, result)
    assert [r["round"] for r in doc["rounds"]] == list(range(1, len(result.rounds) + 1))
    c = result.counters
    assert doc["counters"] == {name: getattr(c, name) for name in Counters.__slots__}
    per_round = [r["counters"] for r in doc["rounds"]]
    assert per_round == [
        {"scanned": r.scanned, "visits": r.neighborhood.visited, "edges": r.edges, "cells": r.cells}
        for r in result.rounds
    ]
    for name in ("visits", "edges", "cells"):
        assert sum(r[name] for r in per_round) == doc["counters"][name]
    # the final violation check's scan belongs to no round
    assert sum(r["scanned"] for r in per_round) <= c.scanned
    dumped = json.dumps(doc, sort_keys=True, ensure_ascii=False)
    assert json.dumps(json.loads(dumped), sort_keys=True, ensure_ascii=False) == dumped
