from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from morphprim import (
    build_index,
    intern_word,
    min_expanding,
    neighborhood,
    run,
    verify,
)
from morphprim.cli import parse_word, trace_document
from morphprim.engine import (
    EngineState,
    alpha_query,
    expand_letter,
    find_violation,
    frequency_classes,
    image,
)

from conftest import (
    alpha_naive,
    assert_counter_bounds,
    assert_fixed_point,
    assert_stable,
    at,
    factor_cuts_by_definition,
    first_violation_naive,
    image_by_walk,
    neighborhood_by_walk,
)

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
    assert verify(w, oracle.morphism(w))


@given(st.one_of(eight_letter_words, tied_token_words()))
def test_factor_cuts_match_definition(w):
    r = run(w)
    assert r.factor_cuts == factor_cuts_by_definition(w, r.morphism)


@given(fixed_points())
def test_factor_cuts_of_planted_fixed_points_match_definition(planted):
    w, u = planted
    r = run(w)
    assert r.factor_cuts == factor_cuts_by_definition(w, r.morphism)
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


@given(tied_token_words())
def test_scan_with_queries_matches_naive_alpha(w):
    # the scan picks queries or suffix minima per segment; either way every
    # round's letter is the naive first violation, and a call reads at most n
    state = EngineState(w)
    while True:
        a = find_violation(state)
        assert a == first_violation_naive(w, state)
        assert state.last_scan <= w.n
        if a is None:
            break
        expand_letter(state, a)


@given(words)
def test_engine_violation_scan_matches_naive_alpha(w):
    # every stretch the scan reports must be the naive alpha of its interval;
    # the cut lists it reads, which the engine keeps itself, must equal the
    # forest's flagged cuts, initially and after every round
    state = EngineState(w)
    while True:
        assert state.left_cuts == state.forest.flagged_cuts("L")
        assert state.right_cuts == state.forest.flagged_cuts("R")
        a = find_violation(state)
        assert a == first_violation_naive(w, state)
        if a is None:
            break
        expand_letter(state, a)


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
        left, right = set(state.left_cuts), set(state.right_cuts)
        parent = state.forest.parent
        for b in state.expanding:
            nb = state.neighborhoods[b]
            occ = state.index.pos[b]
            for k in occ:
                assert {k - 1, k + nb.right_len} <= left
                assert {k, k - nb.left_len - 1} <= right
                for m in range(-nb.left_len - 1, nb.right_len + 1):
                    assert parent[k + m] == parent[occ[0] + m]
    assert find_violation(state) is None


@given(words)
def test_forest_height_one_after_run(w):
    state = EngineState(w)
    while (a := find_violation(state)) is not None:
        expand_letter(state, a)
        parent = state.forest.parent
        for c in range(w.n + 1):
            assert parent[parent[c]] == parent[c]


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

    doc = trace_document(w, run(w))
    dumped = json.dumps(doc, sort_keys=True, ensure_ascii=False)
    assert json.dumps(json.loads(dumped), sort_keys=True, ensure_ascii=False) == dumped
