"""Acceptance gate: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import time

import pytest

from morphprim import (
    intern_word,
    min_expanding,
    palindrome_pair_word,
    random_word,
    run,
)
from morphprim.oracle import all_words

from conftest import (
    EXAMPLE_WORD,
    assert_counter_bounds,
    assert_fixed_point,
    assert_stable,
    total_work,
)


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def quadratic_fit(xs, ys):
    """Values at ``xs`` of the least-squares parabola through the integer
    points ``(xs, ys)``, from the normal equations, solved by Cramer's rule
    in exact integers."""
    s = [sum(x**k for x in xs) for k in range(5)]
    t = [sum(x**k * y for x, y in zip(xs, ys)) for k in range(3)]
    normal = [s[i : i + 3] for i in range(3)]
    d = det3(normal)
    coef = [
        det3([row[:j] + [t[i]] + row[j + 1 :] for i, row in enumerate(normal)]) / d
        for j in range(3)
    ]
    return [coef[0] + coef[1] * x + coef[2] * x * x for x in xs]


def max_deviation(ys, fit):
    return max(abs(y - f) / f for y, f in zip(ys, fit))


@pytest.fixture(scope="module")
def audit_corpus():
    """Canonical words plus the worked examples and small families."""
    corpus = list(all_words(8, 4))
    corpus += [intern_word(EXAMPLE_WORD), intern_word("abaaba"), intern_word("abba")]
    corpus += [palindrome_pair_word(k) for k in range(1, 9)]
    corpus += [random_word(40, a, seed) for a in (2, 3, 4) for seed in range(5)]
    return corpus


def test_worked_example_regression():
    w = intern_word(EXAMPLE_WORD)
    result = run(w)

    assert [w.symbols[r.letter] for r in result.rounds] == ["c", "b", "d", "e"]
    assert result.rounds[0].left_cuts == (0, 3, 4, 7, 16)
    assert result.rounds[0].right_cuts == (0, 1, 4, 5, 16)
    assert result.rounds[3].left_cuts == (0, 3, 4, 7, 8, 11, 12, 15, 16)
    assert result.rounds[3].right_cuts == (0, 1, 4, 5, 8, 9, 12, 13, 16)
    images = {
        w.symbols[a]: "".join(w.symbols[x] for x in img)
        for a, img in enumerate(result.morphism.images)
    }
    assert images == {"a": "", "b": "aab", "c": "c", "d": "aad", "e": "e"}

    best = min(
        (lambda t0: (run(w), time.perf_counter_ns() - t0)[1])(time.perf_counter_ns())
        for _ in range(5)
    )
    assert best < 1_000_000, f"run took {best} ns"
    print(f"PASS worked example regression ({best / 1000:.0f} us)")


def test_intro_words():
    w = intern_word("abaaba")
    result = run(w)
    assert not result.primitive
    assert result.morphism.images == ((), (0, 1, 0))  # a erased, b -> aba
    assert run(intern_word("abba")).primitive
    print("PASS intro words")


def test_oracle_equivalence():
    checked = 0
    for w in all_words(10, 4):
        result = run(w)
        oracle = min_expanding(w)
        assert result.primitive == (not oracle.proper), w.render()
        assert len(result.expanding) == oracle.size, w.render()
        checked += 1
    print(f"PASS oracle equivalence ({checked} words)")


def test_fixed_point_suite(audit_corpus):
    imprimitive = 0
    for w in audit_corpus:
        result = run(w)
        assert_fixed_point(w, result)
        if not result.primitive:
            imprimitive += 1
    print(f"PASS fixed-point suite ({imprimitive} imprimitive words)")


def test_stability_audit(audit_corpus):
    for w in audit_corpus:
        assert_stable(w, run(w))
    print(f"PASS stability audit ({len(audit_corpus)} words)")


def test_complexity_counters(audit_corpus):
    extras = [palindrome_pair_word(k) for k in (16, 32)]
    extras += [random_word(2000, 4, seed) for seed in range(3)]
    for w in audit_corpus + extras:
        assert_counter_bounds(w, run(w))
    print("PASS complexity counters")


def test_palindrome_pair_family_quadratic():
    sizes, work = [], []
    for k in range(2, 65):
        w = palindrome_pair_word(k)
        result = run(w)
        assert result.primitive
        assert result.round_count == k  # one round per letter, |w|/2 rounds
        sizes.append(w.n)
        work.append(total_work(result.counters))
    rel = max_deviation(work, quadratic_fit(sizes, work))
    assert rel <= 0.30, f"max deviation {rel:.2%}"
    print(f"PASS quadratic family (max deviation {rel:.2%})")


def test_linear_scaling_fixed_alphabet():
    lengths = [10_000, 20_000, 40_000]
    work = []
    for n in lengths:
        result = run(random_word(n, 4, seed=42))
        work.append(total_work(result.counters))
    # least squares through the origin
    slope = sum(x * y for x, y in zip(lengths, work)) / sum(x * x for x in lengths)
    rel = max_deviation(work, [slope * x for x in lengths])
    assert rel <= 0.30, f"max deviation {rel:.2%}"
    print(f"PASS linear scaling (max deviation {rel:.2%})")
