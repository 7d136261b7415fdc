"""Naive reference engine: each round recomputed from the definitions.

``reference_rounds(w)`` gives, for each round of a run, the letter it
expands and the sorted left and right cuts after it.  Each round recomputes
everything from scratch:

- the first violation, by ``alpha_naive`` on each left cut from cut 0 and
  the right cut that follows it (``conftest.first_violation_of_cuts``, which
  the engine tests also check ``find_violation`` against);
- the violating letter's neighborhood, by ``neighborhood_by_walk``;
- the four cuts of every occurrence of every expanding letter, which join
  0 and n as the seeds of both sides;
- the synchronization edges of every round so far, each occurrence's cut
  ``k + m`` tied to the first occurrence's ``first + m`` for every offset
  ``m`` of its neighborhood, and the L and R cut sets as the cuts their
  seeds reach over them by breadth-first search, in Python sets.

It shares no code with ``morphprim.forest``, ``find_violation``,
``expand_letter`` or ``words.neighborhood``, so its agreement with
``run()`` is evidence.  A round costs ``O(n log n)`` for the scan and
``O(n + edges)`` for each search.
"""

from __future__ import annotations

from conftest import first_violation_of_cuts, neighborhood_by_walk
from morphprim.words import Word, build_index


def reachable(edges: dict[int, set[int]], seeds: set[int]) -> set[int]:
    """The cuts reachable from ``seeds`` over ``edges``, seeds included."""
    seen, todo = set(seeds), list(seeds)
    while todo:
        for d in edges.get(todo.pop(), ()):
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return seen


def reference_rounds(w: Word) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """``(letter, left cuts, right cuts)`` of each round, from the definitions."""
    idx = build_index(w)
    n = w.n
    expanding: set[int] = set()
    edges: dict[int, set[int]] = {}
    seeds_l, seeds_r = {0, n}, {0, n}
    left, right = [0, n], [0, n]
    rounds = []
    while True:
        violator = first_violation_of_cuts(w, idx, left, right, expanding)
        if violator is None:
            return rounds
        expanding.add(violator)
        left_len, right_len, _ = neighborhood_by_walk(w, idx, violator)
        occ = idx.pos[violator]
        for k in occ:
            seeds_l |= {k - 1, k + right_len}
            seeds_r |= {k, k - left_len - 1}
            for m in range(-left_len - 1, right_len + 1):
                edges.setdefault(k + m, set()).add(occ[0] + m)
                edges.setdefault(occ[0] + m, set()).add(k + m)
        left = sorted(reachable(edges, seeds_l))
        right = sorted(reachable(edges, seeds_r))
        rounds.append((violator, tuple(left), tuple(right)))
