"""Fixed-point factorization engine.

Builds, round by round, the minimal expanding letter set ``E`` together with
the minimal left/right cut sets, then reads off an idempotent morphism
``f`` with ``f(w) = w`` whose non-erased letters are exactly ``E``.  The
word is morphically primitive iff ``E`` ends up being the whole alphabet.

A round costs what it changes.  Round 1's violation is read off the
occurrence index, and once every letter expands the last check reads
nothing; between them the violation scan resumes at the lowest
left cut a round may have changed (its new left cuts, or the old ones whose
right cut moved) and reads each position it passes at most once: a
right-cut segment is either scanned by suffix minima, or, when it is long
and holds few left cuts, answered by range-minimum queries over the
letters' fixed frequencies, one sorted occurrence list per distinct
frequency.  Those lists are built by a rent-or-buy rule: segments a query
could answer are scanned until the positions they would read reach what the
build reads (``n + m``), and only then are the lists built and queried, so
a word pays for a build only after its scans have cost as much.  A
neighborhood walk counts at most ``2n`` positions (``visits``, below); fewer
than ``2n`` synchronization edges are added; and recompression checks each
edge once and points a cut at a new root only when its component at least
doubles, so at most ``(N / 2) * log2(N)`` times per run over ``N = n + 1``
cuts.  Each cut joins the left and the right cut list at most once per run.
The forest logs the cuts in the order they join; the engine keeps its own
sorted L/R lists, which it scans and bisects, and takes into them only the
logs' new tails, once per round.  No round copies a list: a round's record
keeps the lengths of the forest's join logs, from which its cut sets are
rebuilt only when they are read.  The factor cuts are the ends of the image
blocks, found from the occurrences of the expanding letters.

``scanned`` counts the positions read by suffix scans, plus one per
occurrence list a query probes and one per letter a query reads.  A query
reads at most ``d + 1``, with ``d`` the number of distinct frequencies, and
a segment is queried only when that many per left cut in it is less than
its length, so a scan still reads at most ``n`` per call.  Round 1 counts
``m``, one per letter it compares, and a check with ``E = Σ`` counts 0.
The rent-or-buy rule scans, before a build, fewer than ``n + m`` positions
that queries would have spared.

``visits`` counts the positions a step-by-step neighborhood walk would
read (see ``words.neighborhood``), not the ones ``neighborhood`` reads: a
letter with one occurrence counts ``n - 1`` though nothing is compared.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

from .forest import SyncForest
from .words import Morphism, Neighborhood, PosIndex, Word, build_index, neighborhood


class RoundRecord(NamedTuple):
    """What one round of the main loop did.

    The L/R cuts after the round are the first ``left_size`` and
    ``right_size`` cuts of the forest's join logs (``log``), which only
    grow; ``left_cuts`` and ``right_cuts`` sort them when read.
    """

    number: int
    letter: int
    neighborhood: Neighborhood
    scanned: int
    edges: int
    cells: int
    log: dict[str, list[int]]
    left_size: int
    right_size: int

    @property
    def left_cuts(self) -> tuple[int, ...]:
        return tuple(sorted(self.log["L"][: self.left_size]))

    @property
    def right_cuts(self) -> tuple[int, ...]:
        return tuple(sorted(self.log["R"][: self.right_size]))


class Counters:
    """Work counters accumulated over a whole run; each starts at 0."""

    __slots__ = ("scanned", "visits", "edges", "cells", "loop_checks")

    def __init__(self) -> None:
        self.scanned = self.visits = self.edges = self.cells = self.loop_checks = 0

    def _values(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Counters:
            return NotImplemented
        return self._values() == other._values()

    # mutable, so unhashable
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values())
        return f"Counters({', '.join(f'{k}={v}' for k, v in fields)})"


class EngineState:
    """Mutable state of one factorization run; single-threaded use."""

    __slots__ = (
        "word", "index", "expanding", "forest", "left_cuts", "right_cuts",
        "scan_from", "seg_best", "classes", "rent_due", "query_cost",
        "neighborhoods", "rounds", "counters", "last_scan",
    )

    def __init__(self, word: Word):
        n = word.n
        self.word = word
        self.index = build_index(word)
        self.expanding: set[int] = set()
        self.forest = forest = SyncForest(n)
        # the L/R cuts ascending, the engine's own lists: they start as the
        # forest's extremal cuts and take in the join logs' new tails once
        # per round (see expand_letter)
        self.left_cuts = forest.flagged_cuts("L")
        self.right_cuts = forest.flagged_cuts("R")
        # no left cut below this cut violates the minimal-frequency condition
        self.scan_from = 0
        # seg_best[i]: the letter at the leftmost least-frequent index from i
        # to the end of the segment last scanned (0-based); kept to spare an
        # allocation per scan, and holding letters, not indices, so that it
        # keeps no int object alive that the word does not hold already
        self.seg_best = [0] * n
        # sorted occurrence positions per distinct frequency, least frequent
        # first (see frequency_classes); built once scans could have paid
        # for them (see find_violation)
        self.classes: list[Sequence[int]] | None = None
        # what a build reads (at most n positions and m counts), less the
        # positions scanned since in segments a query could have answered
        self.rent_due = n + len(self.index.count)
        # the most a query reads: one probe per class, then its letter
        self.query_cost = len(set(self.index.count)) + 1
        self.neighborhoods: dict[int, Neighborhood] = {}
        self.rounds: list[RoundRecord] = []
        self.counters = Counters()
        self.last_scan = 0


def frequency_classes(index: PosIndex) -> list[Sequence[int]]:
    """Sorted occurrence positions of each distinct frequency, least first.

    A letter alone in its class keeps its own tuple of positions; the
    positions of several letters with the same frequency are merged into
    one array of 32-bit positions, half the size of a list of them.
    """
    groups: dict[int, list[int]] = {}
    for a, count in enumerate(index.count):
        groups.setdefault(count, []).append(a)
    pos = index.pos
    return [
        pos[g[0]] if len(g) == 1
        else array("I", sorted(chain.from_iterable(map(pos.__getitem__, g))))
        for _, g in sorted(groups.items())
    ]


def alpha_query(classes: list[Sequence[int]], i: int, j: int) -> tuple[int, int]:
    """Leftmost position in ``(i, j]`` of a least-frequent letter, and the
    number of classes probed.

    It is the first position after ``i`` in the least frequent class (of
    ``frequency_classes``) that has one in ``(i, j]``.  The tests check it
    against a direct scan of ``(i, j]`` (``alpha_naive`` in their conftest).
    """
    for probes, occ in enumerate(classes, start=1):
        k = bisect_right(occ, i)
        if k < len(occ) and occ[k] <= j:
            return occ[k], probes
    raise ValueError(f"no position in ({i}, {j}]")


def find_violation(state: EngineState) -> int | None:
    """Letter breaking the minimal-frequency condition, or None if stable.

    Walks left cuts in increasing order from ``state.scan_from``; for each
    one only the stretch up to the next right cut is inspected.  If every
    inspected stretch has its leftmost least-frequent letter already
    expanding, no stretch at all can violate the condition (a smallest
    counterexample would have to survive narrowing past an already-checked
    stretch, which is impossible), so a None result certifies stability for
    all left/right cut pairs.  Left cuts below ``state.scan_from`` were
    checked by an earlier call and kept their right cut since, so the
    letter returned is the one a scan from cut 0 would return.

    Each segment between a left cut ``l`` and the next right cut ``r``,
    holding ``q`` left cuts, is read one of two ways.  If ``(d + 1) * q <
    r - l`` (``d`` distinct frequencies), each of its left cuts gets an
    ``alpha_query``, counted as the lists it probes plus the letter it
    reads, at most ``d + 1``; otherwise suffix minima, taken from ``r``
    down to ``l``, read its ``r - l`` positions once.  Segments do not
    overlap, so one call reads at most ``n`` (``state.last_scan``).  The
    queries need the frequency classes, whose build reads up to ``n + m``;
    until the segments that could have been queried add up to that many
    positions, this one included, they are scanned instead
    (``state.rent_due`` is what remains), and the segment that reaches it
    builds the classes.
    Before any letter expands, the cuts are ``{0, n}`` and the one segment
    is the whole word: its leftmost least-frequent letter is the least
    frequent letter with the smallest first occurrence, which the index
    gives in ``O(m)`` (``m`` counted), so every scan of the loop has an
    expanding letter.  Once every letter expands, no letter can
    violate, and the call returns None reading nothing.  Sets
    ``state.scan_from`` to the violating left cut, or past ``n`` if there
    is none.
    """
    letters = state.word.letters
    n = len(letters)
    freq = state.index.count
    expanding = state.expanding
    if len(expanding) == len(freq):
        # E is the whole alphabet (or the word is empty): nothing violates
        state.scan_from, state.last_scan = n + 1, 0
        return None
    if not expanding:
        # the cuts are {0, n}: the one segment is the whole word, whose
        # leftmost least-frequent letter the index gives in O(m)
        pos = state.index.pos
        a = min(range(len(freq)), key=lambda b: (freq[b], pos[b][0]))
        state.scan_from, state.last_scan = 0, len(freq)
        state.counters.scanned += len(freq)
        return a
    left, right = state.left_cuts, state.right_cuts
    seg_best = state.seg_best
    classes, cost = state.classes, state.query_cost
    scanned = 0
    violator = None
    stop = n + 1
    # n is always the last left cut, and scan_from may lie past it; right[0]
    # is 0, so the right cut after any left cut lies past index ri = 0
    ri, r, query = 0, -1, False
    for li in range(bisect_left(left, state.scan_from), len(left) - 1):
        l = left[li]
        if l >= r:
            # step to the first right cut past l: one by one over a short
            # gap (at most l - r + 1 steps), by bisection over a long one
            ri += 1
            if right[ri] <= l:
                if l - r < 8:
                    while right[ri] <= l:
                        ri += 1
                else:
                    ri = bisect_right(right, l, ri)
            r = right[ri]
            # queries pay when (d + 1) * q < r - l; q >= 1, so the left cuts
            # are counted only in a segment longer than one query's cost
            query = r - l > cost and cost * (bisect_left(left, r, li) - li) < r - l
            if query and classes is None:
                # rent before buying: scan while the positions scanned in
                # segments a query could answer, this one included, stay
                # below what the build reads
                if r - l < state.rent_due:
                    state.rent_due -= r - l
                    query = False
                else:
                    classes = state.classes = frequency_classes(state.index)
            if not query:
                # suffix minima over indices l..r-1 (positions l+1..r); the
                # right-to-left pass keeps ties at the leftmost index
                best = letters[r - 1]
                least = freq[best]
                for i in range(r - 1, l - 1, -1):
                    b = letters[i]
                    f = freq[b]
                    if f <= least:
                        best, least = b, f
                    seg_best[i] = best
                scanned += r - l
        if query:
            p, probes = alpha_query(classes, l, r)
            scanned += probes + 1
            a = letters[p - 1]
        else:
            a = seg_best[l]
        if a not in expanding:
            violator, stop = a, l
            break
    state.scan_from = stop
    state.last_scan = scanned
    state.counters.scanned += scanned
    return violator


def expand_letter(state: EngineState, a: int) -> None:
    """Add letter ``a`` to the expanding set and propagate cut flags.

    Each occurrence ``k`` delimits its cuts ``k - 1`` and ``k + right_len``
    as left cuts and ``k`` and ``k - left_len - 1`` as right cuts.  One
    star of edges ties the cut ``k + m`` of every occurrence to ``first +
    m``, for every offset ``m`` from ``-left_len - 1`` to ``right_len``,
    which holds all four; so once the star is merged, flagging the first
    occurrence's four cuts flags every occurrence's.
    """
    if a in state.expanding:
        raise ValueError(f"letter {a} is already expanding")
    occ = state.index.pos[a]
    if not occ:
        raise ValueError(f"letter {a} does not occur in the word")

    nb = state.neighborhoods.get(a)
    if nb is None:
        nb = neighborhood(state.word, state.index, a)
        state.neighborhoods[a] = nb
    forest = state.forest

    edges = forest.add_star(occ, -nb.left_len - 1, nb.right_len + 1)
    cells = forest.recompress()
    first = occ[0]
    forest.set_flag(first - 1, "L")
    forest.set_flag(first, "R")
    forest.set_flag(first + nb.right_len, "L")
    forest.set_flag(first - nb.left_len - 1, "R")

    # rescan from the first left cut that is new or whose right cut may have
    # moved: the smallest new L cut, and the old R cut just below the
    # smallest new R cut (every left cut above it may now stop earlier; no
    # new R cut lies below it)
    log = forest.log
    left, right = state.left_cuts, state.right_cuts
    new = log["L"][len(left):]
    if new:
        state.scan_from = min(state.scan_from, min(new))
        merge_cuts(left, new)
    new = log["R"][len(right):]
    if new:
        below = right[bisect_left(right, min(new)) - 1]
        state.scan_from = min(state.scan_from, below)
        merge_cuts(right, new)

    state.expanding.add(a)
    state.counters.visits += nb.visited
    state.counters.edges += edges
    state.counters.cells += cells
    state.rounds.append(RoundRecord(
        len(state.rounds) + 1, a, nb, state.last_scan, edges, cells,
        log, len(left), len(right),
    ))


# a tail of at most this many new cuts is inserted one by one: a sort first
# walks the whole list to find its runs, and in a micro-benchmark (CPython
# 3.11, lists of 8 to 2 048 cuts) it was never faster for up to 4 new cuts,
# while a long tail on a short list sorts faster
SHORT_TAIL = 4


def merge_cuts(cuts: list[int], new: list[int]) -> None:
    """Merge ``new``, cuts in any order and none of them in ``cuts``, into
    the ascending list ``cuts`` in place."""
    if len(new) > SHORT_TAIL:
        # two sorted runs, which the sort merges in one pass
        cuts += sorted(new)
        cuts.sort()
    else:
        for c in new:
            insort(cuts, c)


def image(state: EngineState, a: int) -> tuple[int, ...]:
    """Image of expanding letter ``a`` read off the stable cut sets.

    Anchored at the first occurrence ``k``: the image starts after the
    largest right cut below ``k`` and ends at the largest right cut at or
    before the first left cut at or after ``k``.  The result is independent
    of which occurrence anchors it.
    """
    if a not in state.expanding:
        raise ValueError(f"letter {a} is not expanding")
    k = state.index.pos[a][0]
    left, right = state.left_cuts, state.right_cuts
    start = right[bisect_left(right, k) - 1]
    stop = left[bisect_left(left, k)]
    end = right[bisect_right(right, stop) - 1]
    return state.word.segment(start + 1, end)


@dataclass
class FactorizationResult:
    """Outcome of a run: verdict, witness morphism and per-round trace.

    The one dataclass of the package, so that ``dataclasses.replace`` can
    derive a changed result (the benchmark's checker tests do).  It is not
    frozen, since a frozen one took 2 to 3 µs more to build per run, but
    its fields are read-only by convention.
    """

    word: Word
    morphism: Morphism
    primitive: bool
    rounds: tuple[RoundRecord, ...]
    left_cuts: tuple[int, ...]
    right_cuts: tuple[int, ...]
    factor_cuts: tuple[int, ...]
    counters: Counters

    @property
    def expanding(self) -> frozenset[int]:
        return self.morphism.expanding

    @property
    def round_count(self) -> int:
        return len(self.rounds)


def prefix_image_lengths(word: Word, f: Morphism) -> list[int]:
    """``|f(w[1..k])|`` for every cut ``k``."""
    lens = [0] * (word.n + 1)
    for k, a in enumerate(word.letters, start=1):
        lens[k] = lens[k - 1] + len(f.images[a])
    return lens


def run(word: Word) -> FactorizationResult:
    """Decide primitivity of ``word`` and build a witness morphism.

    Rounds add one violating letter each until the cut sets are stable;
    non-expanding letters are erased.  The factor cuts are those where the
    image of the prefix has exactly the prefix length; they delimit the
    morphic factorization induced by the returned morphism, and are read
    off the image blocks rather than by summing image lengths over the word.
    A primitive word's images are its letters, read without the cut lists.
    """
    state = EngineState(word)
    while True:
        state.counters.loop_checks += 1
        a = find_violation(state)
        if a is None:
            break
        expand_letter(state, a)

    m = word.alphabet_size
    primitive = len(state.expanding) == m
    # f(w) = w and f is idempotent, so each image is x a y with x and y
    # erased, and an occurrence p of a ends its block of the factorization
    # at p + |y|; with nothing erased, each image and each block is one
    # letter
    if primitive:
        images = tuple((a,) for a in range(m))
        factor_cuts = tuple(range(word.n + 1))
    else:
        images = tuple(
            image(state, a) if a in state.expanding else () for a in range(m)
        )
        ends = [0]
        for a in state.expanding:
            img = images[a]
            tail = len(img) - img.index(a) - 1
            ends.extend([p + tail for p in state.index.pos[a]])
        ends.sort()
        factor_cuts = tuple(ends)
    morphism = Morphism(expanding=frozenset(state.expanding), images=images)
    return FactorizationResult(
        word=word,
        morphism=morphism,
        primitive=primitive,
        rounds=tuple(state.rounds),
        left_cuts=tuple(state.left_cuts),
        right_cuts=tuple(state.right_cuts),
        factor_cuts=factor_cuts,
        counters=state.counters,
    )


def verify(word: Word, f: Morphism) -> bool:
    """True iff ``f`` fixes the word and is idempotent."""
    if f.apply(word.letters) != word.letters:
        return False
    return all(
        f.apply(f.images[a]) == f.images[a] for a in range(word.alphabet_size)
    )


def left_right_cut_check(word: Word, f: Morphism, left: list[int], right: list[int]) -> bool:
    """Check that claimed left/right cuts are left/right cuts of ``f``.

    A cut ``k`` is left if the image of the length-``k`` prefix is at most
    ``k`` long, right if at least ``k`` long.
    """
    plen = prefix_image_lengths(word, f)
    return all(plen[k] <= k for k in left) and all(plen[k] >= k for k in right)
