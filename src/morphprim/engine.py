"""Fixed-point factorization engine.

Builds, round by round, the minimal expanding letter set ``E`` together with
the minimal left/right cut sets, then reads off an idempotent morphism
``f`` with ``f(w) = w`` whose non-erased letters are exactly ``E``.  The
word is morphically primitive iff ``E`` ends up being the whole alphabet.

A round costs what it changes.  The violation scan resumes at the lowest
left cut a round may have changed (its new left cuts, or the old ones whose
right cut moved) and reads each position it passes at most once: a
right-cut segment is either scanned by suffix minima, or, when it is long
and holds few left cuts, answered by range-minimum queries over the
letters' fixed frequencies, one sorted occurrence list per distinct
frequency.  Neighborhood computation reads at most ``2n`` positions; fewer
than ``2n`` synchronization edges are added; and recompression walks only
the edges and the cuts whose root changed.  Each cut joins the left and the
right cut list at most once per run, and the engine reads the forest's two
sorted lists in place, so no round copies them: a round's record keeps the
lengths of the forest's join logs, from which its cut sets are rebuilt only
when they are read.

``scanned`` counts the positions read by suffix scans, plus one per
occurrence list a query probes and one per letter a query reads.  A query
reads at most ``d + 1``, with ``d`` the number of distinct frequencies, and
a segment is queried only when that many per left cut in it is less than
its length, so a scan still reads at most ``n`` per call.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import NamedTuple, Sequence

from .forest import SyncForest
from .words import Neighborhood, PosIndex, Word, build_index, neighborhood


@dataclass(frozen=True)
class Morphism:
    """Letter-to-word map; letters outside ``expanding`` map to the empty word."""

    expanding: frozenset[int]
    images: tuple[tuple[int, ...], ...]

    def apply(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for a in letters:
            out.extend(self.images[a])
        return tuple(out)

    def is_identity(self) -> bool:
        return all(img == (a,) for a, img in enumerate(self.images))


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
    visits: int
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


@dataclass
class Counters:
    """Work counters accumulated over a whole run."""

    scanned: int = 0
    visits: int = 0
    edges: int = 0
    cells: int = 0
    loop_checks: int = 0

    def total_work(self) -> int:
        return self.scanned + self.visits + self.edges + self.cells


class EngineState:
    """Mutable state of one factorization run; single-threaded use."""

    def __init__(self, word: Word):
        n = word.n
        self.word = word
        self.index = build_index(word)
        self.expanding: set[int] = set()
        self.forest = forest = SyncForest(n)
        # extremal cuts are always both left and right
        for side in ("L", "R"):
            forest.set_flag(0, side)
            forest.set_flag(n, side)
        # the forest's live sorted L/R lists, brought up to date once per
        # round after recompression
        self.left_cuts = forest.flagged_cuts("L")
        self.right_cuts = forest.flagged_cuts("R")
        # no left cut below this cut violates the minimal-frequency condition
        self.scan_from = 0
        # seg_best[i]: leftmost least-frequent index from i to the end of the
        # segment last scanned (0-based); kept to spare an allocation per scan
        self.seg_best = [0] * n
        # sorted occurrence positions per distinct frequency, least frequent
        # first (see frequency_classes); built at the first query
        self.classes: list[Sequence[int]] | None = None
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
    ``frequency_classes``) that has one in ``(i, j]``.  Same answer as
    ``alpha_naive``.
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
    overlap, so one call reads at most ``n`` (``state.last_scan``).
    Before any letter expands, the one segment is the whole word and is
    scanned, so the classes are built only for a word that needs a second
    round's queries.  Sets ``state.scan_from`` to the violating left cut,
    or past ``n`` if there is none.
    """
    letters = state.word.letters
    n = len(letters)
    freq = state.index.count
    expanding = state.expanding
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
            query = (
                r - l > cost
                and expanding
                and cost * (bisect_left(left, r, li) - li) < r - l
            )
            if query:
                if classes is None:
                    classes = state.classes = frequency_classes(state.index)
            else:
                # suffix argmin over indices l..r-1 (positions l+1..r); the
                # right-to-left pass keeps ties at the leftmost index
                arg = r - 1
                least = freq[letters[arg]]
                for i in range(r - 1, l - 1, -1):
                    f = freq[letters[i]]
                    if f <= least:
                        arg, least = i, f
                    seg_best[i] = arg
                scanned += r - l
        if query:
            p, probes = alpha_query(classes, l, r)
            scanned += probes + 1
            a = letters[p - 1]
        else:
            a = letters[seg_best[l]]
        if a not in expanding:
            violator, stop = a, l
            break
    state.scan_from = stop
    state.last_scan = scanned
    state.counters.scanned += scanned
    return violator


def expand_letter(state: EngineState, a: int) -> None:
    """Add letter ``a`` to the expanding set and propagate cut flags.

    Every occurrence contributes its delimiting cuts to L/R, its
    neighborhood borders to the opposite sides, and star edges anchored at
    the first occurrence that keep all neighborhoods of ``a`` synchronized.
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

    for k in occ:
        forest.set_flag(k - 1, "L")
        forest.set_flag(k, "R")
        forest.set_flag(k + nb.right_len, "L")
        forest.set_flag(k - nb.left_len - 1, "R")

    first = occ[0]
    lo, hi = -nb.left_len - 1, nb.right_len + 1
    edges = forest.add_edges(
        (first + m, k + m) for k in islice(occ, 1, None) for m in range(lo, hi)
    )
    cells = forest.recompress()
    left, right = state.left_cuts, state.right_cuts
    old_l, old_r = len(left), len(right)
    forest.flagged_cuts("L")
    forest.flagged_cuts("R")

    # rescan from the first left cut that is new or whose right cut may have
    # moved: the smallest new L cut, and the old R cut just below the
    # smallest new R cut (every left cut above it may now stop earlier; no
    # new R cut lies below it)
    log = forest.log
    if len(left) > old_l:
        state.scan_from = min(state.scan_from, min(log["L"][old_l:]))
    if len(right) > old_r:
        below = right[bisect_left(right, min(log["R"][old_r:])) - 1]
        state.scan_from = min(state.scan_from, below)

    state.expanding.add(a)
    state.counters.visits += nb.visited
    state.counters.edges += edges
    state.counters.cells += cells
    state.rounds.append(RoundRecord(
        len(state.rounds) + 1, a, nb, state.last_scan, nb.visited, edges, cells,
        log, len(left), len(right),
    ))


def image(state: EngineState, a: int) -> tuple[int, ...]:
    """Image of expanding letter ``a`` read off the stable cut sets.

    Anchored at the first occurrence ``k``: extend left to the nearest
    right cut, extend right to the furthest right cut not preceded (at a
    strictly smaller offset) by a left cut.  The result is independent of
    which occurrence anchors it.
    """
    if a not in state.expanding:
        raise ValueError(f"letter {a} is not expanding")
    return image_at(state, a, state.index.pos[a][0])


def image_at(state: EngineState, a: int, k: int) -> tuple[int, ...]:
    """Image of expanding letter ``a`` anchored at occurrence position ``k``.

    Read off the current cut lists: the image starts after the largest
    right cut below ``k`` and ends at the largest right cut at or before
    the first left cut at or after ``k``.
    """
    left, right = state.left_cuts, state.right_cuts
    start = right[bisect_left(right, k) - 1]
    stop = left[bisect_left(left, k)]
    end = right[bisect_right(right, stop) - 1]
    return state.word.segment(start + 1, end)


@dataclass(frozen=True)
class FactorizationResult:
    """Outcome of a run: verdict, witness morphism and per-round trace."""

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
    morphic factorization induced by the returned morphism.
    """
    state = EngineState(word)
    while True:
        state.counters.loop_checks += 1
        a = find_violation(state)
        if a is None:
            break
        expand_letter(state, a)

    images = tuple(
        image(state, a) if a in state.expanding else ()
        for a in range(word.alphabet_size)
    )
    morphism = Morphism(expanding=frozenset(state.expanding), images=images)
    # factor cuts: where the running total of image lengths meets the cut
    lengths = [len(img) for img in images]
    totals = accumulate(map(lengths.__getitem__, word.letters), initial=0)
    factor_cuts = tuple(k for k, t in enumerate(totals) if t == k)
    return FactorizationResult(
        word=word,
        morphism=morphism,
        primitive=len(state.expanding) == word.alphabet_size,
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
