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
right-cut segment is either scanned by suffix minima, or, when it is
longer than a query reads, answered by one range-minimum query over the
letters' fixed frequencies, one sorted occurrence list per distinct
frequency.  Those lists are built by a rent-or-buy rule: segments a query
could answer are scanned until the positions they would read reach what the
build reads (``n + m``), and only then are the lists built and queried, so
a word pays for a build only after its scans have cost as much.  A
neighborhood walk counts at most ``2n`` positions (``visits``, below); fewer
than ``2n`` synchronization edges are added; and recompression checks each
edge once and moves a cut into another component's member array only when
its component at least doubles, so at most ``(N / 2) * log2(N)`` times per
run over ``N = n + 1`` cuts.  Each cut joins the left and the right cut set
at most once per run.
The engine keeps no cut list of its own: it searches the forest's per-side
byte arrays in place, a left cut by ``find`` and the right cut that ends
its segment by ``find``.  The searches of each kind read disjoint
stretches of an array, so a round's scan and the ``rfind`` of its
``expand_letter`` read at most ``3(n + 1)`` flag bytes, at C speed; no
counter counts them.  A round buffers its own star in the forest's
``pending``, with no call: the one range check of its neighborhood covers
every cut of the star.  No round copies a list: a round keeps nine counts,
32-bit below about ``2.96 * 10**8`` letters (see ``Rounds``), among them
the lengths of the forest's join logs, from which its cut sets are rebuilt
only when they are read.  The factor cuts are the ends of the image
blocks, found from the occurrences of the expanding letters.

Every factor cut is a right cut.  ``image`` anchors the image of a kept
letter at its first occurrence ``first``, a right cut, and ends it at a
right cut ``end`` with ``first <= end <= stop <= first + right_len``, where
``stop`` is the first left cut at or after ``first`` and ``first +
right_len`` is a left cut of the letter's round.  So the offset ``end -
first`` lies in the letter's star, which ties ``end`` to the cut ``p + end
- first`` that ends the block of every occurrence ``p``; a component is on
a side as a whole, so each of those cuts is a right cut.  A factor cut
need not be a left cut: ``bcabchchca`` has the factor cuts ``0 1 3 4 6 8
10`` and the left cuts ``0 2 3 5 7 9 10``.

``scanned`` counts the positions read by suffix scans, plus one per
occurrence list a query probes and one per letter a query reads.  A query
reads at most ``d + 1``, with ``d`` the number of distinct frequencies, and
a segment ``(l, r]`` is queried only when it is longer than that, so it
costs at most ``min(r - l, d + 1)`` and a call still reads at most ``n``.
Round 1 counts ``m``, one per letter it compares, and a check with
``E = Σ`` counts 0.  The rent-or-buy rule scans, before a build, fewer
than ``n + m`` positions that queries would have spared.

``visits`` counts the positions a step-by-step neighborhood walk would
read (see ``words.neighborhood``), not the ones ``neighborhood`` reads: a
letter with one occurrence counts ``n - 1`` though nothing is compared.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .forest import SyncForest
from .words import Morphism, Neighborhood, PosIndex, Word, build_index, neighborhood


class RoundRecord(NamedTuple):
    """What one round of the main loop did; a round's number is its place
    in ``rounds``, counted from 1.

    ``Rounds`` builds a record, with its ``Neighborhood``, each time a round
    is read; it stores none.  The L/R cuts after the round are the first
    ``left_size`` and ``right_size`` cuts of the forest's join logs (``log``,
    one ``array("I")`` per side, shared by every record), which only grow;
    ``left_cuts`` and ``right_cuts`` sort them into tuples of ints when
    read.
    """

    letter: int
    neighborhood: Neighborhood
    scanned: int
    edges: int
    cells: int
    log: dict[str, array]
    left_size: int
    right_size: int

    @property
    def left_cuts(self) -> tuple[int, ...]:
        return tuple(sorted(self.log["L"][: self.left_size]))

    @property
    def right_cuts(self) -> tuple[int, ...]:
        return tuple(sorted(self.log["R"][: self.right_size]))


class Rounds(Sequence):
    """The rounds of a run, in order, read as ``RoundRecord``s built on access.

    A round is stored as nine counts in ``counts``, one array for the run:
    ``letter``, the neighborhood's ``left_len``, ``right_len`` and
    ``visited``, then ``scanned``, ``edges``, ``cells``, ``left_size`` and
    ``right_size``.  On a word of ``n`` letters none passes
    ``count_bound(n)``: a letter is below ``m <= n``, a neighborhood's
    lengths below ``n`` and its ``visited`` at most ``2n``, ``scanned`` at
    most ``n`` per call, ``edges`` below ``2n`` and ``cells`` at most
    ``(N / 2) * log2(N)`` per run, and a log's size at most ``N = n + 1``.
    So the counts are 32-bit, an ``array("I")``, while that bound is below
    ``2**32``, that is up to ``n = longest_32``, and 64-bit, an
    ``array("Q")``, on longer words.  ``log`` is the forest's join logs,
    which every record shares.
    """

    __slots__ = ("log", "counts")

    # count_bound grows with n, so it is below 2**32 exactly up to this n;
    # comparing n with it costs each run less than computing the bound
    longest_32 = 296_204_640

    def __init__(self, log: dict[str, array], n: int) -> None:
        self.log = log
        self.counts = array("I" if n <= Rounds.longest_32 else "Q")

    @staticmethod
    def count_bound(n: int) -> int:
        """The most any count of a round of an ``n``-letter word can be."""
        big = n + 1
        return max(2 * n, big * big.bit_length() // 2)

    def _record(self, letter, left, right, visited, scanned, edges, cells,
                left_size, right_size) -> RoundRecord:
        # tuple.__new__ skips the argument parsing of the NamedTuples' __new__
        return tuple.__new__(RoundRecord, (
            letter, tuple.__new__(Neighborhood, (left, right, visited)),
            scanned, edges, cells, self.log, left_size, right_size,
        ))

    def __len__(self) -> int:
        return len(self.counts) // 9

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        # range() wraps a negative index and raises IndexError past the end
        k = range(len(self))[i] * 9
        return self._record(*self.counts[k : k + 9])

    def __iter__(self) -> Iterator[RoundRecord]:
        # nine counts at a time, from one iterator over the array
        counts = iter(self.counts)
        return (self._record(*nine) for nine in zip(*[counts] * 9))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Rounds:
            return NotImplemented
        return self.counts == other.counts and self.log == other.log

    def __repr__(self) -> str:
        return f"Rounds(log={self.log!r}, counts={self.counts!r})"


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
        "word", "index", "expanding", "forest", "scan_from", "classes",
        "rent_due", "query_cost", "neighborhoods", "rounds", "counters",
        "last_scan",
    )

    def __init__(self, word: Word):
        n = word.n
        self.word = word
        self.index = build_index(word)
        self.expanding: set[int] = set()
        # the L/R cut sets: the forest's byte arrays, read in place
        self.forest = SyncForest(n)
        # no left cut below this cut violates the minimal-frequency condition
        self.scan_from = 0
        # sorted occurrence positions per distinct frequency, least frequent
        # first (see frequency_classes); built once scans could have paid
        # for them (see find_violation)
        self.classes: list[Sequence[int]] | None = None
        # what a build reads (at most n positions and m counts), less the
        # positions scanned since in segments a query could have answered
        self.rent_due = n + len(self.index.count)
        # the most a query reads: one probe per class, then its letter
        self.query_cost = len(set(self.index.count)) + 1
        # neighborhoods computed by the caller, which expand_letter uses
        # instead of its own; run() hands over none
        self.neighborhoods: dict[int, Neighborhood] = {}
        self.rounds = Rounds(self.forest.log, n)
        self.counters = Counters()
        self.last_scan = 0


def frequency_classes(index: PosIndex) -> list[Sequence[int]]:
    """Sorted occurrence positions of each distinct frequency, least first.

    A letter alone in its class keeps its own array of positions from the
    index; the positions of several letters with the same frequency are
    merged into a new one.  Both are ``array("I")``, 32-bit positions, so
    no position may exceed ``2**32 - 1`` (see ``words.PosIndex``).
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

    Each segment from a left cut ``l`` to the next right cut ``r`` gets one
    check: its leftmost least-frequent letter, checked for ``l`` alone.  If
    ``r - l > d + 1`` (``d`` distinct frequencies), an ``alpha_query``
    finds it, counted as the lists it probes plus the letter it reads, at
    most ``d + 1``; otherwise one pass from ``r`` down to ``l`` reads the
    ``r - l`` positions once.  Checking ``l`` alone suffices: an occurrence
    ``k`` of an expanding letter has the right cut ``k``, so no position of
    a segment but its last holds an expanding letter, and if a later left
    cut ``l2`` of the segment violates, the leftmost least-frequent letter
    from ``l`` either lies before ``l2``, and so is not expanding, or is the
    one from ``l2``.  Segments do not overlap and each costs at most
    ``min(r - l, d + 1)``, so one call reads at most ``n``
    (``state.last_scan``).  The queries need the frequency
    classes, whose build reads up to ``n + m``; until the segments that
    could have been queried add up to that many positions, this one
    included, they are scanned instead (``state.rent_due`` is what
    remains), and the segment that reaches it builds the classes.
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
        # no two letters share a first occurrence, so the tuples compare no
        # further than it
        a = min(zip(freq, map(itemgetter(0), pos), range(len(freq))))[2]
        state.scan_from, state.last_scan = 0, len(freq)
        state.counters.scanned += len(freq)
        return a
    flags = state.forest.flags
    left, right = flags["L"], flags["R"]
    classes, cost = state.classes, state.query_cost
    scanned = 0
    violator = None
    stop = n + 1
    # n is always a left cut, and scan_from may lie past it (find gives -1)
    l = left.find(1, state.scan_from)
    while -1 < l < n:
        r = right.find(1, l + 1)
        # a query reads at most cost = d + 1, a scan r - l
        query = r - l > cost
        if query and classes is None:
            # rent before buying: scan while the positions scanned in
            # segments a query could answer, this one included, stay below
            # what the build reads
            if r - l < state.rent_due:
                state.rent_due -= r - l
                query = False
            else:
                classes = state.classes = frequency_classes(state.index)
        if query:
            p, probes = alpha_query(classes, l, r)
            scanned += probes + 1
            best = letters[p - 1]
        else:
            # the leftmost least-frequent letter of positions l+1..r, by a
            # right-to-left pass that keeps ties at the leftmost index
            best = letters[r - 1]
            least = freq[best]
            for i in range(r - 2, l - 1, -1):
                b = letters[i]
                f = freq[b]
                if f <= least:
                    best, least = b, f
            scanned += r - l
        # only l is checked, as no later left cut of the segment can
        # violate unless l does (see the docstring)
        if best not in expanding:
            violator, stop = best, l
            break
        l = left.find(1, r)
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
    # the benchmark's traced run computes and times the neighborhood itself;
    # neighborhood rejects a letter that does not occur
    nb = state.neighborhoods.get(a)
    if nb is None:
        nb = neighborhood(state.word, state.index, a)
    left, right, visited = nb
    occ = state.index.pos[a]
    first = occ[0]
    forest = state.forest
    # the occurrences are sorted, so the star's lowest cut is around the
    # first and its highest around the last
    if first - left - 1 < 0 or occ[-1] + right > forest.n:
        raise ValueError(f"neighborhood {nb} of letter {a} leaves the word")
    log_l, log_r = forest.log["L"], forest.log["R"]
    old_l, old_r = len(log_l), len(log_r)

    # the star of forest.add_star, buffered here, as the check above covers
    # every cut it ties; a single occurrence ties none
    edges = (len(occ) - 1) * (left + right + 2)
    if edges:
        forest.pending.append((occ, -left - 1, right + 1))
    cells = forest.recompress()
    # the first occurrence's four cuts, flagged where not yet; the star
    # carries each flag to every occurrence
    fl, fr = forest.flags["L"], forest.flags["R"]
    if not fl[first - 1]:
        forest.set_flag(first - 1, "L")
    if not fr[first]:
        forest.set_flag(first, "R")
    if not fl[first + right]:
        forest.set_flag(first + right, "L")
    if not fr[first - left - 1]:
        forest.set_flag(first - left - 1, "R")

    # rescan from the first left cut that is new or whose right cut may have
    # moved: the smallest new L cut, and the old R cut just below the
    # smallest new R cut (every left cut above it may now stop earlier; no
    # new R cut lies below it)
    scan_from = state.scan_from
    for c in log_l[old_l:]:
        if c < scan_from:
            scan_from = c
    if len(log_r) > old_r:
        # cut 0 is on R from the start, so a new R cut is at least 1
        below = fr.rfind(1, 0, min(log_r[old_r:]))
        if below < scan_from:
            scan_from = below
    state.scan_from = scan_from

    state.expanding.add(a)
    counters = state.counters
    counters.visits += visited
    counters.edges += edges
    counters.cells += cells
    state.rounds.counts.extend((
        a, left, right, visited, state.last_scan, edges, cells,
        len(log_l), len(log_r),
    ))


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
    flags = state.forest.flags
    left, right = flags["L"], flags["R"]
    start = right.rfind(1, 0, k)
    stop = left.find(1, k)
    end = right.rfind(1, 0, stop + 1)
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
    rounds: Rounds
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
    A primitive word's images are its letters, and its cut sets and factor
    cuts are one tuple of every cut, all read without the forest.

    Once no letter violates, ``run`` keeps the expanding set, the rounds,
    the counters and the forest's join logs, and for an imprimitive word
    also the images and the kept letters' positions, then frees the state
    before it builds any result tuple: the occurrence index of the erased
    letters, the frequency classes, the side bytes and the union-find go
    at once, so the result's cut tuples come on top of the logs alone.
    The final sides are the join logs, sorted.
    """
    state = EngineState(word)
    while True:
        state.counters.loop_checks += 1
        a = find_violation(state)
        if a is None:
            break
        expand_letter(state, a)

    expanding, rounds, counters = state.expanding, state.rounds, state.counters
    log = state.forest.log
    m = word.alphabet_size
    primitive = len(expanding) == m
    # f(w) = w and f is idempotent, so each image is x a y with x and y
    # erased, and an occurrence p of a ends its block of the factorization
    # at p + |y|; with nothing erased, each image and each block is one
    # letter, and every cut is on both sides and ends a block
    if not primitive:
        images = tuple(image(state, a) if a in expanding else () for a in range(m))
        # each kept letter's positions, and the |y| of its image
        tails = [
            (state.index.pos[a], len(images[a]) - images[a].index(a) - 1)
            for a in expanding
        ]
    del state
    # from an iterator, CPython sizes the frozenset's table as it would a
    # set's, not at twice the size it gives a copy of a set; rebinding the
    # name frees the set before any result tuple is built
    expanding = frozenset(iter(expanding))
    if primitive:
        images = tuple(zip(range(m)))
        left_cuts = right_cuts = factor_cuts = tuple(range(word.n + 1))
    else:
        ends = [0]
        for occ, tail in tails:
            ends.extend([p + tail for p in occ])
        # each list goes once read, so none is alive when the sides are sorted
        del tails
        ends.sort()
        factor_cuts = tuple(ends)
        del ends
        left_cuts = tuple(sorted(log["L"]))
        right_cuts = tuple(sorted(log["R"]))
    # by position, in field order: keywords cost each run a little more
    return FactorizationResult(
        word, Morphism(expanding=expanding, images=images), primitive, rounds,
        left_cuts, right_cuts, factor_cuts, counters,
    )


def verify(word: Word, f: Morphism) -> bool:
    """True iff ``f`` fixes the word and is idempotent.

    ``f`` needs an image for each letter of the word's alphabet; fewer
    raise ``ValueError``.
    """
    if (k := len(f.images)) < word.alphabet_size:
        raise ValueError(f"morphism has images for {k} of {word.alphabet_size} letters")
    if f.apply(word.letters) != word.letters:
        return False
    return all(
        f.apply(f.images[a]) == f.images[a] for a in range(word.alphabet_size)
    )
