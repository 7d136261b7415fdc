"""Synchronization forest over cuts.

Connected components of cuts are kept as a forest of rooted trees of height
one: every cut points directly at its root, the smallest cut of its
component, so membership queries are O(1).  Each component also threads its
members on a circular list (``next``); a lone cut, the only member of its
component, is its own successor.  Each root carries two flag bits in one
byte (``flags``: ``SIDE_BIT["L"]`` and ``SIDE_BIT["R"]``) recording whether
the cuts of its component belong to the left-cut set and the right-cut set.
A component's members join a side only when the component gains the flag,
so every cut joins each side at most once per run.  Each side appends its
cuts to a join log (``log``) in the order they join, and keeps one sorted
list of them that takes in the log's new tail when it is read.  Sorted, a
prefix of the log is the side as it stood when the log had that length, so
no earlier state needs a copy.

New edges are buffered as stars, each tying the cuts around every
occurrence of a letter to the same cuts around its first occurrence, and
merged in place at the next recompression: union-find with path halving and
linking by smallest root, then a walk over the members of each component
with more than one member that was linked away, which points them at their
new root and restores height one.  The work of a recompression is
proportional to the edges and the cuts whose root changed, not to ``n``:
its count of cells is one per root-search hop, plus one per link, plus one
per cut a walk relabels.
"""

from __future__ import annotations

from bisect import insort
from itertools import islice
from typing import Literal, Sequence

Side = Literal["L", "R"]

# the bit of each side in a root's flag byte; any other side is a KeyError
SIDE_BIT = {"L": 1, "R": 2}

# a tail of at most this many new cuts is inserted one by one: a sort first
# walks the whole list to find its runs, and in a micro-benchmark (CPython
# 3.11, lists of 8 to 2 048 cuts) it was never faster for up to 4 new cuts,
# while a long tail on a short list sorts faster
SHORT_TAIL = 4


class SyncForest:
    """Height-one union structure over cuts ``0 .. n`` with L/R flags."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("word length must be non-negative")
        self.n = n
        self.parent = list(range(n + 1))
        # next[c]: the member after c on its component's circular list
        self.next = self.parent[:]
        # per-root side flags, SIDE_BIT["L"] | SIDE_BIT["R"] at most; zero
        # at every cut that is not a root
        self.flags = bytearray(n + 1)
        # per side: every flagged cut once, in the order it joined, and the
        # log's first len(_cuts[side]) cuts ascending
        self.log: dict[str, list[int]] = {"L": [], "R": []}
        self._cuts: dict[str, list[int]] = {"L": [], "R": []}
        # buffered stars: (occurrences, lo, hi), see add_star
        self.pending: list[tuple[Sequence[int], int, int]] = []

    def _check(self, c: int) -> None:
        if not 0 <= c <= self.n:
            raise ValueError(f"cut {c} out of range 0..{self.n}")

    def _join(self, root: int, log: list[int]) -> None:
        """Append the members of the component of ``root`` to ``log``."""
        nxt = self.next
        log.append(root)
        c = nxt[root]
        while c != root:
            log.append(c)
            c = nxt[c]

    def set_flag(self, c: int, side: Side) -> None:
        """Flag the whole component of ``c``; idempotent."""
        bit = SIDE_BIT[side]
        if not 0 <= c <= self.n:
            raise ValueError(f"cut {c} out of range 0..{self.n}")
        root = self.parent[c]
        flags = self.flags
        f = flags[root]
        if not f & bit:
            flags[root] = f | bit
            self._join(root, self.log[side])

    def add_star(self, occ: Sequence[int], lo: int, hi: int) -> int:
        """Buffer the edges ``(occ[0] + m, k + m)`` for every later ``k`` in
        ``occ`` and every ``m`` in ``range(lo, hi)``; components change only
        at the next recompress.

        Returns the number of edges buffered.  A cut out of range raises
        ``ValueError`` and buffers nothing.
        """
        if len(occ) < 2 or hi <= lo:
            return 0
        self._check(min(occ) + lo)
        self._check(max(occ) + hi - 1)
        self.pending.append((occ, lo, hi))
        return (len(occ) - 1) * (hi - lo)

    def recompress(self) -> int:
        """Merge buffered stars in place and restore height one.

        The new components are the connected closure of the old components
        plus the edges of the pending stars, taken occurrence by occurrence
        and, within one, by increasing offset.  Each occurrence reads its
        cuts' parents and the first occurrence's as two slices; from each
        pair of parents the roots are found with path halving (a parent read
        earlier is still an ancestor, as links only hang roots under roots).
        The larger root is linked under the smaller one, which takes over
        its flags, and their member lists are spliced.  If exactly one of
        the two carried a side's flag, the members of the other join that
        side.  A lone cut linked away already points at its root and lies on
        its list, so nothing more is done for it.  The members any other
        root brings along stay in one run of the spliced list, from its old
        successor up to the root itself; at the end the run of each such
        root linked directly under a surviving root is walked and pointed at
        it, which leaves every cut pointing at the smallest cut of its
        component.

        Returns the number of cells touched: one per parent hop in the root
        searches past the parent read from a slice, one per link and one per
        cut a walk relabels (links and relabels are each at most ``n``, as
        cut 0 is always a root).  Linking by index with path halving is not
        linear in the worst case (the searches can cost a logarithmic factor
        per edge), so ``8n + 2`` is a measured bound, not a proven one.  The
        largest count per engine round seen is 0.26 of it over all words of
        length <= 9 on 4 letters, 0.19 on random words up to 20 000 letters
        and 0.13 on periodic words.
        """
        pending = self.pending
        if not pending:
            return 0
        parent, nxt, flags = self.parent, self.next, self.flags
        log_l, log_r = self.log["L"], self.log["R"]
        join = self._join
        hops = linked = 0
        # per link of a root with other members, flat: the root linked
        # away, its old successor, the root it was linked under
        links: list[int] = []
        for occ, lo, hi in pending:
            first = occ[0]
            start, stop = first + lo, first + hi
            for k in islice(occ, 1, None):
                shift = k - first
                # the slices hold the forest's own ints, so no int made for
                # an edge is kept in parent or links
                for u, v in zip(parent[start:stop], parent[start + shift:stop + shift]):
                    while parent[u] != u:
                        parent[u] = parent[parent[u]]
                        u = parent[u]
                        hops += 1
                    while parent[v] != v:
                        parent[v] = parent[parent[v]]
                        v = parent[v]
                        hops += 1
                    if u == v:
                        continue
                    if v < u:
                        u, v = v, u
                    parent[v] = u
                    linked += 1
                    fu, fv = flags[u], flags[v]
                    if fu | fv:
                        if fu != fv:
                            # a side whose bit (SIDE_BIT: 1 for L, 2 for R)
                            # is set at one root only gains the other's
                            # members
                            if (fu ^ fv) & 1:
                                c = v if fu & 1 else u
                                if nxt[c] == c:
                                    log_l.append(c)
                                else:
                                    join(c, log_l)
                            if (fu ^ fv) & 2:
                                c = v if fu & 2 else u
                                if nxt[c] == c:
                                    log_r.append(c)
                                else:
                                    join(c, log_r)
                            flags[u] = fu | fv
                        flags[v] = 0
                    c = nxt[v]
                    nxt[u], nxt[v] = c, nxt[u]
                    if c != v:
                        links += (v, c, u)
        # emptied in place, so the stars are freed now, not at return
        pending.clear()
        relabeled = 0
        # a root linked under a root that was itself linked away lies
        # inside the latter's run, so only runs under survivors are walked
        records = iter(links)
        for v, c, u in zip(records, records, records):
            if parent[u] != u:
                continue
            # v itself was linked to u and stayed there
            while c != v:
                parent[c] = u
                c = nxt[c]
                relabeled += 1
        return hops + linked + relabeled

    def flagged_cuts(self, side: Side) -> list[int]:
        """All cuts whose component carries the flag, ascending.

        Returns the side's live sorted list, the same object on every call:
        later calls update it in place, and callers must not change it.
        The cuts that joined since the previous call are the ones past that
        call's length in ``log[side]``.
        """
        cuts, log = self._cuts[side], self.log[side]
        new = len(log) - len(cuts)
        if new > SHORT_TAIL:
            # two sorted runs, which the sort merges in one pass
            cuts += sorted(log[len(cuts):])
            cuts.sort()
        elif new:
            for c in log[len(cuts):]:
                insort(cuts, c)
        return cuts
