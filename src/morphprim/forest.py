"""Synchronization forest over cuts.

Connected components of cuts are kept as a forest of rooted trees of height
one: every cut points directly at its root, so membership queries are O(1).
Which cut of a component is its root depends on the order of the merges;
nothing reads it but the forest.  Each component also threads its members
on a circular list (``next``); a lone cut, the only member of its
component, is its own successor.  Each root carries two flag bits in one
byte (``flags``: ``SIDE_BIT["L"]`` and ``SIDE_BIT["R"]``) recording whether
the cuts of its component belong to the left-cut set and the right-cut set.
A new forest has cuts ``0`` and ``n`` flagged on both sides, as the
extremal cuts of a word are always left and right cuts.  A component's
members join a side only when the component gains the flag, so every cut
joins each side at most once per run.  Each side appends its cuts to a
join log (``log``) in the order they join; sorted, a prefix of the log is
the side as it stood when the log had that length, so no earlier state
needs a copy, and a reader that keeps its own sorted list takes in only
the log's new tail.

New edges are buffered as stars, each tying the cuts around every
occurrence of a letter to the same cuts around its first occurrence, and
merged in place at the next recompression by weighted quick-find: an edge
between two components points every member of the smaller one at the
larger one's root, so height one holds after every edge and no root is
searched for.  The count of cells is one per cut pointed at a new root.
A cut is pointed at a new root only when its component at least doubles,
so a run over ``N = n + 1`` cuts counts at most ``(N / 2) * log2(N)``
cells; see ``SyncForest.recompress``.
"""

from __future__ import annotations

from itertools import islice
from typing import Literal, Sequence

Side = Literal["L", "R"]

# the bit of each side in a root's flag byte; any other side is a KeyError
SIDE_BIT = {"L": 1, "R": 2}


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
        # at every cut that is not a root.  Cuts 0 and n start on both
        # sides: |f(empty prefix)| = 0 and |f(w)| = n for every f
        self.flags = bytearray(n + 1)
        self.flags[0] = self.flags[n] = SIDE_BIT["L"] | SIDE_BIT["R"]
        # per side: every flagged cut once, in the order it joined
        ends = [0, n] if n else [0]
        self.log: dict[str, list[int]] = {"L": ends, "R": ends[:]}
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
        """Merge the buffered stars in place, one edge at a time.

        The new components are the connected closure of the old components
        plus the edges of the pending stars.  As the forest has height one,
        ``parent`` gives each end's root at once; an edge whose ends share a
        root is skipped.  Otherwise both member lists are walked one step at
        a time until one of them closes, which names the smaller component
        (of two the same size, the second end's) without storing any sizes.
        If exactly one of the two roots carries a side's flag, the members
        of the other component join that side; the larger root takes over
        both roots' flags.  Every member of the smaller component, its root
        included, is then pointed at the larger root, and the two lists are
        spliced, so height one holds again after every edge.

        Returns the number of cells: one per cut pointed at a new root.  The
        walk that compares the sizes takes fewer steps than that, so a
        recompress does at most twice its cells in work, plus one parent
        check per edge.  A cut is pointed at a new root only when its
        component at least doubles, so the cells of a whole run over
        ``N = n + 1`` cuts are at most ``(N / 2) * log2(N)``, which merging
        equal components pairwise reaches exactly.
        """
        pending = self.pending
        if not pending:
            return 0
        parent, nxt, flags = self.parent, self.next, self.flags
        log_l, log_r = self.log["L"], self.log["R"]
        join = self._join
        cells = 0
        for occ, lo, hi in pending:
            first = occ[0]
            for k in islice(occ, 1, None):
                shift = k - first
                for c in range(first + lo, first + hi):
                    u, v = parent[c], parent[c + shift]
                    if u == v:
                        continue
                    # walk both lists until one closes, then let v name the
                    # smaller; v's is tested first, as the later occurrence's
                    # component is usually the smaller one
                    a, b = nxt[u], nxt[v]
                    while b != v and a != u:
                        a, b = nxt[a], nxt[b]
                    if b != v:
                        u, v = v, u
                    fu, fv = flags[u], flags[v]
                    if fu != fv:
                        # a side whose bit (SIDE_BIT: 1 for L, 2 for R) is
                        # set at one root only gains the other's members
                        if (fu ^ fv) & 1:
                            join(v if fu & 1 else u, log_l)
                        if (fu ^ fv) & 2:
                            join(v if fu & 2 else u, log_r)
                        flags[u] = fu | fv
                    flags[v] = 0
                    parent[v] = u
                    cells += 1
                    # splice, then walk v's old list from its successor
                    x = nxt[v]
                    nxt[u], nxt[v] = x, nxt[u]
                    while x != v:
                        parent[x] = u
                        x = nxt[x]
                        cells += 1
        # emptied in place, so the stars are freed now, not at return
        pending.clear()
        return cells

    def flagged_cuts(self, side: Side) -> list[int]:
        """All cuts whose component carries the flag, ascending.

        Sorts the side's join log into a new list on every call, which the
        caller owns.  A reader that keeps its own sorted list takes in only
        the log's new tail, ``log[side][len(kept):]``, as the engine does.
        """
        return sorted(self.log[side])
