"""Synchronization forest over cuts.

Connected components of cuts are kept as a forest of rooted trees of height
one: every cut points directly at its root, the smallest cut of its
component, so membership queries are O(1).  Each component also threads its
members on a circular list (``next``).  Each root carries two flags
recording whether the cuts of its component belong to the left-cut set and
the right-cut set.  A component's members join a side only when the
component gains the flag, so every cut joins each side at most once per
run.  Each side appends its cuts to a join log (``log``) in the order they
join, and keeps one sorted list of them that takes in the log's new tail
when it is read.  Sorted, a prefix of the log is the side as it stood when
the log had that length, so no earlier state needs a copy.

New edges are buffered and merged in place at the next recompression:
union-find with path halving and linking by smallest root, then a walk over
the members of each component that was linked away, which points them at
their new root and restores height one.  The work of a recompression is
proportional to the edges and the cuts whose root changed, not to ``n``.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain
from typing import Iterable, Literal

Side = Literal["L", "R"]

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
        # per-root flags by side; any other side is a KeyError
        self._flags = {"L": bytearray(n + 1), "R": bytearray(n + 1)}
        # per side: every flagged cut once, in the order it joined, and the
        # log's first len(_cuts[side]) cuts ascending
        self.log: dict[str, list[int]] = {"L": [], "R": []}
        self._cuts: dict[str, list[int]] = {"L": [], "R": []}
        # buffered edges, flat: u0, v0, u1, v1, ...
        self.pending: list[int] = []

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

    def find(self, c: int) -> int:
        """Root of the component of ``c`` (constant time at height one)."""
        self._check(c)
        return self.parent[c]

    def has_flag(self, c: int, side: Side) -> bool:
        self._check(c)
        return bool(self._flags[side][self.parent[c]])

    def set_flag(self, c: int, side: Side) -> None:
        """Flag the whole component of ``c``; idempotent."""
        # called four times per occurrence each round, so the range check
        # and the join are written out rather than called
        flags = self._flags[side]
        if not 0 <= c <= self.n:
            self._check(c)
        root = self.parent[c]
        if not flags[root]:
            flags[root] = 1
            log, nxt = self.log[side], self.next
            log.append(root)
            c = nxt[root]
            while c != root:
                log.append(c)
                c = nxt[c]

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Buffer edges; components change only at the next recompress.

        Returns the number of edges buffered.  An out-of-range cut, or an
        odd number of ends, raises ``ValueError`` and buffers none of
        ``edges``.
        """
        pending = self.pending
        before = len(pending)
        pending += chain.from_iterable(edges)
        added = len(pending) - before
        # the cuts buffered before are in range, so the extremes of the
        # whole buffer tell whether a new one is not
        if added and (added % 2 or min(pending) < 0 or max(pending) > self.n):
            low, high = min(pending), max(pending)
            del pending[before:]
            self._check(low)
            self._check(high)
            raise ValueError("every edge needs two ends")
        return added // 2

    def recompress(self) -> int:
        """Merge buffered edges in place and restore height one.

        The new components are the connected closure of the old components
        plus the pending edges.  For each edge both roots are found with
        path halving; the larger root is linked under the smaller one,
        which takes over its flags, and their member lists are spliced.
        If exactly one of the two carried a side's flag, the members of the
        other join that side.  The members a root brings along stay in one
        run of the spliced list, from its old successor up to the root
        itself; at the end the run of each root linked directly under a
        surviving root is walked and pointed at it, which leaves every cut
        pointing at the smallest cut of its component.

        Returns the number of cells touched: one per parent hop in the root
        searches plus one per cut relabeled (at most ``n``, as cut 0 is
        always a root).  Linking by index with path halving is not linear
        in the worst case (the searches can cost a logarithmic factor per
        edge), so ``8n + 2`` is a measured bound, not a proven one.  The
        largest count per engine round seen is 0.38 of it over all words of
        length <= 9 on 4 letters, 0.28 on random words up to 20 000 letters
        and 0.25 on periodic words.
        """
        pending = self.pending
        if not pending:
            return 0
        parent, nxt = self.parent, self.next
        flag_l, flag_r = self._flags["L"], self._flags["R"]
        log_l, log_r = self.log["L"], self.log["R"]
        hops = 0
        # per link, flat: the root linked away, its old successor, the root
        # it was linked under
        links: list[int] = []
        ends = iter(pending)
        for u, v in zip(ends, ends):
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
            if flag_l[u] != flag_l[v]:
                self._join(v if flag_l[u] else u, log_l)
                flag_l[u] = 1
            if flag_r[u] != flag_r[v]:
                self._join(v if flag_r[u] else u, log_r)
                flag_r[u] = 1
            flag_l[v] = flag_r[v] = 0
            links.append(v)
            links.append(nxt[v])
            links.append(u)
            nxt[u], nxt[v] = nxt[v], nxt[u]
        self.pending = []
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
            relabeled += 1
        return hops + relabeled

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

    def components(self) -> list[list[int]]:
        """Current components as sorted cut lists (for tests and traces)."""
        groups: dict[int, list[int]] = {}
        for c in range(self.n + 1):
            groups.setdefault(self.parent[c], []).append(c)
        return [groups[r] for r in sorted(groups)]
