"""Synchronization forest over cuts.

Connected components of cuts are kept as a forest of rooted trees of height
one: every cut points directly at its root, so membership queries are O(1).
Which cut of a component is its root depends on the order of the merges;
nothing reads it but the forest.  Each component also threads its members
on a circular list (``next``); a lone cut, the only member of its
component, is its own successor.  Each side has one byte per cut
(``flags["L"]`` and ``flags["R"]``, each a ``bytearray`` of ``n + 1``
bytes), 1 where the cut belongs to that side's cut set and 0 elsewhere.
A component joins a side as a whole, so its members' bytes always agree,
and no byte is ever cleared.  A new forest has cuts ``0`` and ``n`` on
both sides, as the extremal cuts of a word are always left and right cuts.
A cut joins a side only when its component does, so every cut joins each
side at most once per run.  Each side appends its cuts to a join log
(``log``) in the order they join; sorted, a prefix of the log is the side
as it stood when the log had that length, so no earlier state needs a
copy.  The arrays are the sides as they stand now, which a reader searches
in place (``bytearray.find`` and ``rfind``); the logs are their
history.

New edges are buffered as stars, each tying the cuts around every
occurrence of a letter to the same cuts around its first occurrence, and
merged in place at the next recompression by weighted quick-find: an edge
between two components points every member of the smaller one at the
larger one's root, so height one holds after every edge and no root is
searched for.  Most merges meet a lone cut, which takes the other's sides
in its own bytes, with no walk and no call; the cells and the join order
are those of the general merge.  The count of cells is one per cut pointed
at a new root.  A cut is pointed at a new root only when its component at
least doubles, so a run over ``N = n + 1`` cuts counts at most
``(N / 2) * log2(N)`` cells; see ``SyncForest.recompress``.

Once no letter violates, ``run`` releases the forest (``release``) before
it reads the result: the union-find, ``parent`` and ``next``, two lists of
``n + 1`` ints that the readout never reads, is freed.  The forest keeps
``n``, the sides (``flags``), their join logs (``log``), which the rounds'
records share, and its emptied star buffer.  The readout's own lists are
then allocated beside the sides and logs alone, so a run's memory peaks in
its last round, not in its readout.
"""

from __future__ import annotations

from itertools import islice
from typing import Literal, Sequence

Side = Literal["L", "R"]


class SyncForest:
    """Height-one union structure over cuts ``0 .. n`` with L/R flags."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("word length must be non-negative")
        self.n = n
        self.parent = list(range(n + 1))
        # next[c]: the member after c on its component's circular list
        self.next = self.parent[:]
        # per side, one byte per cut: 1 on the side, the same at every
        # member of a component; any other side is a KeyError.  Cuts 0 and
        # n start on both sides: |f(empty prefix)| = 0 and |f(w)| = n for
        # every f
        ends = bytearray(n + 1)
        ends[0] = ends[n] = 1
        self.flags: dict[str, bytearray] = {"L": ends, "R": ends[:]}
        # per side: every flagged cut once, in the order it joined
        ends = [0, n] if n else [0]
        self.log: dict[str, list[int]] = {"L": ends, "R": ends[:]}
        # buffered stars: (occurrences, lo, hi), see add_star
        self.pending: list[tuple[Sequence[int], int, int]] = []

    def _join(self, c: int, flags: bytearray, log: list[int]) -> None:
        """Set ``flags`` to 1 on every member of the component of ``c``,
        which is 0 on all of them, and append each to ``log``."""
        nxt = self.next
        x = c
        while True:
            flags[x] = 1
            log.append(x)
            x = nxt[x]
            if x == c:
                return

    def set_flag(self, c: int, side: Side) -> None:
        """Flag the whole component of ``c``; idempotent."""
        flags = self.flags[side]
        if not 0 <= c <= self.n:
            raise ValueError(f"cut {c} out of range 0..{self.n}")
        if not flags[c]:
            self._join(c, flags, self.log[side])

    def add_star(self, occ: Sequence[int], lo: int, hi: int) -> int:
        """Buffer the edges ``(occ[0] + m, k + m)`` for every later ``k`` in
        ``occ`` and every ``m`` in ``range(lo, hi)``; components change only
        at the next recompress.

        Returns the number of edges buffered.  A cut out of range raises
        ``ValueError`` and buffers nothing.
        """
        if len(occ) < 2 or hi <= lo:
            return 0
        low, high = min(occ) + lo, max(occ) + hi - 1
        if low < 0 or high > self.n:
            cut = low if low < 0 else high
            raise ValueError(f"cut {cut} out of range 0..{self.n}")
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
        Where exactly one of the two components is on a side, the members
        of the other join that side, so both end on the union of their sides
        and no byte is cleared.  Every member of the smaller component, its
        root included, is then pointed at the larger root, and the two lists
        are spliced, so height one holds again after every edge.  A lone end
        (its own ``next``) is the smaller one without a walk, and merges with
        no call and no splice loop: it sets its own byte of each side the
        other component is on and appends itself to that side's log, as
        ``_join`` would; only a side that it is on and the other is not makes
        that whole component join it through ``_join``.  The cells, flags,
        ``parent``, ``next`` and join order are those of the general merge.

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
        parent, nxt = self.parent, self.next
        fl, fr = self.flags["L"], self.flags["R"]
        log_l, log_r = self.log["L"], self.log["R"]
        cells = 0
        for occ, lo, hi in pending:
            first = occ[0]
            for k in islice(occ, 1, None):
                shift = k - first
                for c in range(first + lo, first + hi):
                    u, v = parent[c], parent[c + shift]
                    if u == v:
                        continue
                    if nxt[v] != v:
                        # walk both lists until one closes, then let v name
                        # the smaller; a lone u closes at the first step
                        a, b = nxt[u], nxt[v]
                        while b != v and a != u:
                            a, b = nxt[a], nxt[b]
                        if b != v:
                            u, v = v, u
                    if nxt[v] == v:
                        # a lone v takes u's sides in its own bytes; u's
                        # component joins only a side that v alone is on
                        if fl[u] != fl[v]:
                            if fl[u]:
                                fl[v] = 1
                                log_l.append(v)
                            else:
                                self._join(u, fl, log_l)
                        if fr[u] != fr[v]:
                            if fr[u]:
                                fr[v] = 1
                                log_r.append(v)
                            else:
                                self._join(u, fr, log_r)
                    else:
                        # a side that holds one component only gains the
                        # other's members
                        if fl[u] != fl[v]:
                            self._join(v if fl[u] else u, fl, log_l)
                        if fr[u] != fr[v]:
                            self._join(v if fr[u] else u, fr, log_r)
                        x = nxt[v]
                        while x != v:
                            parent[x] = u
                            x = nxt[x]
                            cells += 1
                    # then v itself, and splice v's list in after u
                    parent[v] = u
                    nxt[u], nxt[v] = nxt[v], nxt[u]
                    cells += 1
        # emptied in place, so the stars are freed now, not at return
        pending.clear()
        return cells

    def release(self) -> None:
        """Free ``parent`` and ``next``, which only merges and member walks
        read; ``n``, ``flags``, ``log`` and ``pending`` stay.

        ``run`` calls it once the last violation check finds none, before
        it reads the images (``flags``) and the final sides
        (``flagged_cuts``, from ``log``), so that those reads do not add to
        a peak that holds the union-find.  A released forest takes no more
        stars and no more flags: ``recompress`` with a star pending, or
        ``set_flag`` on a cut not yet on the side, raises
        ``AttributeError``.
        """
        del self.parent, self.next

    def flagged_cuts(self, side: Side) -> list[int]:
        """All cuts flagged on ``side``, ascending.

        Sorts the side's join log into a new list on every call, which the
        caller owns.  ``run`` reads each final side of an imprimitive word
        here once, from the released forest; the rounds search
        ``flags[side]`` in place.
        """
        return sorted(self.log[side])
