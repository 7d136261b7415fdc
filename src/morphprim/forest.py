"""Synchronization forest over cuts.

Each connected component of cuts that holds two or more cuts, or that is
on a side, keeps its members in one ``array("I")`` (``comp``): ``comp[c]``
is that array for every member ``c``, the same object for all of them, so
a component is named by its array, and two cuts share one exactly when
their entries are the same object (``is``).  A cut on a side is never
lone: a cut that joins a side with no partner gets a one-member array, so
``None`` marks a cut with no partner and no side.  The arrays hold 4 bytes
per member and no int object, so a cut must fit in 32 bits, as a
``PosIndex`` position must; their sizes are their lengths.  Which members
an array lists first depends on the order of the merges; nothing reads it
but the forest.  Each side has one byte per cut (``flags["L"]`` and
``flags["R"]``, each a ``bytearray`` of ``n + 1`` bytes), 1 where the cut
belongs to that side's cut set and 0 elsewhere.  A component joins a side
as a whole, so its members' bytes always agree, and no byte is ever
cleared.  A new forest has cuts ``0`` and ``n`` on both sides, as the
extremal cuts of a word are always left and right cuts.  A cut joins a
side only when its component does, so every cut joins each side at most
once per run.  Each side appends its cuts to a join log (``log``, an
``array("I")``) in the order they join; sorted, a prefix of the log is the
side as it stood when the log had that length, so no earlier state needs a
copy.  The byte arrays are the sides as they stand now, which a reader
searches in place (``bytearray.find`` and ``rfind``); the logs are their
history.

New edges are buffered as stars, each tying the cuts around every
occurrence of a letter to the same cuts around its first occurrence, and
merged in place at the next recompression by weighted quick-find: an edge
between two components moves every member of the smaller one into the
larger one's array and points its entry at that array, so every entry
names its component after every edge and no root is searched for.  Most
merges meet a lone cut, which is on no side: it is appended to the
other's array and takes the other's sides in its own bytes, with no call.
The count of cells is one per cut moved into another component's array;
it is tallied once per occurrence's window and corrected only at the edges
that meet no lone cut, so a lone merge touches no counter.  A cut moves
only when its component at least doubles, so a run over ``N = n + 1``
cuts counts at most ``(N / 2) * log2(N)`` cells; see
``SyncForest.recompress``.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterable, Literal, Sequence

Side = Literal["L", "R"]


class SyncForest:
    """Union structure over cuts ``0 .. n``, one member array per
    component, with L/R flags."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("word length must be non-negative")
        self.n = n
        # per side, one byte per cut: 1 on the side, the same at every
        # member of a component; any other side is a KeyError.  Cuts 0 and
        # n start on both sides: |f(empty prefix)| = 0 and |f(w)| = n for
        # every f
        ends = bytearray(n + 1)
        ends[0] = ends[n] = 1
        self.flags: dict[str, bytearray] = {"L": ends, "R": ends[:]}
        # per side: every flagged cut once, in the order it joined
        ends = array("I", (0, n) if n else (0,))
        self.log: dict[str, array] = {"L": ends, "R": ends[:]}
        # comp[c]: None while c has no partner and no side, else its
        # component's member array; a cut on a side is never lone, so cuts
        # 0 and n start with one member each (one array when n = 0)
        self.comp: list[array | None] = [None] * (n + 1)
        self.comp[0], self.comp[n] = ends[:1], ends[-1:]
        # buffered stars (occurrences, lo, hi): each ties the cut k + m of
        # every later occurrence k to occ[0] + m, for m in range(lo, hi);
        # whoever appends one checks that its cuts lie in 0 .. n
        self.pending: list[tuple[Sequence[int], int, int]] = []

    def _join(self, members: Iterable[int], flags: bytearray, log: array) -> None:
        """Set ``flags`` to 1 on each of ``members``, the cuts of one
        component, which is 0 on all of them, and append them to ``log``
        in their order."""
        for x in members:
            flags[x] = 1
        log.extend(members)

    def set_flag(self, c: int, side: Side) -> None:
        """Flag the whole component of ``c``; idempotent.  A lone ``c``
        gets a one-member array as it joins the side."""
        flags = self.flags[side]
        if not 0 <= c <= self.n:
            raise ValueError(f"cut {c} out of range 0..{self.n}")
        if not flags[c]:
            log, members = self.log[side], self.comp[c]
            if members is None:
                # a cut on a side is never lone, so recompress's lone end
                # is on no side: c joins with an array of its own, sliced
                # from the log it joins, with no call
                flags[c] = 1
                log.append(c)
                self.comp[c] = log[-1:]
            else:
                self._join(members, flags, log)

    def recompress(self) -> int:
        """Merge the buffered stars in place, one edge at a time.

        The new components are the connected closure of the old components
        plus the edges of the pending stars.  ``comp`` gives each end's
        member array at once; an edge whose ends share one is skipped.
        Otherwise the shorter array names the smaller component (of two the
        same size, the second end's).  Where exactly one of the two
        components is on a side, the members of the other join that side,
        so both end on the union of their sides and no byte is cleared.
        The smaller array's members are then appended to the larger one
        (``extend``) and each of their entries is pointed at it, so every
        entry names its component again after every edge.  A lone end is
        the smaller one: it is appended to the other array, or with a lone
        other end forms a new one, the other end first.  A cut on a side is
        never lone (``set_flag`` gives it an array), so the lone end is on
        no side: with no call, it sets its own byte of each side the other
        component is on and appends itself to that side's log.

        Returns the number of cells: one per cut moved into another array.
        They are tallied per window, not per edge: each later occurrence
        adds its window's length up front, one cell per edge as if every
        edge moved a lone end, and only the other edges correct it, by -1
        where the two ends already share an array and by ``len(v) - 1``
        where two arrays merge, so a lone end's edge touches no counter.
        A recompress does work in proportion to its cells, plus one check
        per edge.  A cut moves only when its component at least doubles, so
        the cells of a whole run over ``N = n + 1`` cuts are at most
        ``(N / 2) * log2(N)``, which merging equal components pairwise
        reaches exactly.
        """
        pending = self.pending
        if not pending:
            return 0
        comp = self.comp
        fl, fr = self.flags["L"], self.flags["R"]
        log_l, log_r = self.log["L"], self.log["R"]
        cells = 0
        for occ, lo, hi in pending:
            first = occ[0]
            window = range(first + lo, first + hi)
            for k in islice(occ, 1, None):
                shift = k - first
                if not shift:
                    # a repeated occurrence ties each cut to itself
                    continue
                # one cell per edge, as a lone end moves; the other
                # branches correct it
                cells += len(window)
                for c in window:
                    d = c + shift
                    u, v = comp[c], comp[d]
                    if v is not None:
                        if u is None:
                            # the lone end is called d: a lone d moves, as
                            # the second end of a tie does
                            c, d, u = d, c, v
                        elif u is v:
                            cells -= 1
                            continue
                        else:
                            if len(u) < len(v):
                                # v names the smaller; each end goes with
                                # its array
                                u, v, c, d = v, u, d, c
                            # a side that holds one component only gains
                            # the other's members
                            if fl[c] != fl[d]:
                                self._join(v if fl[c] else u, fl, log_l)
                            if fr[c] != fr[d]:
                                self._join(v if fr[c] else u, fr, log_r)
                            u.extend(v)
                            for x in v:
                                comp[x] = u
                            cells += len(v) - 1
                            continue
                    # the lone d, on no side, takes c's sides in its own
                    # bytes
                    if fl[c]:
                        fl[d] = 1
                        log_l.append(d)
                    if fr[c]:
                        fr[d] = 1
                        log_r.append(d)
                    if u is None:
                        comp[c] = comp[d] = array("I", (c, d))
                    else:
                        u.append(d)
                        comp[d] = u
        # emptied in place, so the stars are freed now, not at return
        pending.clear()
        return cells

    def flagged_cuts(self, side: Side) -> list[int]:
        """All cuts flagged on ``side``, ascending.

        Sorts the side's join log into a new list on every call, which the
        caller owns.  ``run`` does not call it: it sorts the join logs
        itself once the forest is freed, and the rounds search
        ``flags[side]`` in place.
        """
        return sorted(self.log[side])
