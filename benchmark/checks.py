"""Correctness checks kept apart from the engine.

Every check works on surface text with the benchmark's own morphism
application and prefix-image lengths; none calls ``morphprim.verify`` or
``left_right_cut_check``.  The only program code used to form an
expectation is the brute-force oracle, for the short ``stream`` words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True)
class Expect:
    """What a correct result for one word must satisfy."""

    primitive: bool
    # for a primitive verdict: the neighbour criterion certifies primitivity
    # (words whose verdict comes from the oracle need no certificate)
    certified: bool = True
    # planted words: the planted |E| bounds the minimal one from above, and
    # every image holds its own letter exactly once
    max_expanding: int | None = None


@dataclass(frozen=True)
class Outcome:
    """A result in surface terms: verdict, morphism by letter, cut sets."""

    primitive: bool
    images: dict[str, str]
    left: tuple[int, ...]
    right: tuple[int, ...]
    factor: tuple[int, ...]


def outcome(result) -> Outcome:
    """Surface view of a ``FactorizationResult`` (single-code-point letters)."""
    sym = result.word.symbols
    return Outcome(
        primitive=result.primitive,
        images={
            sym[a]: "".join(sym[x] for x in img)
            for a, img in enumerate(result.morphism.images)
        },
        left=tuple(result.left_cuts),
        right=tuple(result.right_cuts),
        factor=tuple(result.factor_cuts),
    )


def neighbours_certify_primitive(text: str) -> bool:
    """True when no letter can be erased by a morphism fixing ``text``.

    If an idempotent ``f`` with ``f(w) = w`` is not the identity, some kept
    letter ``e`` has an image ``x e y`` with ``x`` or ``y`` nonempty, and then
    every occurrence of ``e`` has the same left (or right) neighbour.  So if
    every letter has at least two distinct left and two distinct right
    neighbours, a word boundary counting as one, ``text`` is primitive.
    """
    padded = [None, *text, None]
    left: dict[str, set] = {c: set() for c in text}
    right: dict[str, set] = {c: set() for c in text}
    for x, y in set(zip(padded, padded[1:])):
        if x is not None:
            right[x].add(y)
        if y is not None:
            left[y].add(x)
    return all(len(left[c]) >= 2 and len(right[c]) >= 2 for c in left)


def apply(images: dict[str, str], text: str) -> str:
    return "".join(map(images.__getitem__, text))


def prefix_image_lengths(images: dict[str, str], text: str) -> list[int]:
    """``|f(text[:k])|`` for every cut ``k = 0 .. n``."""
    lens = {c: len(img) for c, img in images.items()}
    return list(accumulate(map(lens.__getitem__, text), initial=0))


def _ascending_in_range(cuts: tuple[int, ...], n: int) -> bool:
    ends = cuts[:1] + cuts[-1:]
    return all(a < b for a, b in zip(cuts, cuts[1:])) and all(0 <= k <= n for k in ends)


def problems(text: str, out: Outcome, expect: Expect) -> list[str]:
    """Everything wrong with ``out`` as the result for ``text``; empty if none."""
    alphabet = set(text)
    if set(out.images) != alphabet:
        return ["morphism is not defined on exactly the word's alphabet"]
    found = []
    if out.primitive != expect.primitive:
        found.append(f"verdict primitive={out.primitive}, expected {expect.primitive}")
    if apply(out.images, text) != text:
        found.append("f(w) != w")
    if any(apply(out.images, img) != img for img in out.images.values()):
        found.append("f is not idempotent")
    expanding = {c for c, img in out.images.items() if img}
    if out.primitive != (expanding == alphabet):
        found.append("verdict disagrees with the expanding set")
    if out.primitive and any(out.images[c] != c for c in alphabet):
        found.append("primitive verdict with a non-identity morphism")
    if expect.primitive and not expect.certified:
        found.append("the neighbour criterion does not certify primitivity")
    if expect.max_expanding is not None:
        if len(expanding) > expect.max_expanding:
            found.append(f"|E| = {len(expanding)} exceeds the planted {expect.max_expanding}")
        if any(out.images[e].count(e) != 1 for e in expanding):
            found.append("an image does not hold its letter exactly once")

    n = len(text)
    plen = prefix_image_lengths(out.images, text)
    left, right = set(out.left), set(out.right)
    if not (_ascending_in_range(out.left, n) and _ascending_in_range(out.right, n)):
        found.append("cut sets are not ascending within 0..n")
    elif any(plen[k] > k for k in out.left) or any(plen[k] < k for k in out.right):
        found.append("a claimed left/right cut is not one of f")
    # both word ends, and the cuts around every kept occurrence, are forced
    delimited = {0, n} <= left and {0, n} <= right and all(
        k - 1 in left and k in right
        for k, c in enumerate(text, start=1)
        if c in expanding
    )
    if not delimited:
        found.append("a cut delimiting a kept occurrence is missing")
    if out.factor != tuple(k for k in range(n + 1) if plen[k] == k):
        found.append("factor cuts differ from those where |f(prefix)| = |prefix|")
    return found


def cli_failures(texts: tuple[str, ...], output: str, expects: list[Expect]) -> int:
    """Input lines whose ``check`` output line is not ``word<TAB>verdict``."""
    lines = output.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    failed = max(len(texts) - len(lines), 0)
    for text, line, expect in zip(texts, lines, expects):
        verdict = "primitive" if expect.primitive else "imprimitive"
        if line != f"{text}\t{verdict}" or (expect.primitive and not expect.certified):
            failed += 1
    return min(failed + max(len(lines) - len(texts), 0), len(texts))
