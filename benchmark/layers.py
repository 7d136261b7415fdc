"""Traced replica of ``morphprim.engine.run`` for the per-layer split.

The loop of ``run()`` is rebuilt from the engine's public functions
(``EngineState``, ``find_violation``, ``words.neighborhood``,
``expand_letter``, ``image``, ``prefix_image_lengths``) and every call is
timed from outside the program.  The forest's ``recompress`` and
``flagged_cuts`` are wrapped on the instance, so the time they take inside
``find_violation`` and ``expand_letter`` can be taken out of those layers'
self times.  The neighborhood is computed here and stored in
``state.neighborhoods``, the cache ``expand_letter`` reads, so it is timed
apart and computed once, as in ``run()``.

A replica is only worth its numbers while it does what ``run()`` does:
``agreement`` compares the two on the same word.

``cli_calls`` times the ``parse_word`` and ``run`` calls inside the ``check``
command, where the command looks them up: as globals of ``morphprim.cli``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace
from typing import Any, NamedTuple

TIMES = (
    "words.intern_s",
    "words.neighborhood_s",
    "engine.init_s",
    "engine.scan_s",
    "engine.expand_s",
    "engine.readout_s",
    "engine.factor_cuts_s",
    "forest.recompress_s",
    "forest.flagged_cuts_s",
)
COUNTS = (
    "words.neighborhood_visits",
    "engine.scanned",
    "engine.snapshot_cuts",
    "forest.recompress_cells",
    "forest.edges",
    "forest.flagged_cuts_calls",
)


class Replica(NamedTuple):
    """The replica's result, with the field names of ``FactorizationResult``."""

    word: Any
    primitive: bool
    morphism: Any
    left_cuts: tuple[int, ...]
    right_cuts: tuple[int, ...]
    factor_cuts: tuple[int, ...]
    counters: tuple[int, ...]  # scanned, visits, edges, cells, loop_checks


def _counters(c) -> tuple[int, ...]:
    return (c.scanned, c.visits, c.edges, c.cells, c.loop_checks)


class Spans:
    """Per-layer self times and counts, summed over the words of one pass."""

    def __init__(self):
        self.total = dict.fromkeys(TIMES + COUNTS, 0)
        # forest time spent inside the engine call currently open
        self.child = 0.0

    def add(self, name: str, value) -> None:
        self.total[name] += value

    def wrap_forest(self, forest) -> None:
        recompress, flagged_cuts = forest.recompress, forest.flagged_cuts

        def timed_recompress():
            t = perf_counter()
            cells = recompress()
            dt = perf_counter() - t
            self.child += dt
            self.add("forest.recompress_s", dt)
            self.add("forest.recompress_cells", cells)
            return cells

        def timed_flagged_cuts(side):
            t = perf_counter()
            cuts = flagged_cuts(side)
            dt = perf_counter() - t
            self.child += dt
            self.add("forest.flagged_cuts_s", dt)
            self.add("forest.flagged_cuts_calls", 1)
            return cuts

        forest.recompress = timed_recompress
        forest.flagged_cuts = timed_flagged_cuts

    def engine_call(self, name: str, fn, *args):
        """Call ``fn``; charge its time less the forest time inside to ``name``."""
        self.child = 0.0
        t = perf_counter()
        value = fn(*args)
        self.add(name, perf_counter() - t - self.child)
        return value


@contextmanager
def cli_calls(cli):
    """Time and collect ``cli.parse_word`` and ``cli.run`` calls in the block.

    Yields a namespace whose ``seconds`` is the summed time of those calls and
    whose ``results`` are the values ``run`` returned, in call order.
    """
    parse_word, run = cli.parse_word, cli.run
    calls = SimpleNamespace(seconds=0.0, results=[])

    def timed_parse_word(text, tokens):
        t = perf_counter()
        word = parse_word(text, tokens)
        calls.seconds += perf_counter() - t
        return word

    def timed_run(word):
        t = perf_counter()
        result = run(word)
        calls.seconds += perf_counter() - t
        calls.results.append(result)
        return result

    cli.parse_word, cli.run = timed_parse_word, timed_run
    try:
        yield calls
    finally:
        cli.parse_word, cli.run = parse_word, run


def traced_run(mp, text: str, spans: Spans) -> Replica:
    """Decide ``text`` as ``run(intern_word(text))`` does, timing each layer."""
    engine, words = mp.engine, mp.words
    t0 = perf_counter()
    word = words.intern_word(text)
    t1 = perf_counter()
    state = engine.EngineState(word)
    t2 = perf_counter()
    spans.add("words.intern_s", t1 - t0)
    spans.add("engine.init_s", t2 - t1)
    spans.wrap_forest(state.forest)

    while True:
        state.counters.loop_checks += 1
        a = spans.engine_call("engine.scan_s", engine.find_violation, state)
        if a is None:
            break
        t = perf_counter()
        nb = words.neighborhood(word, state.index, a)
        spans.add("words.neighborhood_s", perf_counter() - t)
        spans.add("words.neighborhood_visits", nb.visited)
        state.neighborhoods[a] = nb
        spans.engine_call("engine.expand_s", engine.expand_letter, state, a)

    t = perf_counter()
    images = tuple(
        engine.image(state, a) if a in state.expanding else ()
        for a in range(word.alphabet_size)
    )
    t1 = perf_counter()
    morphism = engine.Morphism(expanding=frozenset(state.expanding), images=images)
    plen = engine.prefix_image_lengths(word, morphism)
    factor = tuple(k for k in range(word.n + 1) if plen[k] == k)
    t2 = perf_counter()
    spans.add("engine.readout_s", t1 - t)
    spans.add("engine.factor_cuts_s", t2 - t1)
    left = tuple(state.forest.flagged_cuts("L"))
    right = tuple(state.forest.flagged_cuts("R"))

    c = state.counters
    spans.add("engine.scanned", c.scanned)
    spans.add("forest.edges", c.edges)
    spans.add("engine.snapshot_cuts", sum(len(r.left_cuts) + len(r.right_cuts) for r in state.rounds))
    return Replica(
        word=word,
        primitive=len(state.expanding) == word.alphabet_size,
        morphism=morphism,
        left_cuts=left,
        right_cuts=right,
        factor_cuts=factor,
        counters=_counters(c),
    )


def agreement(replica: Replica, result) -> list[str]:
    """Fields in which the replica and ``run()``'s result differ."""
    pairs = {
        "verdict": (replica.primitive, result.primitive),
        "expanding set": (replica.morphism.expanding, result.morphism.expanding),
        "images": (replica.morphism.images, result.morphism.images),
        "left cuts": (replica.left_cuts, result.left_cuts),
        "right cuts": (replica.right_cuts, result.right_cuts),
        "factor cuts": (replica.factor_cuts, result.factor_cuts),
        "counters": (replica.counters, _counters(result.counters)),
    }
    return [name for name, (ours, theirs) in pairs.items() if ours != theirs]
