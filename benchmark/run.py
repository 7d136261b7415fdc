"""Seeded, self-checking benchmark for morphprim.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The program is imported from ``src/``; nothing
needs installing.  Workloads: ``random4``, ``wn`` and ``planted`` decide
words through the library (``intern_word`` then ``run``); ``stream`` feeds
short words as stdin lines to the ``morphprim check`` command, in process.

With ``--trace 0`` the end-to-end metrics are measured: ``setup_s``,
``letters_per_s`` and ``peak_alloc_mb``.  With ``--trace 1`` the per-layer
metrics come from a traced replica of ``run()`` (see ``layers.py``).  Every
output is checked (see ``checks.py``); a word whose output fails a check is
a failed operation.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import statistics
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import checks
import layers
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
# set-up is repeated over the run and its median reported, as one set-up is as
# noisy as one pass
SETUPS = 10
# a run times at least this many passes, even when --seconds is shorter than a pass
MIN_PASSES = 3
MAX_REPORTED_PROBLEMS = 5


def load_program(with_cli: bool) -> SimpleNamespace:
    """Import morphprim afresh (and click with the CLI), as a new process would."""
    roots = {"morphprim", "click"} if with_cli else {"morphprim"}
    for name in [m for m in sys.modules if m.partition(".")[0] in roots]:
        del sys.modules[name]
    importlib.import_module("morphprim")
    mp = SimpleNamespace(
        words=sys.modules["morphprim.words"],
        engine=sys.modules["morphprim.engine"],
        oracle=sys.modules["morphprim.oracle"],
    )
    if with_cli:
        mp.cli = importlib.import_module("morphprim.cli")
    return mp


def library_pass(mp, inputs: workloads.Inputs) -> list:
    run, intern_word = mp.engine.run, mp.words.intern_word
    return [run(intern_word(text)) for text in inputs.texts]


def stdin_bytes(inputs: workloads.Inputs) -> bytes:
    return "".join(text + "\n" for text in inputs.texts).encode("utf-8")


def cli_pass(mp, data: bytes) -> str:
    """Run ``morphprim check`` with ``data`` as stdin; return its stdout."""
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = stdin, stdout
    try:
        mp.cli.cli.main(["check"], prog_name="morphprim", standalone_mode=False)
    finally:
        sys.stdin, sys.stdout = saved
    stdout.flush()
    return stdout.buffer.getvalue().decode("utf-8")


def expectations(workload: str, mp, inputs: workloads.Inputs) -> list[checks.Expect]:
    """What each word's result must satisfy, computed apart from the engine."""
    if workload == "planted":
        planted_size = sum(1 for img in inputs.planted_images.values() if img)
        return [checks.Expect(primitive=False, max_expanding=planted_size)] * len(inputs.texts)
    if workload == "stream":
        verdicts: dict[str, bool] = {}
        for text in inputs.texts:
            if text not in verdicts:
                oracle = mp.oracle.min_expanding(mp.words.intern_word(text))
                verdicts[text] = not oracle.proper
        return [checks.Expect(primitive=verdicts[t]) for t in inputs.texts]
    return [
        checks.Expect(primitive=True, certified=checks.neighbours_certify_primitive(t))
        for t in inputs.texts
    ]


class Tally:
    """Operations (words decided) attempted and failed over the whole run."""

    def __init__(self, inputs: workloads.Inputs, expects: list[checks.Expect]):
        self.inputs = inputs
        self.expects = expects
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def _report(self, what: str) -> None:
        if self.reported < MAX_REPORTED_PROBLEMS:
            print(f"check failed: {what}", file=sys.stderr)
        self.reported += 1

    def results(self, results) -> None:
        """Check one pass of library (or replica) results."""
        self.attempted += len(self.inputs.texts)
        for i, (text, result, expect) in enumerate(zip(self.inputs.texts, results, self.expects, strict=True)):
            found = checks.problems(text, checks.outcome(result), expect)
            if found:
                self.failed += 1
                self._report(f"word {i}: " + "; ".join(found))

    def cli_output(self, output: str) -> None:
        """Check one pass of ``check`` output lines."""
        self.attempted += len(self.inputs.texts)
        failed = checks.cli_failures(self.inputs.texts, output, self.expects)
        if failed:
            self.failed += failed
            self._report(f"{failed} line(s) of check output are wrong")


def set_up(args, with_cli: bool) -> SimpleNamespace:
    """Import afresh, generate the inputs and run one warm-up pass, timed as a whole."""
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    via_cli = args.workload == "stream"
    gc.collect()
    start = perf_counter()
    mp = load_program(with_cli)
    inputs = workloads.GENERATORS[args.workload](args.seed, sizes)
    if via_cli:
        timed_pass = partial(cli_pass, mp, stdin_bytes(inputs))
    else:
        timed_pass = partial(library_pass, mp, inputs)
    warm = timed_pass()
    return SimpleNamespace(
        mp=mp, inputs=inputs, timed_pass=timed_pass, warm=warm,
        seconds=perf_counter() - start,
    )


def make_tally(args, s: SimpleNamespace) -> tuple[Tally, Callable]:
    """The run's tally and the check for one pass of ``s.timed_pass``."""
    tally = Tally(s.inputs, expectations(args.workload, s.mp, s.inputs))
    return tally, tally.cli_output if args.workload == "stream" else tally.results


def allocation_peak(s: SimpleNamespace, check_pass: Callable) -> int:
    """Peak bytes allocated during one checked pass of its own."""
    gc.collect()
    tracemalloc.start()
    try:
        out = s.timed_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_pass(out)
    return peak


def end_to_end(args) -> tuple[Tally, dict]:
    """Set-ups spread evenly over the window, timed passes between them.

    The first set-up, which also compiles the sources to bytecode in a fresh
    checkout, runs before the window with the checks' own computations.  The
    other ``SETUPS - 1`` each open one equal slice of the window, so the
    median set-up samples the machine at the same moments the passes do.
    The allocation pass, under ``tracemalloc`` and 4 to 15 times slower than
    a timed pass, follows the first of them inside the window.
    """
    via_cli = args.workload == "stream"
    s = set_up(args, with_cli=via_cli)
    tally, check_pass = make_tally(args, s)
    check_pass(s.warm)
    setup_s, times = [s.seconds], []
    start = perf_counter()
    for i in range(1, SETUPS):
        s = set_up(args, with_cli=via_cli)
        setup_s.append(s.seconds)
        check_pass(s.warm)
        del s.warm
        if i == 1:
            peak = allocation_peak(s, check_pass)
        due = start + args.seconds * i / (SETUPS - 1)
        while perf_counter() < due or (i == SETUPS - 1 and len(times) < MIN_PASSES):
            gc.collect()
            t = perf_counter()
            out = s.timed_pass()
            times.append(perf_counter() - t)
            check_pass(out)
            del out

    print(
        f"{args.workload}: {s.inputs.letters} letters in {len(s.inputs.texts)} word(s) "
        f"per pass; {len(times)} timed passes, fastest {min(times):.4f} s, "
        f"median {statistics.median(times):.4f} s; {SETUPS} set-ups, "
        f"fastest {min(setup_s):.4f} s, median {statistics.median(setup_s):.4f} s",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "letters_per_s": (s.inputs.letters / min(times), "letters/s"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
    }
    return tally, metrics


def traced(args) -> tuple[Tally, dict]:
    """Per-layer metrics; every time is the least over the run's traced passes.

    Each round makes three passes over the same words: the ``check`` command
    with its ``parse_word`` and ``run`` calls timed, the untraced library
    pass, and the traced replica, which must agree with ``run()``.
    """
    s = set_up(args, with_cli=True)
    mp, inputs = s.mp, s.inputs
    tally, check_pass = make_tally(args, s)
    check_pass(s.warm)
    del s.warm
    data = stdin_bytes(inputs)
    samples: dict[str, list[float]] = {name: [] for name in layers.TIMES}
    check_s, cli_over, trace_over = [], [], []
    counts = None
    deadline = perf_counter() + args.seconds
    while len(check_s) < MIN_PASSES or perf_counter() < deadline:
        gc.collect()
        with layers.cli_calls(mp.cli) as calls:
            start = perf_counter()
            output = cli_pass(mp, data)
            check_s.append(perf_counter() - start)
        cli_over.append(check_s[-1] - calls.seconds)
        tally.cli_output(output)
        del output

        gc.collect()
        start = perf_counter()
        out = library_pass(mp, inputs)
        library_s = perf_counter() - start
        tally.results(out)
        del out

        gc.collect()
        spans = layers.Spans()
        start = perf_counter()
        replicas = [layers.traced_run(mp, text, spans) for text in inputs.texts]
        trace_over.append(perf_counter() - start - library_s)
        for i, (replica, result) in enumerate(zip(replicas, calls.results, strict=True)):
            differ = layers.agreement(replica, result)
            if differ:
                raise SystemExit(
                    f"traced replica disagrees with run() on word {i}: {', '.join(differ)}; "
                    "layers.py no longer mirrors the engine"
                )
        tally.results(replicas)
        del replicas, calls

        for name in layers.TIMES:
            samples[name].append(spans.total[name])
        pass_counts = {name: spans.total[name] for name in layers.COUNTS}
        if counts is not None and pass_counts != counts:
            raise SystemExit(f"work counts changed between passes: {counts} -> {pass_counts}")
        counts = pass_counts

    metrics = {name: (min(v), "s") for name, v in samples.items()}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["cli.check_s"] = (min(check_s), "s")
    metrics["cli.overhead_s"] = (min(cli_over), "s")
    # a difference of two passes: the median of adjacent pairs resists drift
    metrics["trace.overhead_s"] = (statistics.median(trace_over), "s")
    return tally, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick try")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "morphprim" / "__init__.py").is_file():
        print(f"error: no morphprim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tally, metrics = traced(args) if args.trace else end_to_end(args)
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:>16.6g} {unit}")
    print(f"{'attempted':28} {tally.attempted:>16}")
    print(f"{'failed':28} {tally.failed:>16}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
