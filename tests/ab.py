"""Paired A/B timing of ``run()`` on two source trees, in one process.

Usage::

    python tests/ab.py --a OTHER/src --b src --workload W --seed N --passes K [--smoke]

copies the ``morphprim`` package of each tree, without ``__pycache__``, into
one temporary directory as ``morphprim_a`` and ``morphprim_b``, so both
compile from source, and imports both.  A pass times
``run(intern_word(text))`` over every input of ``benchmark/workloads.py``'s
workload ``W`` for seed ``N`` (``--smoke`` takes its small sizes); the file
is only imported.  Each of the ``K`` passes times both sides, one after the
other, and which side goes first alternates from pass to pass, so drift in
the machine's speed falls on both alike.  For each side the script prints
the fastest pass, the quartiles and the median, then how many passes B was
faster in, and the ratio of the medians.

It exits 1 if any word's verdict, morphism, left, right or factor cuts, or
counters differ between the two trees, so ``--a src --b src`` checks that
the tool runs.  It times the library, not the ``check`` command the
benchmark's ``stream`` workload runs: on ``stream`` the library pass is
98 to 99% of the ``check`` pass (fastest of 30 passes each: 56.4 ms
against 57.0 ms, and 54.7 against 55.9, CPython 3.11.7).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")


def load(src: Path, tmp: Path, side: str):
    """Import the ``morphprim`` package under ``src`` as ``morphprim_<side>``."""
    name = f"morphprim_{side}"
    shutil.copytree(src / "morphprim", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def outcome(result) -> tuple:
    """What a result reports, as plain values that compare across trees."""
    c = result.counters
    return (
        result.primitive,
        tuple(sorted(result.morphism.expanding)),
        result.morphism.images,
        result.left_cuts,
        result.right_cuts,
        result.factor_cuts,
        tuple((name, getattr(c, name)) for name in c.__slots__),
    )


def timed_pass(mp, texts) -> tuple[float, list]:
    run, intern_word = mp.engine.run, mp.words.intern_word
    gc.collect()
    start = perf_counter()
    results = [run(intern_word(text)) for text in texts]
    return perf_counter() - start, results


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return (
        f"min {min(times) * 1e3:.3f} ms, median {median * 1e3:.3f} ms "
        f"[{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, type=Path, help="directory holding side A's morphprim")
    parser.add_argument("--b", required=True, type=Path, help="directory holding side B's morphprim")
    parser.add_argument("--workload", required=True, help="a workload of benchmark/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--smoke", action="store_true", help="the workloads' small sizes")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")
    for src in (args.a, args.b):
        if not (src / "morphprim" / "__init__.py").is_file():
            parser.error(f"no morphprim package under {src}")

    # neither the benchmark's directory nor the copies gain __pycache__
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "benchmark"))
    import workloads

    if args.workload not in workloads.GENERATORS:
        parser.error(f"--workload must be one of {', '.join(sorted(workloads.GENERATORS))}")
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    inputs = workloads.GENERATORS[args.workload](args.seed, sizes)

    srcs = dict(zip(SIDES, (args.a, args.b)))
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        mps = {side: load(src.resolve(), Path(tmp), side) for side, src in srcs.items()}
        for i in range(args.passes):
            outcomes = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                seconds, results = timed_pass(mps[side], inputs.texts)
                times[side].append(seconds)
                if i == 0:
                    outcomes[side] = [outcome(r) for r in results]
                del results
            if outcomes and outcomes["a"] != outcomes["b"]:
                differ = [k for k, (x, y) in enumerate(zip(*outcomes.values())) if x != y]
                print(f"results differ on {len(differ)} of {len(inputs.texts)} word(s), "
                      f"the first being word {differ[0]}", file=sys.stderr)
                return 1

    print(f"{args.workload} seed {args.seed}: {inputs.letters} letters in "
          f"{len(inputs.texts)} word(s) per pass, {args.passes} passes per side")
    for side, src in srcs.items():
        print(f"{side.upper()} {src}: {summary(times[side])}")
    won = sum(b < a for a, b in zip(times["a"], times["b"]))
    ratio = statistics.median(times["b"]) / statistics.median(times["a"])
    print(f"B faster in {won} of {args.passes} passes; median B/A {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
