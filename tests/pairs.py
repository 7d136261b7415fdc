"""Paired process runs of ``benchmark/run.py`` on two checkouts.

Usage::

    python tests/pairs.py --a OTHER --b . --workload W --seeds 101-110 --seconds 3 [--smoke]

copies each checkout's ``src/`` and ``benchmark/``, without ``__pycache__``,
into one temporary directory, so both sides compile from source in every
run.  For each seed it runs ``benchmark/run.py --workload W --seed N
--seconds S --trace 0`` in both copies, one process after the other, with
``PYTHONDONTWRITEBYTECODE=1`` and waiting for each to end; which side runs
first alternates from seed to seed, so drift in the machine's speed falls
on both alike.  ``--seeds`` takes seeds and ranges separated by commas,
such as ``1,5`` or ``101-110``.

A run's result is the JSON object on its last line.  The script reads
``correct`` from it itself, as ``run.py`` exits 0 even when operations
fail: it exits 1 when a run exits non-zero, ends in no such object or
reports ``correct: false``, after every run of that seed has ended.  For
each end-to-end metric of ``BENCHMARK.json`` it prints one line per seed
with both values and their ratio B/A, then each side's median and
quartiles over the seeds, the median of the per-seed ratios, and how many
pairs B won in the direction ``BENCHMARK.json`` gives for the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")
COPIED = ("src", "benchmark")


def seed_list(text: str) -> list[int]:
    """The seeds of ``--seeds``: ``N`` or ``N-M`` (both included), separated
    by commas."""
    seeds = []
    for part in text.split(","):
        low, dash, high = part.strip().partition("-")
        if not low.isdigit() or (dash and not high.isdigit()):
            raise argparse.ArgumentTypeError(f"not a seed or a range of seeds: {part!r}")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}")
    return seeds


def copy_tree(tree: Path, dest: Path) -> Path:
    """Copy ``src/`` and ``benchmark/`` of ``tree`` into ``dest``."""
    for name in COPIED:
        shutil.copytree(tree / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def bench(copy: Path, workload: str, seed: int, seconds: float, smoke: bool, timeout: float):
    """Run ``benchmark/run.py`` in ``copy``; returns the metrics' values by
    name, or the reason the run is not usable."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"no result within {timeout:.0f} s"
    if proc.returncode:
        return f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        correct, metrics = result["correct"], result["metrics"]
        values = {name: float(m["value"]) for name, m in metrics.items()}
    except (IndexError, ValueError, TypeError, KeyError):
        return "its last line is not run.py's JSON result"
    if correct is not True:
        return f"correct is {correct!r}: {result.get('failed')} of {result.get('attempted')} failed"
    return values


def spread(values: list[float]) -> str:
    """The median and the quartiles of ``values``."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return f"median {median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, type=Path, help="checkout of side A")
    parser.add_argument("--b", required=True, type=Path, help="checkout of side B")
    parser.add_argument("--workload", required=True, help="a workload of benchmark/run.py")
    parser.add_argument("--seeds", required=True, type=seed_list, help="e.g. 101-110 or 1,5")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--smoke", action="store_true", help="the workloads' small sizes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trees = dict(zip(SIDES, (args.a, args.b)))
    for tree in trees.values():
        if not (tree / "src" / "morphprim" / "__init__.py").is_file() or not (
            tree / "benchmark" / "run.py"
        ).is_file():
            parser.error(f"no src/morphprim and benchmark/run.py under {tree}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    # set-ups, the allocation pass and the checks come on top of --seconds
    timeout = 120 + 10 * args.seconds

    values = {side: {name: [] for name in better} for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: copy_tree(tree.resolve(), Path(tmp) / side) for side, tree in trees.items()}
        for i, seed in enumerate(args.seeds):
            runs = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side] = bench(copies[side], args.workload, seed, args.seconds,
                                   args.smoke, timeout)
            errors = {side: run for side, run in runs.items() if isinstance(run, str)}
            for side, error in errors.items():
                print(f"seed {seed}: side {side.upper()} failed: {error}", file=sys.stderr)
            if errors:
                return 1
            first = "A" if i % 2 == 0 else "B"
            ratios = ", ".join(
                f"{name} {runs['a'][name]:.6g} -> {runs['b'][name]:.6g} "
                f"(B/A {runs['b'][name] / runs['a'][name]:.4f})"
                for name in better
            )
            print(f"seed {seed}, {first} first: {ratios}")
            for side in SIDES:
                for name in better:
                    values[side][name].append(runs[side][name])

    print(f"{args.workload}: {len(args.seeds)} pair(s), --seconds {args.seconds:g}"
          f"{' --smoke' if args.smoke else ''}")
    for name, direction in better.items():
        a, b = values["a"][name], values["b"][name]
        ratio = statistics.median(y / x for x, y in zip(a, b))
        won = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
        print(f"{name} ({direction} is better)")
        print(f"  A {args.a}: {spread(a)}")
        print(f"  B {args.b}: {spread(b)}")
        print(f"  median B/A {ratio:.4f}; B better in {won} of {len(a)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
