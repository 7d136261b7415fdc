"""Command-line front end.

Subcommands: ``check`` (verdicts for words from args or stdin),
``factorize`` (witness morphism), ``trace`` (round-by-round JSON document),
``oracle`` (brute-force cross-check), ``gen`` (word families) and ``bench``
(counter-instrumented CSV rows).

Exit codes: 0 ok, 1 usage error, 2 size-guard refusal, 3 I/O failure.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from typing import Iterable, Iterator

import click

from .engine import FactorizationResult, Morphism, run
from .generate import palindrome_pair_word, random_word
from .oracle import (
    DEFAULT_SIZE_GUARD,
    WordTooLongError,
    min_expanding,
)
from .words import Word, intern_word

# exit-code contract above reserves 2 for guard refusals; usage errors are 1
click.UsageError.exit_code = 1

EPSILON = "ε"
ARROW = "↦"


def parse_word(text: str, tokens: bool) -> Word:
    """Intern one input line: UTF-8 symbols, or whitespace tokens."""
    return intern_word(text.split() if tokens else list(text))


def _decoded(texts: Iterable[str]) -> Iterator[str]:
    """``texts`` one at a time; malformed UTF-8 or a failed read exits 3.

    ``sys.argv``, and ``sys.stdin`` under a C or POSIX locale, decode with
    ``surrogateescape``, which turns each undecodable byte into a lone
    surrogate; encoding a non-ASCII text back finds it.
    """
    try:
        for text in texts:
            if not text.isascii():
                text.encode("utf-8")
            yield text
    except (OSError, UnicodeError) as exc:
        click.echo(f"error: cannot read input: {exc}", err=True)
        sys.exit(3)


def _lines(source) -> Iterator[str]:
    """Lines of ``source`` without newlines, read one at a time."""
    return _decoded(line.rstrip("\n") for line in source)


def _render(word: Word, letters: Iterable[int], tokens: bool) -> str:
    """Surface form of ``letters``: tokens are space-separated, symbols are
    single code points and concatenated."""
    return (" " if tokens else "").join(word.symbols[a] for a in letters)


def _morphism_line(word: Word, f: Morphism, tokens: bool) -> str:
    return ", ".join(
        f"{word.symbols[a]}{ARROW}{_render(word, img, tokens) or EPSILON}"
        for a, img in enumerate(f.images)
    )


def _final_block(word: Word, result: FactorizationResult, tokens: bool) -> dict:
    return {
        "primitive": result.primitive,
        "expanding": sorted(word.symbols[a] for a in result.expanding),
        "images": {
            word.symbols[a]: _render(word, img, tokens)
            for a, img in enumerate(result.morphism.images)
        },
        "factor_cuts": list(result.factor_cuts),
    }


def trace_document(word: Word, result: FactorizationResult, tokens: bool = False) -> dict:
    """Full round-by-round document; serializes deterministically."""
    rounds = [
        {
            "round": r.number,
            "letter": word.symbols[r.letter],
            "neighborhood": {
                "left": r.neighborhood.left_len,
                "right": r.neighborhood.right_len,
            },
            "L": list(r.left_cuts),
            "R": list(r.right_cuts),
        }
        for r in result.rounds
    ]
    return {
        "word": _render(word, word.letters, tokens),
        "rounds": rounds,
        "final": _final_block(word, result, tokens),
        "counters": {
            "positions_scanned": result.counters.scanned,
            "neighborhood_visits": result.counters.visits,
            "edges_added": result.counters.edges,
            "recompress_cells": result.counters.cells,
            "loop_checks": result.counters.loop_checks,
        },
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


@click.group()
def cli():
    """Decide morphic primitivity and construct fixed-point morphisms."""


@cli.command("check")
@click.argument("words", nargs=-1)
@click.option("--tokens", is_flag=True, help="Treat whitespace-separated tokens as letters.")
def cmd_check(words: tuple[str, ...], tokens: bool):
    """Print `word<TAB>verdict` for each word (args, or stdin lines)."""
    # written directly, as click.echo costs several times more per line; the
    # flush keeps each verdict visible before the next word is read
    out = sys.stdout
    for line in _decoded(words) if words else _lines(sys.stdin):
        result = run(parse_word(line, tokens))
        out.write(f"{line}\t{'primitive' if result.primitive else 'imprimitive'}\n")
        out.flush()


@cli.command("factorize")
@click.argument("word")
@click.option("--tokens", is_flag=True, help="Treat whitespace-separated tokens as letters.")
@click.option("--json", "as_json", is_flag=True, help="Emit the final block as JSON.")
def cmd_factorize(word: str, tokens: bool, as_json: bool):
    """Print the witness morphism and the factor segmentation."""
    w = parse_word(next(_decoded((word,))), tokens)
    result = run(w)
    if as_json:
        click.echo(_dump(_final_block(w, result, tokens)))
        return
    click.echo(_morphism_line(w, result.morphism, tokens))
    cuts = result.factor_cuts
    click.echo("|".join(
        _render(w, w.segment(i + 1, j), tokens) for i, j in zip(cuts, cuts[1:])
    ))
    click.echo("primitive" if result.primitive else "imprimitive")


@cli.command("trace")
@click.argument("word")
@click.option("--tokens", is_flag=True, help="Treat whitespace-separated tokens as letters.")
def cmd_trace(word: str, tokens: bool):
    """Print the full round-by-round trace as JSON."""
    w = parse_word(next(_decoded((word,))), tokens)
    click.echo(_dump(trace_document(w, run(w), tokens)))


@cli.command("oracle")
@click.argument("word")
@click.option("--tokens", is_flag=True, help="Treat whitespace-separated tokens as letters.")
@click.option("--max-len", type=click.IntRange(min=0), default=DEFAULT_SIZE_GUARD,
              show_default=True, help="Size guard for the exhaustive search.")
@click.option("--force", is_flag=True, help="Ignore the size guard.")
def cmd_oracle(word: str, tokens: bool, max_len: int, force: bool):
    """Brute-force verdict, minimal expanding-set size and one witness."""
    w = parse_word(next(_decoded((word,))), tokens)
    try:
        res = min_expanding(w, max_len=max_len, force=force)
    except WordTooLongError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(2)
    verdict = "imprimitive" if res.proper else "primitive"
    click.echo(f"{word}\t{verdict}")
    click.echo(f"min_expanding\t{res.size}")
    if w.alphabet_size:
        click.echo(f"witness\t{_morphism_line(w, res.morphism(w), tokens)}")


def _refuse_stray(mode: str, options: dict[str, object]) -> None:
    """Usage error if any of ``options`` (name to value) was given: ``mode``
    does not read them, and ignoring them would hide a mistaken call."""
    given = [name for name, value in options.items() if value is not None and value is not False]
    if given:
        raise click.UsageError(f"{mode} does not take {', '.join(given)}")


@cli.command("gen")
@click.option("--family", type=click.Choice(["wn"]), default=None,
              help="Named family (wn: k distinct letters mirrored).")
@click.option("--n", "family_n", type=click.IntRange(min=1), default=None,
              help="Family parameter k.")
@click.option("--random", "random_", is_flag=True, help="Uniform random word.")
@click.option("--len", "length", type=click.IntRange(min=0), default=None,
              help="Random word length.")
@click.option("--alphabet", type=click.IntRange(min=1), default=None,
              help="Random alphabet size.")
@click.option("--seed", type=int, default=None, help="Random seed (default 0).")
@click.option("--count", type=click.IntRange(min=0), default=1, show_default=True,
              help="Words to emit.")
def cmd_gen(family, family_n, random_, length, alphabet, seed, count):
    """Generate words, one per line."""
    if family and random_:
        raise click.UsageError("choose one of --family wn and --random")
    if family == "wn":
        if family_n is None:
            raise click.UsageError("--family wn requires --n")
        _refuse_stray("--family wn", {"--len": length, "--alphabet": alphabet, "--seed": seed})
        for _ in range(count):
            click.echo(palindrome_pair_word(family_n).render())
    elif random_:
        if length is None or alphabet is None:
            raise click.UsageError("--random requires --len and --alphabet")
        _refuse_stray("--random", {"--n": family_n})
        seed = seed or 0
        for i in range(count):
            click.echo(random_word(length, alphabet, seed + i).render())
    else:
        raise click.UsageError("choose --family wn or --random")


def _bench_row(w: Word) -> tuple:
    start = time.perf_counter_ns()
    result = run(w)
    elapsed = time.perf_counter_ns() - start
    c = result.counters
    return (w.n, w.alphabet_size, len(result.expanding), result.round_count,
            c.scanned, c.visits, c.edges, c.cells, elapsed)


@cli.command("bench")
@click.option("--family", type=click.Choice(["wn"]), default=None,
              help="Benchmark the wn family for k = 1 .. --n-max.")
@click.option("--n-max", type=click.IntRange(min=1), default=None,
              help="Largest family parameter.")
@click.option("--file", "path", type=str, default=None,
              help="Read words from a file ('-' for stdin).")
@click.option("--tokens", is_flag=True, help="Treat whitespace-separated tokens as letters.")
@click.option("--csv", "as_csv", is_flag=True, help="Emit CSV with a header row.")
def cmd_bench(family, n_max, path, tokens, as_csv):
    """One row per word: n, m, |E|, rounds, the four work counters, nanoseconds.

    The counters are positions read by the violation scan (scanned), the
    positions a step-by-step neighborhood walk would read (visits),
    synchronization edges added (edges) and cells touched by recompression
    (cells), summed over the run.
    """
    if family and path is not None:
        raise click.UsageError("choose one of --family wn and --file")
    if family == "wn":
        if n_max is None:
            raise click.UsageError("--family wn requires --n-max")
        _refuse_stray("--family wn", {"--tokens": tokens})
        source = nullcontext()
    elif path is not None:
        _refuse_stray("--file", {"--n-max": n_max})
        try:
            source = nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8")
        except OSError as exc:
            click.echo(f"error: cannot open {path}: {exc}", err=True)
            sys.exit(3)
    else:
        raise click.UsageError("choose --family wn or --file")

    # each row is decided and printed as its word is read
    sep = "," if as_csv else "\t"
    header = ("n", "m", "expanding", "rounds", "scanned", "visits", "edges", "cells", "ns")
    click.echo(sep.join(header))
    with source as fh:
        if fh is None:
            words = map(palindrome_pair_word, range(1, n_max + 1))
        else:
            words = (parse_word(line, tokens) for line in _lines(fh))
        for w in words:
            click.echo(sep.join(map(str, _bench_row(w))))


def main():
    cli(prog_name="morphprim")


if __name__ == "__main__":
    main()
