"""Command-line front end.

Subcommands: ``check`` (verdicts for words from args or stdin),
``factorize`` (witness morphism), ``trace`` (round-by-round JSON document),
``oracle`` (brute-force cross-check), ``gen wn`` and ``gen random`` (word
families) and ``bench`` (CSV rows for words from args or stdin, or with
``--wn K`` for the ``wn`` family).  ``trace`` and ``bench`` name the work
counters as ``Counters`` does: ``scanned``, ``visits``, ``edges`` and
``cells``.

Exit codes: 0 ok, 1 usage error, 2 size-guard refusal, 3 I/O failure, 4
out of memory.  A command whose stdout has no reader left also exits 1,
with nothing on stderr: click ends it so on ``EPIPE``.  A command that
runs out of memory prints one line to stderr and exits 4; what it printed
before, such as ``check``'s verdicts for the words before, stays printed.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Iterator

import click

from .engine import FactorizationResult, run
from .generate import palindrome_pair_word, random_word
from .oracle import (
    DEFAULT_SIZE_GUARD,
    WordTooLongError,
    min_expanding,
)
from .words import Morphism, Word, intern_word

# exit-code contract above reserves 2 for guard refusals; usage errors are 1
click.UsageError.exit_code = 1

EPSILON = "ε"
ARROW = "↦"


def parse_word(text: str, tokens: bool) -> Word:
    """Intern one input line: UTF-8 symbols, or whitespace tokens."""
    return intern_word(text.split() if tokens else text)


def _words(words: tuple[str, ...]) -> Iterator[str]:
    """``words``, or else the lines of stdin, one at a time; malformed UTF-8
    or a failed read exits 3.

    A stdin line ends at ``\n``, or at ``\r\n``: the ``\r`` of a CRLF line
    end is not part of its word.  ``sys.argv``, and ``sys.stdin`` under a C
    or POSIX locale, decode with ``surrogateescape``, which turns each
    undecodable byte into a lone surrogate; encoding a non-ASCII text back
    finds it.
    """
    try:
        for text in words or (line.removesuffix("\n").removesuffix("\r") for line in sys.stdin):
            if not text.isascii():
                text.encode("utf-8")
            yield text
    except (OSError, UnicodeError) as exc:
        click.echo(f"error: cannot read input: {exc}", err=True)
        sys.exit(3)


def _morphism_line(word: Word, f: Morphism, sep: str) -> str:
    return ", ".join(
        f"{word.symbols[a]}{ARROW}{word.render(img, sep) or EPSILON}"
        for a, img in enumerate(f.images)
    )


def trace_document(word: Word, result: FactorizationResult, sep: str = "") -> dict:
    """Full round-by-round document, rendered with ``sep`` between letters;
    serializes deterministically."""
    c = result.counters
    return {
        "word": word.render(sep=sep),
        "rounds": [
            {
                "round": number,
                "letter": word.symbols[r.letter],
                "neighborhood": {
                    "left": r.neighborhood.left_len,
                    "right": r.neighborhood.right_len,
                },
                "L": list(r.left_cuts),
                "R": list(r.right_cuts),
                "counters": {"scanned": r.scanned, "visits": r.neighborhood.visited,
                             "edges": r.edges, "cells": r.cells},
            }
            for number, r in enumerate(result.rounds, start=1)
        ],
        "final": {
            "primitive": result.primitive,
            "expanding": sorted(word.symbols[a] for a in result.expanding),
            "images": {
                word.symbols[a]: word.render(img, sep)
                for a, img in enumerate(result.morphism.images)
            },
            "factor_cuts": list(result.factor_cuts),
        },
        "counters": {name: getattr(c, name) for name in c.__slots__},
    }


def _one_word(word: str, tokens: bool) -> tuple[Word, str]:
    """The word, and the separator it renders back with (tokens are spaced)."""
    return parse_word(next(_words((word,))), tokens), " " if tokens else ""


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


tokens_option = click.option("--tokens", is_flag=True,
                             help="Treat whitespace-separated tokens as letters.")


class _Group(click.Group):
    """A group whose commands exit 4, not with a traceback, on ``MemoryError``."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except MemoryError:
            click.echo("error: out of memory", err=True)
            sys.exit(4)


@click.group(cls=_Group)
def cli():
    """Decide morphic primitivity and construct fixed-point morphisms."""


@cli.command("check")
@click.argument("words", nargs=-1)
@tokens_option
def cmd_check(words: tuple[str, ...], tokens: bool):
    """Print `word<TAB>verdict` for each word (args, or stdin lines)."""
    # written directly, as click.echo costs several times more per line; the
    # flush keeps each verdict visible before the next word is read
    out = sys.stdout
    for line in _words(words):
        result = run(parse_word(line, tokens))
        out.write(f"{line}\t{'primitive' if result.primitive else 'imprimitive'}\n")
        out.flush()


@cli.command("factorize")
@click.argument("word")
@tokens_option
def cmd_factorize(word: str, tokens: bool):
    """Print the witness morphism and the factor segmentation."""
    w, sep = _one_word(word, tokens)
    result = run(w)
    click.echo(_morphism_line(w, result.morphism, sep))
    cuts = result.factor_cuts
    click.echo("|".join(
        w.render(w.segment(i + 1, j), sep) for i, j in zip(cuts, cuts[1:])
    ))
    click.echo("primitive" if result.primitive else "imprimitive")


@cli.command("trace")
@click.argument("word")
@tokens_option
def cmd_trace(word: str, tokens: bool):
    """Print the full round-by-round trace as JSON.

    \b
    Its counters, per round and summed over the run:
    scanned      positions the violation scan reads, and its queries' probes
    visits       positions a step-by-step neighborhood walk would read (a model)
    edges        synchronization edges added to the forest
    cells        cuts recompression moves into another component
    loop_checks  violation checks: one per round, plus the last (run only)
    """
    w, sep = _one_word(word, tokens)
    click.echo(_dump(trace_document(w, run(w), sep)))


@cli.command("oracle")
@click.argument("word")
@tokens_option
@click.option("--max-len", type=click.IntRange(min=0), default=DEFAULT_SIZE_GUARD,
              show_default=True, help="Size guard for the exhaustive search.")
def cmd_oracle(word: str, tokens: bool, max_len: int):
    """Brute-force verdict and a minimal witness.

    Prints the verdict, the size of a minimal expanding set and one
    fixed-point morphism whose expanding set has that size.
    """
    w, sep = _one_word(word, tokens)
    try:
        res = min_expanding(w, max_len=max_len)
    except WordTooLongError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(2)
    verdict = "imprimitive" if res.proper else "primitive"
    click.echo(f"{word}\t{verdict}")
    click.echo(f"min_expanding\t{res.size}")
    if w.alphabet_size:
        line = _morphism_line(w, res.morphism, sep)
        click.echo(f"witness\t{line}")


@cli.group("gen")
def cmd_gen():
    """Generate words, one per line."""


def _emit(word: Word, alphabet: int) -> None:
    # spaced whenever the requested alphabet reaches past z, so every word of
    # one call reads back with the same --tokens setting
    click.echo(word.render(sep=" " if alphabet > 26 else ""))


@cmd_gen.command("wn")
@click.argument("k", type=click.IntRange(min=1))
def cmd_gen_wn(k: int):
    """The palindrome a1..ak ak..a1 over K letters."""
    _emit(palindrome_pair_word(k), k)


@cmd_gen.command("random")
@click.option("--len", "length", type=click.IntRange(min=0), required=True, help="Word length.")
@click.option("--alphabet", type=click.IntRange(min=1), required=True, help="Alphabet size.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the first word; each next word adds 1.")
@click.option("--count", type=click.IntRange(min=0), default=1, show_default=True,
              help="Words to emit.")
def cmd_gen_random(length: int, alphabet: int, seed: int, count: int):
    """Uniform random words, deterministic per seed."""
    for i in range(count):
        _emit(random_word(length, alphabet, seed + i), alphabet)


@cli.command("bench")
@click.argument("words", nargs=-1)
@click.option("--wn", "wn_max", type=click.IntRange(min=1), default=None, metavar="K",
              help="Rows for the wn family, k = 1 .. K, in place of words.")
@tokens_option
def cmd_bench(words: tuple[str, ...], wn_max: int | None, tokens: bool):
    """Work-counter rows, one per word, as CSV with a header row.

    The words are the arguments, or else the lines of stdin, or with --wn K
    the wn family for k = 1 .. K.  A row holds n, m, |E|, rounds, the four
    work counters scanned, visits, edges and cells (as in trace), summed
    over the run, and nanoseconds.
    """
    if wn_max is None:
        ws = (parse_word(line, tokens) for line in _words(words))
    elif words or tokens:
        raise click.UsageError("--wn takes no words and no --tokens")
    else:
        ws = map(palindrome_pair_word, range(1, wn_max + 1))

    # each row is decided and printed as its word is read
    click.echo("n,m,expanding,rounds,scanned,visits,edges,cells,ns")
    for w in ws:
        start = time.perf_counter_ns()
        result = run(w)
        elapsed = time.perf_counter_ns() - start
        c = result.counters
        row = (w.n, w.alphabet_size, len(result.expanding), result.round_count,
               c.scanned, c.visits, c.edges, c.cells, elapsed)
        click.echo(",".join(map(str, row)))


def main():
    cli(prog_name="morphprim")


if __name__ == "__main__":
    main()
