from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from click.testing import CliRunner

from morphprim import run
from morphprim.cli import cli

from conftest import EXAMPLE_WORD


def invoke(*args, input=None):
    return CliRunner().invoke(cli, list(args), input=input)


# stdin decodings to run the CLI under: as the environment has it, the C
# locale's surrogate escapes, and strict UTF-8
STDIN_ENVS = [{}, {"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:strict"}]

BENCH_HEADER = b"n,m,expanding,rounds,scanned,visits,edges,cells,ns\n"

CLI = [sys.executable, "-m", "morphprim.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def run_cli(args, stdin: bytes, env: dict[str, str]):
    """Run ``morphprim`` in a real subprocess, whose stdin decodes like a
    terminal's (CliRunner decodes its input strictly)."""
    return subprocess.run(
        [*CLI, *args], input=stdin, capture_output=True, env={**CLI_ENV, **env}, timeout=60,
    )


class FailingAfter(io.BytesIO):
    """Binary stdin that serves ``data`` once, then fails on every read."""

    def __init__(self, data: bytes):
        super().__init__()
        self.data = data

    def read(self, size=-1):
        if size == 0:  # click probes the stream with read(0)
            return b""
        if not self.data:
            raise OSError("device gone")
        data, self.data = self.data, b""
        return data

    read1 = read


class ReadsWords:
    """How a command reads words: its arguments if any are given, else the
    lines of stdin, each decided and printed as it is read.

    A subclass names the ``command`` and states its own rows: ``expect``
    gives the lines it prints for some words, and ``rows`` reads its output
    back into lines comparable with them.
    """

    READ_ERROR = "error: cannot read input: device gone"

    def test_args(self):
        res = invoke(*self.command, "abaaba", "abba")
        assert res.exit_code == 0
        assert self.rows(res.output) == self.expect(["abaaba", "abba"])

    def test_stdin(self):
        res = invoke(*self.command, input="abaaba\nabba\n")
        assert res.exit_code == 0
        assert self.rows(res.output) == self.expect(["abaaba", "abba"])

    def test_empty_stdin(self):
        res = invoke(*self.command, input="")
        assert res.exit_code == 0
        assert self.rows(res.output) == self.expect([])

    def test_empty_word_is_primitive(self):
        res = invoke(*self.command, input="\n")
        assert res.exit_code == 0
        assert self.rows(res.output) == self.expect([""])

    def test_tokens_mode(self):
        res = invoke(*self.command, "--tokens", "foo bar foo foo bar foo")
        assert res.exit_code == 0
        assert self.rows(res.output) == self.expect(["foo bar foo foo bar foo"])

    def test_stdin_read_error_exit_code(self):
        res = invoke(*self.command, input=FailingAfter(b""))
        assert res.exit_code == 3
        assert self.rows(res.output) == self.expect([]) + [self.READ_ERROR]

    def test_stdin_is_read_lazily(self):
        # the first word is decided before the failing second read
        res = invoke(*self.command, input=FailingAfter(b"abaaba\n"))
        assert res.exit_code == 3
        assert self.rows(res.output) == self.expect(["abaaba"]) + [self.READ_ERROR]

    @pytest.mark.parametrize("env", STDIN_ENVS)
    def test_malformed_utf8_stdin_exit_code(self, env):
        res = run_cli(self.command, b"ab\xffa\n", env)
        assert res.returncode == 3
        assert self.rows(res.stdout.decode()) == self.expect([])
        assert b"cannot read input" in res.stderr

    def test_utf8_stdin_is_accepted(self):
        res = run_cli(self.command, "aéa\n".encode(), {"LC_ALL": "C"})
        assert res.returncode == 0
        assert self.rows(res.stdout.decode()) == self.expect(["aéa"])

    @pytest.mark.parametrize("env", STDIN_ENVS)
    def test_crlf_stdin_lines(self, env):
        # the \r of a CRLF line end is not part of the word; a lone \r
        # inside a line is
        res = run_cli(self.command, b"aa\r\nab\rba\r\nabba\r\nabaaba", env)
        assert res.returncode == 0
        assert self.rows(res.stdout.decode()) == self.expect(["aa", "ab\rba", "abba", "abaaba"])


class TestCheck(ReadsWords):
    command = ("check",)
    PRIMITIVE = {"", "aa", "abba"}

    @staticmethod
    def rows(output: str) -> list[str]:
        return output.split("\n")[:-1]

    def expect(self, words: list[str]) -> list[str]:
        return [f"{word}\t{'primitive' if word in self.PRIMITIVE else 'imprimitive'}"
                for word in words]

    def test_tokens_past_256_letters(self):
        # 300 letters, held as a 4-byte array, not as bytes
        word = " ".join(f"t{i}" for i in range(300))
        res = invoke("check", "--tokens", f"{word} {word}")
        assert res.exit_code == 0
        assert res.output == f"{word} {word}\timprimitive\n"


class TestBench(ReadsWords):
    command = ("bench",)
    # every column but the wall time
    HEADER = "n,m,expanding,rounds,scanned,visits,edges,cells"
    COUNTS = {
        "": "0,0,0,0,0,0,0,0", "aa": "2,1,1,1,1,1,2,2", "abba": "4,2,2,2,5,5,4,5",
        "abaaba": "6,2,1,1,6,5,4,4", "ab\rba": "5,3,1,1,6,4,0,0", "aéa": "3,2,1,1,4,2,0,0",
        "foo bar foo foo bar foo": "6,2,1,1,6,5,4,4",
    }

    @staticmethod
    def rows(output: str) -> list[str]:
        return [line.rpartition(",")[0] or line for line in output.split("\n")[:-1]]

    def expect(self, words: list[str]) -> list[str]:
        return [self.HEADER] + [self.COUNTS[word] for word in words]

    def test_wn_family_csv(self):
        res = invoke("bench", "--wn", "4")
        lines = res.output.splitlines()
        assert lines[0] == self.HEADER + ",ns"
        for k, line in enumerate(lines[1:], start=1):
            n, m, e, rounds = map(int, line.split(",")[:4])
            assert (n, m) == (2 * k, k)
            assert rounds == e == k  # primitive family: one round per letter
        # aa: run()'s counters scanned, visits, edges, cells, one per column;
        # round 1 reads its one letter from the index, the last check reads
        # nothing once every letter expands, and each of the two edges
        # moves one lone cut into another component
        assert lines[1].split(",")[4:8] == ["1", "1", "2", "2"]

    @pytest.mark.parametrize("k", [1, 3, 26, 27, 30])
    def test_wn_rows_match_gen_piped_to_bench(self, k):
        # gen spaces the letters of wn once k passes z, and bench reads
        # them back as tokens
        sweep = self.rows(invoke("bench", "--wn", "30").output)
        tokens = ("--tokens",) if k > 26 else ()
        piped = self.rows(invoke("bench", *tokens,
                                 input=invoke("gen", "wn", str(k)).output).output)
        assert piped == [self.HEADER, sweep[k]]

    def test_gen_random_past_26_letters_reads_as_tokens(self):
        words = invoke("gen", "random", "--len", "4", "--alphabet", "30", "--count", "20").output
        rows = self.rows(invoke("bench", "--tokens", input=words).output)
        assert len(rows) == 21
        assert all(row.split(",")[0] == "4" for row in rows[1:])


# every command that takes words as arguments, given one with an
# undecodable byte, which sys.argv decodes to a lone surrogate
@pytest.mark.parametrize("env", STDIN_ENVS)
@pytest.mark.parametrize("command", ["check", "factorize", "trace", "oracle", "bench"])
def test_malformed_utf8_argument_exit_code(command, env):
    res = run_cli([command, b"ab\xffa"], b"", env)
    assert res.returncode == 3
    # bench prints its header before it reads a word
    assert res.stdout == (BENCH_HEADER if command == "bench" else b"")
    assert res.stderr.startswith(b"error: cannot read input: ")


# the reader of stdout is gone before the first row is written: click ends
# the command on EPIPE with the usage-error code and writes nothing more
@pytest.mark.parametrize("command", ["check", "bench"])
def test_closed_stdout_exit_code(command):
    with subprocess.Popen([*CLI, command], env=CLI_ENV, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, err = proc.communicate(b"abba\n" * 10, timeout=60)
    assert proc.returncode == 1
    assert err == b""


# run() runs out of memory on a word of more than four letters: the command
# prints one line to stderr and exits 4, and check's verdicts for the words
# before stay on stdout
@pytest.mark.parametrize("args, stdin, printed", [
    (("check", "abba", "abaaba", "aa"), None, "abba\tprimitive\n"),
    (("check",), "abba\nabaaba\naa\n", "abba\tprimitive\n"),
    (("factorize", "abaaba"), None, ""),
])
def test_out_of_memory_exit_code(monkeypatch, args, stdin, printed):
    def short_of_memory(w):
        if w.n > 4:
            raise MemoryError
        return run(w)

    monkeypatch.setattr("morphprim.cli.run", short_of_memory)
    res = invoke(*args, input=stdin)
    assert res.exit_code == 4
    assert res.stdout == printed
    assert res.stderr == "error: out of memory\n"


class TestFactorize:
    def test_example_word_text(self):
        res = invoke("factorize", EXAMPLE_WORD)
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "c↦c, a↦ε, b↦aab, d↦aad, e↦e"
        assert lines[1] == "c|aab|c|aad|e|aab|e|aad"
        assert lines[2] == "imprimitive"

    def test_abaaba(self):
        res = invoke("factorize", "abaaba")
        assert res.output.splitlines()[0] == "a↦ε, b↦aba"
        assert res.output.splitlines()[1] == "aba|aba"

    def test_single_letter_identity(self):
        res = invoke("factorize", "a")
        assert res.output.splitlines() == ["a↦a", "a", "primitive"]


class TestTrace:
    def test_example_rounds(self):
        res = invoke("trace", EXAMPLE_WORD)
        doc = json.loads(res.output)
        assert [r["letter"] for r in doc["rounds"]] == ["c", "b", "d", "e"]
        assert doc["rounds"][0]["L"] == [0, 3, 4, 7, 16]
        assert doc["rounds"][0]["R"] == [0, 1, 4, 5, 16]
        assert doc["rounds"][3]["L"] == [0, 3, 4, 7, 8, 11, 12, 15, 16]
        assert doc["rounds"][3]["R"] == [0, 1, 4, 5, 8, 9, 12, 13, 16]
        assert doc["final"]["images"] == {
            "a": "", "b": "aab", "c": "c", "d": "aad", "e": "e",
        }

    def test_final_block(self):
        final = json.loads(invoke("trace", "abaaba").output)["final"]
        assert final["primitive"] is False
        assert final["images"] == {"a": "", "b": "aba"}
        assert final["expanding"] == ["b"]
        assert final["factor_cuts"] == [0, 3, 6]

    def test_abba_two_rounds(self):
        doc = json.loads(invoke("trace", "abba").output)
        assert [r["letter"] for r in doc["rounds"]] == ["a", "b"]

    def test_reserialization_is_byte_identical(self):
        out = invoke("trace", EXAMPLE_WORD).output.strip()
        assert json.dumps(json.loads(out), sort_keys=True, ensure_ascii=False) == out


class TestOracle:
    def test_abaaba(self):
        res = invoke("oracle", "abaaba")
        lines = res.output.splitlines()
        assert lines[0] == "abaaba\timprimitive"
        assert lines[1] == "min_expanding\t1"
        assert lines[2] == "witness\ta↦ε, b↦aba"

    def test_abba(self):
        res = invoke("oracle", "abba")
        assert res.output.splitlines()[0] == "abba\tprimitive"

    def test_guard_refusal_exit_code(self):
        res = invoke("oracle", "a" * 17)
        assert res.exit_code == 2
        assert "refused" in res.output

    def test_guard_override(self):
        assert invoke("oracle", "a" * 17, "--max-len", "20").exit_code == 0

    def test_force_search_deeper_than_recursion_limit(self):
        # {a} is tried first, with 1 200 blocks in a row before it fails
        word = "ab" * 1200 + "c"
        res = invoke("oracle", "--max-len", str(len(word)), word)
        assert res.exit_code == 0
        assert res.output.splitlines()[:2] == [f"{word}\timprimitive", "min_expanding\t1"]


class TestSingleCharacterTokens:
    """With --tokens, even one-character tokens are rendered space-separated."""

    def test_factorize(self):
        res = invoke("factorize", "--tokens", "a b a b")
        assert res.output.splitlines() == ["a↦a b, b↦ε", "a b|a b", "imprimitive"]

    def test_trace(self):
        doc = json.loads(invoke("trace", "--tokens", "a b a b").output)
        assert doc["word"] == "a b a b"
        assert doc["final"]["images"] == {"a": "a b", "b": ""}

    def test_oracle(self):
        res = invoke("oracle", "--tokens", "a b a b")
        assert res.output.splitlines() == [
            "a b a b\timprimitive",
            "min_expanding\t1",
            "witness\ta↦a b, b↦ε",
        ]


class TestGen:
    def test_family_wn(self):
        assert invoke("gen", "wn", "3").output == "abccba\n"
        assert invoke("gen", "wn", "1").output == "aa\n"

    def test_random_deterministic(self):
        args = ("gen", "random", "--len", "12", "--alphabet", "3", "--seed", "7")
        assert invoke(*args).output == invoke(*args).output

    def test_wn_is_palindrome_with_k_letters(self):
        for k in (1, 2, 5, 10):
            out = invoke("gen", "wn", str(k)).output.strip()
            assert len(out) == 2 * k
            assert out == out[::-1]
            assert len(set(out)) == k

    def test_usage_error_exit_code(self):
        assert invoke("gen").exit_code == 1
        assert invoke("gen", "wn").exit_code == 1


# a mode given a second mode, or another mode's option or words, or an
# option the CLI no longer has: refused before any word is generated, read
# or benchmarked
@pytest.mark.parametrize("args", [
    ["gen", "wn", "2", "random"],
    ["gen", "wn", "2", "--len", "5"],
    ["gen", "wn", "2", "--alphabet", "3"],
    ["gen", "wn", "2", "--seed", "0"],
    ["gen", "wn", "2", "--count", "3"],
    ["gen", "random", "--len", "3", "--alphabet", "2", "--n", "7"],
    ["bench", "--wn", "2", "abba"],
    ["bench", "--wn", "2", "--tokens"],
    ["bench", "--n-max", "3", "abba"],
    ["factorize", "abaaba", "--json"],
    ["oracle", "a", "--force"],
    ["bench", "--csv", "abba"],
], ids=["gen-both-modes", "gen-wn-len", "gen-wn-alphabet", "gen-wn-seed", "gen-wn-count",
        "gen-random-n", "bench-wn-words", "bench-wn-tokens", "bench-words-n-max",
        "factorize-json", "oracle-force", "bench-csv"])
def test_mode_mix_is_usage_error(args):
    res = invoke(*args, input="ab\n")
    assert res.exit_code == 1
    assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ["gen", "wn", "0"],
    ["gen", "random", "--len", "-1", "--alphabet", "2"],
    ["gen", "random", "--len", "3", "--alphabet", "0"],
    ["gen", "random", "--len", "3", "--alphabet", "2", "--count", "-2"],
    ["bench", "--wn", "0"],
    ["oracle", "ab", "--max-len", "-5"],
], ids=["n", "len", "alphabet", "count", "n-max", "max-len"])
def test_number_out_of_range_exit_code(args):
    res = run_cli(args, b"", {})
    assert res.returncode == 1
    assert b"Invalid value" in res.stderr
    assert b"Traceback" not in res.stderr
    assert res.stdout == b""


@pytest.mark.parametrize("args, message", [
    (["gen", "random", "--len", "3"], "Missing option '--alphabet'"),
    (["bench", "--wn"], "Option '--wn' requires an argument"),
], ids=["gen-random", "bench-wn"])
def test_missing_option_is_usage_error(args, message):
    # refused before any word is generated or any row is printed
    res = invoke(*args)
    assert res.exit_code == 1
    assert message in res.output
    assert res.stdout == ""


@pytest.mark.parametrize("group", [[], ["gen"]], ids=["morphprim", "gen"])
def test_short_helps_are_not_cut(group):
    # a command list shows each command's first sentence, which click cuts
    # with "..." where it does not fit; here as an 80-column terminal has it
    # (CliRunner would lay help out 80 columns wide, 2 more than that)
    res = run_cli([*group, "--help"], b"", {"COLUMNS": "80"})
    assert res.returncode == 0
    commands = res.stdout.decode().split("\nCommands:\n", 1)[1].splitlines()
    assert commands
    assert not [line for line in commands if line.endswith("...")]
