from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from click.testing import CliRunner

from morphprim.cli import cli

from conftest import EXAMPLE_WORD


def invoke(*args, input=None):
    return CliRunner().invoke(cli, list(args), input=input)


# stdin decodings to run the CLI under: as the environment has it, the C
# locale's surrogate escapes, and strict UTF-8
STDIN_ENVS = [{}, {"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:strict"}]


def run_cli(args, stdin: bytes, env: dict[str, str]):
    """Run ``morphprim`` in a real subprocess, whose stdin decodes like a
    terminal's (CliRunner decodes its input strictly)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run(
        [sys.executable, "-m", "morphprim.cli", *args],
        input=stdin, capture_output=True, env=env, timeout=60,
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


class TestCheck:
    def test_args(self):
        res = invoke("check", "abaaba", "abba")
        assert res.exit_code == 0
        assert res.output.splitlines() == [
            "abaaba\timprimitive",
            "abba\tprimitive",
        ]

    def test_stdin(self):
        res = invoke("check", input="abaaba\nabba\n")
        assert res.exit_code == 0
        assert res.output.splitlines() == [
            "abaaba\timprimitive",
            "abba\tprimitive",
        ]

    def test_empty_word_is_primitive(self):
        res = invoke("check", input="\n")
        assert res.exit_code == 0
        assert res.output.splitlines() == ["\tprimitive"]

    def test_tokens_mode(self):
        res = invoke("check", "--tokens", "foo bar foo foo bar foo")
        assert res.exit_code == 0
        assert res.output.strip().endswith("imprimitive")

    def test_stdin_read_error_exit_code(self):
        res = invoke("check", input=FailingAfter(b""))
        assert res.exit_code == 3
        assert "cannot read input" in res.output

    @pytest.mark.parametrize("env", STDIN_ENVS)
    def test_malformed_utf8_stdin_exit_code(self, env):
        res = run_cli(["check"], b"ab\xffa\n", env)
        assert res.returncode == 3
        assert res.stdout == b""
        assert b"cannot read input" in res.stderr

    def test_utf8_stdin_is_accepted(self):
        res = run_cli(["check"], "aéa\n".encode(), {"LC_ALL": "C"})
        assert res.returncode == 0
        assert res.stdout == "aéa\timprimitive\n".encode()

    @pytest.mark.parametrize("env", STDIN_ENVS)
    def test_crlf_stdin_lines(self, env):
        # the \r of a CRLF line end is not part of the word
        res = run_cli(["check"], b"aa\r\nabba\r\nabaaba", env)
        assert res.returncode == 0
        assert res.stdout == b"aa\tprimitive\nabba\tprimitive\nabaaba\timprimitive\n"

    def test_stdin_is_read_lazily(self):
        # the first word is decided before the failing second read
        res = invoke("check", input=FailingAfter(b"abaaba\n"))
        assert res.exit_code == 3
        assert res.output.splitlines()[0] == "abaaba\timprimitive"


# every command that takes words as arguments, given one with an
# undecodable byte, which sys.argv decodes to a lone surrogate
@pytest.mark.parametrize("env", STDIN_ENVS)
@pytest.mark.parametrize("command", ["check", "factorize", "trace", "oracle"])
def test_malformed_utf8_argument_exit_code(command, env):
    res = run_cli([command, b"ab\xffa"], b"", env)
    assert res.returncode == 3
    assert res.stdout == b""
    assert res.stderr.startswith(b"error: cannot read input: ")


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

    def test_json(self):
        res = invoke("factorize", "abaaba", "--json")
        doc = json.loads(res.output)
        assert doc["primitive"] is False
        assert doc["images"] == {"a": "", "b": "aba"}
        assert doc["expanding"] == ["b"]
        assert doc["factor_cuts"] == [0, 3, 6]


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
        assert invoke("oracle", "a" * 17, "--force").exit_code == 0

    def test_force_search_deeper_than_recursion_limit(self):
        # {a} is tried first, with 1 200 blocks in a row before it fails
        word = "ab" * 1200 + "c"
        res = invoke("oracle", "--force", word)
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
        assert invoke("gen", "--family", "wn", "--n", "3").output == "abccba\n"
        assert invoke("gen", "--family", "wn", "--n", "1").output == "aa\n"

    def test_random_deterministic(self):
        args = ("gen", "--random", "--len", "12", "--alphabet", "3", "--seed", "7")
        assert invoke(*args).output == invoke(*args).output

    def test_wn_is_palindrome_with_k_letters(self):
        for k in (1, 2, 5, 10):
            out = invoke("gen", "--family", "wn", "--n", str(k)).output.strip()
            assert len(out) == 2 * k
            assert out == out[::-1]
            assert len(set(out)) == k

    def test_usage_error_exit_code(self):
        assert invoke("gen").exit_code == 1
        assert invoke("gen", "--family", "wn").exit_code == 1

    def test_both_modes_is_usage_error(self):
        res = invoke("gen", "--family", "wn", "--n", "2", "--random")
        assert res.exit_code == 1
        assert "choose one of --family wn and --random" in res.output

    @pytest.mark.parametrize("args, stray", [
        (["--family", "wn", "--n", "2", "--len", "5"], "--len"),
        (["--family", "wn", "--n", "2", "--alphabet", "3"], "--alphabet"),
        (["--family", "wn", "--n", "2", "--seed", "0"], "--seed"),
        (["--random", "--len", "3", "--alphabet", "2", "--n", "7"], "--n"),
    ], ids=["family-len", "family-alphabet", "family-seed", "random-n"])
    def test_option_of_the_other_mode_is_usage_error(self, args, stray):
        res = invoke("gen", *args)
        assert res.exit_code == 1
        assert f"does not take {stray}" in res.output


@pytest.mark.parametrize("args", [
    ["gen", "--family", "wn", "--n", "0"],
    ["gen", "--random", "--len", "-1", "--alphabet", "2"],
    ["gen", "--random", "--len", "3", "--alphabet", "0"],
    ["gen", "--random", "--len", "3", "--alphabet", "2", "--count", "-2"],
    ["bench", "--family", "wn", "--n-max", "0"],
    ["oracle", "ab", "--max-len", "-5"],
], ids=["n", "len", "alphabet", "count", "n-max", "max-len"])
def test_number_out_of_range_exit_code(args):
    res = run_cli(args, b"", {})
    assert res.returncode == 1
    assert b"Invalid value" in res.stderr
    assert b"Traceback" not in res.stderr
    assert res.stdout == b""


@pytest.mark.parametrize("args, message", [
    (["gen", "--random", "--len", "3"], "--random requires --len and --alphabet"),
    (["bench"], "choose --family wn or --file"),
    (["bench", "--family", "wn"], "--family wn requires --n-max"),
], ids=["gen-random", "bench", "bench-wn"])
def test_missing_option_is_usage_error(args, message):
    # refused before any word is generated or any row is printed
    res = invoke(*args)
    assert res.exit_code == 1
    assert message in res.output
    assert res.output.startswith("Usage:")


class TestBench:
    def test_wn_family_csv(self):
        res = invoke("bench", "--family", "wn", "--n-max", "4", "--csv")
        lines = res.output.splitlines()
        assert lines[0] == "n,m,expanding,rounds,scanned,visits,edges,cells,ns"
        for k, line in enumerate(lines[1:], start=1):
            n, m, e, rounds = map(int, line.split(",")[:4])
            assert (n, m) == (2 * k, k)
            assert rounds == e == k  # primitive family: one round per letter
        # aa: run()'s counters scanned, visits, edges, cells, one per column;
        # round 1 reads its one letter from the index, the last check reads
        # nothing once every letter expands, and each of the two edges
        # points one lone cut at a new root
        assert lines[1].split(",")[4:8] == ["1", "1", "2", "2"]

    def test_file_input_with_empty_word(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("abaaba\n\n")
        res = invoke("bench", "--file", str(path), "--csv")
        rows = [line.split(",") for line in res.output.splitlines()[1:]]
        assert rows[0][3] == "1"  # abaaba: one round
        assert rows[1][:4] == ["0", "0", "0", "0"]  # empty word: zero rounds

    def test_stdin_input(self):
        res = invoke("bench", "--file", "-", "--csv", input="abba\n")
        assert res.exit_code == 0
        assert len(res.output.splitlines()) == 2

    def test_crlf_file_and_stdin_give_the_same_rows(self, tmp_path):
        # a CRLF file gives the rows of its LF form, read from a path or
        # from stdin; a lone \r inside a line is part of its word on both
        path = tmp_path / "words.txt"
        data = b"abaaba\r\nab\rba\r\n\r\nabba"
        path.write_bytes(data)

        def rows(args, stdin=b""):
            res = run_cli(["bench", *args, "--csv"], stdin, {})
            assert res.returncode == 0
            return [line.split(b",")[:-1] for line in res.stdout.splitlines()]

        from_path = rows(["--file", str(path)])
        assert from_path == rows(["--file", "-"], data)
        assert from_path == rows(["--file", "-"], data.replace(b"\r\n", b"\n"))
        assert [row[0] for row in from_path[1:]] == [b"6", b"5", b"0", b"4"]

    def test_table_matches_csv(self):
        args = ("bench", "--family", "wn", "--n-max", "3")
        table = [line.split("\t") for line in invoke(*args).output.splitlines()]
        csv = [line.split(",") for line in invoke(*args, "--csv").output.splitlines()]
        assert table[0] == csv[0]
        # every column but the wall time
        assert [row[:-1] for row in table] == [row[:-1] for row in csv]

    def test_missing_file_exit_code(self):
        res = invoke("bench", "--file", "/nonexistent/words.txt")
        assert res.exit_code == 3

    def test_both_modes_is_usage_error(self):
        # refused before the file is opened or any row is printed
        res = invoke("bench", "--family", "wn", "--n-max", "2", "--file", "/nonexistent")
        assert res.exit_code == 1
        assert "choose one of --family wn and --file" in res.output
        assert "n\tm" not in res.output

    @pytest.mark.parametrize("args, stray", [
        (["--file", "-", "--n-max", "4"], "--n-max"),
        (["--family", "wn", "--n-max", "2", "--tokens"], "--tokens"),
    ], ids=["file-n-max", "family-tokens"])
    def test_option_of_the_other_mode_is_usage_error(self, args, stray):
        # refused before any word is read or any row is printed
        res = invoke("bench", *args, input="ab\n")
        assert res.exit_code == 1
        assert f"does not take {stray}" in res.output
        assert "n\tm" not in res.output

    @pytest.mark.parametrize("env", STDIN_ENVS)
    def test_malformed_utf8_stdin_exit_code(self, env):
        res = run_cli(["bench", "--file", "-"], b"ab\xffa\n", env)
        assert res.returncode == 3
        assert b"cannot read input" in res.stderr

    def test_stdin_is_read_lazily(self):
        # the header and the first word's row are printed before the failing
        # second read
        res = invoke("bench", "--file", "-", "--csv", input=FailingAfter(b"abaaba\n"))
        assert res.exit_code == 3
        lines = res.output.splitlines()
        assert lines[0] == "n,m,expanding,rounds,scanned,visits,edges,cells,ns"
        assert lines[1].split(",")[:4] == ["6", "2", "1", "1"]
        assert "cannot read input: device gone" in lines[2]

    def test_malformed_utf8_file_exit_code(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"ab\xffa\n")
        res = invoke("bench", "--file", str(path))
        assert res.exit_code == 3
        assert "cannot read input" in res.output
