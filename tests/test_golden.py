"""Golden digest: the engine's outputs on a fixed corpus must not change.

``tests/digest.py`` prints three SHA-256s over its corpus: the *outputs*
hash (verdicts, images, cut sets, factor cuts, every round's letter,
neighborhood and cuts, and the counters ``visits``, ``edges`` and
``loop_checks``), the *work* hash (``scanned`` and ``cells``, per round and
per run) and the hash of the ``trace`` command's JSON.  A refactor leaves
all three as they are.  A change that is meant to alter the outputs or the
traces must say why and update ``OUTPUTS`` or ``TRACES``; one that changes
how the engine does its work, and so ``scanned`` or ``cells``, must say why
and update ``WORK``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import morphprim

import digest

OUTPUTS = "3daf781abe1f1747b9e206bba221ac49f0cbd66afcc63ca3ebbceb7c6184ec0b"
WORK = "f9f0366538c7160f1602b70f85f61a7572e7523ce6dd6a0d8f6f0dff0300e4de"
TRACES = "b14108fc637b676c96cebf4562d2d892f0c06b60d16a673882ccf453850dccc4"


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """Run ``tests/digest.py --dump`` once; return its printed lines and the
    lines of its dump."""
    src = Path(morphprim.__file__).resolve().parents[1]
    dump = tmp_path_factory.mktemp("digest") / "digest.txt"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert digest.main(["--src", str(src), "--dump", str(dump)]) == 0
    return out.getvalue().splitlines(), dump.read_text(encoding="ascii").splitlines()


def test_golden_digest(digest_run):
    printed, _ = digest_run
    assert printed == [
        f"7976 words outputs sha256 {OUTPUTS}",
        f"7976 words work sha256 {WORK}",
        f"326 traces sha256 {TRACES}",
    ]


def test_digest_dump_names_each_corpus_word(digest_run):
    # --dump writes one line per corpus word: its index and the SHA-256s of
    # its outputs and of its work
    printed, lines = digest_run
    assert [line.split()[0] for line in lines] == [str(i) for i in range(int(printed[0].split()[0]))]
    first = next(digest.corpus(morphprim))
    want = [hashlib.sha256(repr(part).encode()).hexdigest() for part in digest.outputs_and_work(morphprim, first)]
    assert lines[0].split()[1:] == want
