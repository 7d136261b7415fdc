"""Tests of the benchmark's generators, checkers and traced replica.

They run on the smoke sizes, so they take well under a second:

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

import morphprim.cli  # noqa: E402
from morphprim import engine, oracle, words  # noqa: E402

MP = SimpleNamespace(words=words, engine=engine, oracle=oracle, cli=morphprim.cli)


def smoke(name: str, seed: int = 7):
    inputs = workloads.GENERATORS[name](seed, workloads.SMOKE)
    return inputs, bench.expectations(name, MP, inputs)


def failures(inputs, expects, results) -> int:
    tally = bench.Tally(inputs, expects)
    tally.results(results)
    assert tally.attempted == len(inputs.texts)
    return tally.failed


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_smoke_workload_passes_every_check(name):
    inputs, expects = smoke(name)
    results = bench.library_pass(MP, inputs)
    assert failures(inputs, expects, results) == 0
    with layers.cli_calls(MP.cli) as calls:
        output = bench.cli_pass(MP, bench.stdin_bytes(inputs))
    assert MP.cli.run is engine.run
    assert checks.cli_failures(inputs.texts, output, expects) == 0
    assert len(calls.results) == len(inputs.texts) and calls.seconds > 0
    assert failures(inputs, expects, calls.results) == 0
    spans = layers.Spans()
    replicas = [layers.traced_run(MP, text, spans) for text in inputs.texts]
    assert all(layers.agreement(r, res) == [] for r, res in zip(replicas, results))
    assert failures(inputs, expects, replicas) == 0
    assert all(spans.total[counter] > 0 for counter in layers.COUNTS)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_depend_only_on_the_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(3, workloads.SMOKE) == gen(3, workloads.SMOKE)
    assert gen(3, workloads.SMOKE).texts != gen(4, workloads.SMOKE).texts


def test_planted_word_is_fixed_by_its_planted_morphism():
    inputs = workloads.planted(11, workloads.SMOKE)
    (text,) = inputs.texts
    images = inputs.planted_images
    assert len(set(text)) == workloads.PLANTED_ALPHABET == len(images)
    assert checks.apply(images, text) == text
    kept = [c for c, img in images.items() if img]
    assert len(kept) == workloads.PLANTED_EXPANDING
    assert all(images[c].count(c) == 1 for c in kept)


def test_neighbour_criterion_never_certifies_an_imprimitive_word():
    certified = 0
    for w in oracle.all_words(8, 3):
        text = w.render()
        if checks.neighbours_certify_primitive(text):
            certified += 1
            assert oracle.is_primitive_oracle(w), text
    assert certified > 0
    assert checks.neighbours_certify_primitive("abba")
    assert not checks.neighbours_certify_primitive("abaaba")


def _with_images(result, images):
    morphism = engine.Morphism(expanding=result.morphism.expanding, images=images)
    return dataclasses.replace(result, morphism=morphism)


def test_mutated_image_counts_as_failure():
    inputs, expects = smoke("planted")
    (result,) = bench.library_pass(MP, inputs)
    a = min(result.expanding)
    images = list(result.morphism.images)
    images[a] = images[a][1:] + images[a][:1]
    assert failures(inputs, expects, [_with_images(result, tuple(images))]) == 1


def test_wrong_verdict_counts_as_failure():
    for name in ("planted", "random4"):
        inputs, expects = smoke(name)
        (result,) = bench.library_pass(MP, inputs)
        flipped = dataclasses.replace(result, primitive=not result.primitive)
        assert failures(inputs, expects, [flipped]) == 1
    inputs, expects = smoke("stream")
    output = bench.cli_pass(MP, bench.stdin_bytes(inputs))
    lines = output.splitlines()
    word, verdict = lines[0].split("\t")
    lines[0] = word + ("\timprimitive" if verdict == "primitive" else "\tprimitive")
    assert checks.cli_failures(inputs.texts, "\n".join(lines) + "\n", expects) == 1
    assert checks.cli_failures(inputs.texts, "\n".join(lines[1:]) + "\n", expects) == len(lines)


def test_dropped_cut_counts_as_failure():
    inputs, expects = smoke("planted")
    (result,) = bench.library_pass(MP, inputs)
    first = result.morphism.images.index(next(img for img in result.morphism.images if img))
    k = result.word.letters.index(first)  # cut before the first kept occurrence
    drops = {
        "left_cuts": tuple(c for c in result.left_cuts if c != k),
        "right_cuts": tuple(c for c in result.right_cuts if c != k + 1),
        "factor_cuts": result.factor_cuts[:1] + result.factor_cuts[2:],
    }
    for field, cuts in drops.items():
        assert failures(inputs, expects, [dataclasses.replace(result, **{field: cuts})]) == 1, field


def test_replica_disagreement_is_reported():
    inputs, _ = smoke("wn")
    (result,) = bench.library_pass(MP, inputs)
    replica = layers.traced_run(MP, inputs.texts[0], layers.Spans())
    assert layers.agreement(replica, result) == []
    drifted = replica._replace(counters=(replica.counters[0] + 1,) + replica.counters[1:])
    assert layers.agreement(drifted, result) == ["counters"]
