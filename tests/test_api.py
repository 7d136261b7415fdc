"""The package's public names, and the README's library example."""

from __future__ import annotations

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import morphprim

README = Path(__file__).resolve().parents[1] / "README.md"

CONTRACT = [
    "FactorizationResult",
    "Morphism",
    "OracleResult",
    "Word",
    "WordTooLongError",
    "all_words",
    "factorization_exists",
    "intern_word",
    "is_primitive_oracle",
    "min_expanding",
    "palindrome_pair_word",
    "random_word",
    "run",
    "verify",
]

# internals: imported from their modules, never through the package
INTERNALS = {
    "EngineState": "engine",
    "expand_letter": "engine",
    "find_violation": "engine",
    "image": "engine",
    "SyncForest": "forest",
    "Neighborhood": "words",
    "PosIndex": "words",
    "build_index": "words",
    "neighborhood": "words",
}


def test_package_exports_the_contract_only():
    assert sorted(morphprim.__all__) == CONTRACT
    public = {
        name for name, value in vars(morphprim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(CONTRACT)


@pytest.mark.parametrize("name, module", INTERNALS.items(), ids=list(INTERNALS))
def test_internal_name_is_imported_from_its_module(name, module):
    assert not hasattr(morphprim, name)
    assert hasattr(importlib.import_module(f"morphprim.{module}"), name)


def library_example() -> str:
    """The Python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_states_true_values():
    # a line `expression  # value ...` states the expression's value when
    # the comment starts with a Python literal
    block = library_example()
    namespace: dict = {}
    exec(block, namespace)
    stated = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        token = re.match(r"\s*([^\s:;]*)", comment).group(1)
        try:
            stated[code.strip()] = ast.literal_eval(token)
        except (ValueError, SyntaxError):
            continue
    assert stated == {
        "result.primitive": False,
        "result.round_count": 4,
        "verify(w, result.morphism)": True,
    }
    for code, value in stated.items():
        got = eval(code, namespace)
        assert (type(got), got) == (type(value), value), code
