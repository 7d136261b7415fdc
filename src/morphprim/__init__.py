"""Morphic primitivity testing and fixed-point morphism construction.

The package exports the library contract: ``run`` and ``verify`` with
their types, word interning, the brute-force oracle and the two word
generators.  The engine's state and steps, the forest and the occurrence
index are internals, imported from ``morphprim.engine``,
``morphprim.forest`` and ``morphprim.words``.
"""

from .engine import FactorizationResult, run, verify
from .generate import palindrome_pair_word, random_word
from .oracle import (
    OracleResult,
    WordTooLongError,
    all_words,
    factorization_exists,
    is_primitive_oracle,
    min_expanding,
)
from .words import Morphism, Word, intern_word

__all__ = [
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
