"""Morphic primitivity testing and fixed-point morphism construction."""

from .engine import (
    EngineState,
    FactorizationResult,
    Morphism,
    expand_letter,
    find_violation,
    image,
    left_right_cut_check,
    run,
    verify,
)
from .forest import SyncForest
from .generate import palindrome_pair_word, random_word
from .oracle import (
    OracleResult,
    WordTooLongError,
    all_words,
    factorization_exists,
    is_primitive_oracle,
    min_expanding,
)
from .words import (
    Neighborhood,
    PosIndex,
    Word,
    build_index,
    intern_word,
    neighborhood,
)

__all__ = [
    "EngineState",
    "FactorizationResult",
    "Morphism",
    "Neighborhood",
    "OracleResult",
    "PosIndex",
    "SyncForest",
    "Word",
    "WordTooLongError",
    "all_words",
    "build_index",
    "expand_letter",
    "factorization_exists",
    "find_violation",
    "image",
    "intern_word",
    "is_primitive_oracle",
    "left_right_cut_check",
    "min_expanding",
    "neighborhood",
    "palindrome_pair_word",
    "random_word",
    "run",
    "verify",
]
