"""The kernel registry datatype."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..frontend import compile_source
from ..ir import Function, function_to_text


@dataclass(frozen=True)
class Kernel:
    """One benchmark routine.

    Mirrors the paper's test-suite rows: a *program* grouping (the paper
    groups routines under rkf45, doduc, fpppp, …) and a routine *name*.
    ``args`` are the default arguments used by the measurement harness.
    """

    name: str
    program: str
    source: str
    args: tuple
    description: str

    def compile(self) -> Function:
        """Lower the kernel to ILOC (fresh function each call)."""
        return _compile_cached(self.source).clone()

    def ir_text(self) -> str:
        """The kernel's ILOC text, ``function_to_text(self.compile())``
        printed once per process — what every engine request for the
        kernel carries."""
        return _text_cached(self.source)


@lru_cache(maxsize=None)
def _compile_cached(source: str) -> Function:
    return compile_source(source)


@lru_cache(maxsize=None)
def _text_cached(source: str) -> str:
    return function_to_text(_compile_cached(source).clone())
