"""The library builds every tuple and every star-argument from a list.

CPython sizes a tuple built from an iterator with no length hint (a generator,
`map`, `zip`) at 10 slots and trims it by `realloc`, so each such call takes a
tuple from the size-10 free list and later frees one of the final size into
that size's list. Over thousands of calls every list of size 1-20 except 10
fills to its cap of 2000, about 4 MB of dead tuples that pin memory for the
life of the process. Built from a list, a tuple comes from and returns to the
free list of its own size.
"""

from __future__ import annotations

import ast
import gc
import sys
from pathlib import Path

import pytest

from faulhaber.bernoulli import bernoulli_number, bernoulli_polynomial
from faulhaber.powersum import powersum_monomial
from faulhaber.recurrence import verify_recurrence_consistency
from faulhaber.triangular import faulhaber_form

SRC = Path(__file__).parents[1] / "src" / "faulhaber"
HINTLESS = ("map", "zip", "filter")


def _hintless(node: ast.expr) -> bool:
    """A generator expression or a call of an iterator that has no length hint."""
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in HINTLESS
    )


def test_no_tuple_or_star_argument_is_built_from_a_hintless_iterator():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            to_tuple = isinstance(node.func, ast.Name) and node.func.id == "tuple"
            for arg in node.args:
                inner = arg.value if isinstance(arg, ast.Starred) else arg if to_tuple else None
                if inner is not None and _hintless(inner):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _workload() -> None:
    # no tuple here reaches 20 entries: CPython 3.11 frees size-20 tuples into
    # their free list but never takes one from it, whatever builds them
    for m in range(1, 9):
        p = powersum_monomial(m)
        assert p.coeffs == p.coeffs
        assert p == powersum_monomial(m)
        assert bernoulli_polynomial(m) == bernoulli_polynomial(m)
    for p in range(2, 9):
        assert faulhaber_form(p) == faulhaber_form(p)
    assert verify_recurrence_consistency(16) == verify_recurrence_consistency(16)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's tuple free lists")
def test_repeated_calls_leave_the_tuple_free_lists_near_empty():
    bernoulli_number(30)
    _workload()  # first-call caches, outside the count
    # a full collection empties the free lists; none may run while counting
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(20):
            _workload()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    # one full free list holds 2000 tuples; built from generators, this read 5496
    assert grown < 500
