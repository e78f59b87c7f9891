"""Bernoulli numbers, Bernoulli polynomials and power sums against sympy.

sympy computes them with code this library shares nothing with, so any
agreement here is independent evidence. The tests skip where sympy is not
installed; the library itself never imports it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faulhaber.bernoulli import bernoulli_number, bernoulli_polynomial
from faulhaber.powersum import powersum_monomial

sympy = pytest.importorskip("sympy")

x, k, n = sympy.symbols("x k n")


def exact(value) -> Fraction:
    """A sympy rational as a Fraction, read through its integer parts."""
    return Fraction(int(value.p), int(value.q))


def coefficients(expr, var) -> tuple[Fraction, ...]:
    """expr as a polynomial in var, constant coefficient first."""
    return tuple(exact(c) for c in reversed(sympy.Poly(expr, var).all_coeffs()))


def sympy_bernoulli_number(m: int) -> Fraction:
    """sympy's B_m in this library's convention.

    sympy takes B_1 = +1/2 and this library B_1 = -1/2; the two conventions
    agree at every other index, and their polynomials B_m(x) agree everywhere.
    """
    value = exact(sympy.bernoulli(m))
    return -value if m == 1 else value


@given(st.integers(min_value=0, max_value=400))
@example(0)
@example(1)
@example(2)
@example(400)
@example(1000)
@example(1001)
@settings(max_examples=20, deadline=None)
def test_bernoulli_numbers_match_sympy(m):
    assert bernoulli_number(m) == sympy_bernoulli_number(m)


@given(st.integers(min_value=0, max_value=200))
@example(0)
@example(1)
@example(2)
@example(200)
@settings(max_examples=8, deadline=None)
def test_bernoulli_polynomials_match_sympy(m):
    assert bernoulli_polynomial(m).coeffs == coefficients(sympy.bernoulli(m, x), x)


@given(st.integers(min_value=0, max_value=60))
@example(0)
@example(1)
@example(2)
@example(60)
@settings(max_examples=8, deadline=None)
def test_power_sums_match_sympy(m):
    assert powersum_monomial(m).coeffs == coefficients(sympy.summation(k**m, (k, 1, n)), n)
