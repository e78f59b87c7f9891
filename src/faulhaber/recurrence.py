"""Recurrences that regenerate the Bernoulli and power-sum polynomials.

Both take only lower-index polynomials plus plain Bernoulli numbers, so they
are independent reconstructions of objects the other modules build directly;
`verify_recurrence_consistency` pins the two routes together index by index.
Bernoulli numbers enter these recurrences unsigned. The alternating-sign
convention lives solely in powersum_monomial and must not leak in here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .bernoulli import bernoulli_number, bernoulli_polynomial
from .polynomial import Polynomial, X
from .powersum import powersum_monomial
from .reports import CheckLine, VerificationReport


def _he_ricci_table(m: int) -> list[Polynomial]:
    """B_0(x)..B_m(x), each built from the entries before it in one combination."""
    table: list[Polynomial] = [Polynomial((1,))]
    for i in range(1, m + 1):
        prev, scale = table[i - 1], Fraction(1, i)
        tail = [(-scale * comb(i, r) * bernoulli_number(i - r), table[r]) for r in range(i - 1)]
        # (x - 1/2) B_(i-1) minus the scaled tail
        table.append(Polynomial.combination([(1, X * prev), (Fraction(-1, 2), prev)] + tail))
    return table


def _partial_sum_table(m: int) -> list[Polynomial | None]:
    """None, then S_1(x)..S_m(x), each built from the entries before it in one combination."""
    half = Fraction(1, 2)
    table: list[Polynomial | None] = [None, Polynomial((0, half, half))]
    for i in range(2, m + 1):
        prev, scale = table[i - 1], Fraction(1, i + 1)
        lower = range(1, i - 1)
        # only B_2 .. B_(i-1) may enter; B_1's sign convention must stay out
        assert all(2 <= i - r <= i - 1 for r in lower)
        tail = [(-scale * comb(i, r) * bernoulli_number(i - r), table[r]) for r in lower]
        # (i (x + 1/2) S_(i-1) - sum) / (i + 1), with the tail already scaled
        table.append(Polynomial.combination([(i * scale, X * prev), (i * scale / 2, prev)] + tail))
    return table


def he_ricci_polynomial(m: int) -> Polynomial:
    """B_m(x) from B_0(x)..B_(m-1)(x):

        B_m(x) = (x - 1/2) B_(m-1)(x) - (1/m) sum(C(m, r) B_(m-r) B_r(x), r = 0..m-2)

    with an empty sum at m = 1. Must equal bernoulli_polynomial(m).
    """
    if m < 0:
        raise ValueError("index must be >= 0")
    return _he_ricci_table(m)[m]


def partial_sum_polynomial(m: int) -> Polynomial:
    """The power-sum polynomial for exponent m from exponents below it:

        S_m(x) = (m (x + 1/2) S_(m-1)(x) - sum(C(m, r) B_(m-r) S_r(x), r = 1..m-2)) / (m+1)

    with base S_1(x) = x^2/2 + x/2 and an empty sum at m = 2. Must equal
    powersum_monomial(m).
    """
    if m < 2:
        raise ValueError("the recurrence starts at m = 2")
    return _partial_sum_table(m)[m]


def verify_recurrence_consistency(max_m: int) -> VerificationReport:
    """Check both recurrences for every index up to max_m.

    Each table is built once. Index m passes when the Bernoulli recurrence
    gives bernoulli_polynomial(m) and (for m >= 2) the power-sum recurrence
    gives powersum_monomial(m).
    """
    if max_m < 2:
        raise ValueError("max_m must be >= 2")
    bernoulli_table = _he_ricci_table(max_m)
    sum_table = _partial_sum_table(max_m)
    lines = []
    for m in range(1, max_m + 1):
        ok = bernoulli_table[m] == bernoulli_polynomial(m)
        if m >= 2:
            ok = ok and sum_table[m] == powersum_monomial(m)
        lines.append(CheckLine(f"recurrences agree at index {m}", ok))
    return VerificationReport(name="recurrence", lines=tuple(lines))
