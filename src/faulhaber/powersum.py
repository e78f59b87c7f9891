"""Power sums 1**m + 2**m + ... + n**m in the plain monomial basis.

Two polynomial constructions (Bernoulli-number coefficients, and a Bernoulli
polynomial difference), one deliberately dumb integer oracle, and the
telescoping identity that links consecutive exponents.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm

from .bernoulli import bernoulli_number, bernoulli_polynomial
from .polynomial import Polynomial, X
from .reports import CheckLine


def powersum_monomial(m: int) -> Polynomial:
    """Degree m+1 polynomial p with p(n) = sum(k**m for k in 1..n).

    Coefficient of n**(m+1-j) is (-1)**j * C(m+1, j) * B_j / (m+1). The
    alternating sign only ever flips the j = 1 term, because every other odd
    index contributes zero; the partial-sum recurrence route uses the
    unsigned convention instead, and the two must never be mixed.
    """
    if m < 0:
        raise ValueError("powersum_monomial requires m >= 0")
    bs = [bernoulli_number(j) for j in range(m + 1)]
    den = lcm(*(b.denominator for b in bs))
    nums = [0] * (m + 2)
    binom = 1  # C(m+1, j)
    for j, b in enumerate(bs):
        nums[m + 1 - j] = (-1) ** j * binom * b.numerator * (den // b.denominator)
        binom = binom * (m + 1 - j) // (j + 1)
    return Polynomial(nums, (m + 1) * den)


def powersum_via_bernoulli_poly(m: int) -> Polynomial:
    """Same sum as (B_(m+1)(x+1) - B_(m+1)) / (m+1), built by composition."""
    if m < 1:
        raise ValueError("powersum_via_bernoulli_poly requires m >= 1")
    shifted = bernoulli_polynomial(m + 1).compose(X + 1)
    scale = Fraction(1, m + 1)
    return Polynomial.combination(
        ((scale, shifted), (-scale * bernoulli_number(m + 1), Polynomial((1,))))
    )


def oracle_sum(m: int, n: int) -> int:
    """Brute force: add up k**m term by term with exact integers.

    Each power is Python's own integer `**`, so the sum still shares no code
    with the library's polynomial constructions.
    """
    if m < 0:
        raise ValueError("oracle_sum requires m >= 0")
    if n < 1:
        raise ValueError("oracle_sum requires n >= 1")
    return sum(k**m for k in range(1, n + 1))


def check_partial_sum_identity(m: int, n: int) -> CheckLine:
    """Check sum(k**(m+1)) + sum over k of sum(l**m, l<=k) == (n+1)*sum(k**m).

    The two full sums come from oracle_sum and the inner sums sum(l**m, l<=k)
    are running integer sums, so the check is linear in n and exercises the
    identity on raw integers rather than any polynomial machinery.
    """
    if m < 0:
        raise ValueError("exponent must be >= 0")
    if n < 1:
        raise ValueError("upper limit must be >= 1")
    left = oracle_sum(m + 1, n) + sum(accumulate(k**m for k in range(1, n + 1)))
    right = (n + 1) * oracle_sum(m, n)
    return CheckLine(f"partial-sum identity, m={m}, n={n}", left == right)
