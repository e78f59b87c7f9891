"""Bernoulli numbers and polynomials, exactly, in the B_1 = -1/2 convention.

Everything downstream (power sums, both Faulhaber routes, the recurrences)
pulls its Bernoulli values from here, so the convention is fixed in exactly
one place.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import lcm

from .polynomial import Polynomial
from .reports import CheckLine, VerificationReport


class BernoulliCache:
    """Growable memo table for Bernoulli numbers.

    Defined by B_0 = 1 together with sum(C(n+1, k) * B_k for k in 0..n) = 0
    for n >= 1, which pins B_1 = -1/2. Values are computed by that recurrence
    and nothing else; in particular the vanishing of the odd values is an
    observed consequence here, never an assumption.

    The recurrence runs on integers: next to the published Fractions the
    cache keeps every value's numerator over one common denominator, so each
    new index is one integer sum and one Fraction.

    Reads of already-published indices are lock-free (entries are immutable
    Fractions appended whole); extension is serialized so concurrent callers
    never observe a partially built table. An exception at any point of an
    extension (KeyboardInterrupt, MemoryError) leaves the table consistent:
    the numerators and their denominator are replaced together, as one
    attribute, and an index is published by appending its Fraction last.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        # (numerators, common denominator); numerators past len(_values) were
        # left by an interrupted extension and are dropped before the next one
        self._ints: tuple[list[int], int] = ([1], 1)
        self._lock = threading.Lock()

    @property
    def high_water(self) -> int:
        """Largest index currently stored."""
        return len(self._values) - 1

    def get(self, m: int) -> Fraction:
        """B_m, computing and caching every index up to m on first use."""
        if m < 0:
            raise ValueError("Bernoulli index must be >= 0")
        values = self._values
        if m < len(values):
            return values[m]
        with self._lock:
            while len(self._values) <= m:
                n = len(self._values)
                nums, den = self._ints
                del nums[n:]
                acc = 0
                binom = 1  # C(n+1, k)
                for k, num in enumerate(nums):
                    acc += binom * num
                    binom = binom * (n + 1 - k) // (k + 1)
                value = Fraction(-acc, (n + 1) * den)
                if den % value.denominator:
                    scale = lcm(den, value.denominator) // den
                    self._ints = nums, den = [num * scale for num in nums], den * scale
                nums.append(value.numerator * (den // value.denominator))
                self._values.append(value)
            return self._values[m]


_DEFAULT_CACHE = BernoulliCache()


def bernoulli_number(m: int) -> Fraction:
    """B_m in the B_1 = -1/2 convention."""
    return _DEFAULT_CACHE.get(m)


def bernoulli_polynomial(m: int) -> Polynomial:
    """B_m(x) = sum(C(m, j) * B_j * x**(m-j) for j in 0..m)."""
    if m < 0:
        raise ValueError("Bernoulli polynomial index must be >= 0")
    bs = [_DEFAULT_CACHE.get(j) for j in range(m + 1)]
    den = lcm(*(b.denominator for b in bs))
    nums = [0] * (m + 1)
    binom = 1  # C(m, j)
    for j, b in enumerate(bs):
        nums[m - j] = binom * b.numerator * (den // b.denominator)
        binom = binom * (m - j) // (j + 1)
    return Polynomial(nums, den)


def bernoulli_at_half(r: int) -> Fraction:
    """B_r(1/2) via the closed form (2**(1-r) - 1) * B_r.

    Equals bernoulli_polynomial(r) evaluated at 1/2; the two routes are
    cross-checked in the test suite.
    """
    if r < 0:
        raise ValueError("index must be >= 0")
    return (Fraction(2) ** (1 - r) - 1) * bernoulli_number(r)


def verify_odd_zero(max_m: int) -> VerificationReport:
    """Check B_(2m+1) == 0 for m = 1..max_m, values taken from the recurrence."""
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    lines = tuple(
        CheckLine(f"B_{2 * m + 1} = 0", bernoulli_number(2 * m + 1) == 0)
        for m in range(1, max_m + 1)
    )
    return VerificationReport(name="odd-bernoulli", lines=lines)
