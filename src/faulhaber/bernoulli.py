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

    Filled by the Akiyama-Tanigawa triangle (M. Kaneko, J. Integer Sequences
    3 (2000), 00.2.9): for each new index n, append 1/(n+1) to one row, set
    a[j-1] = j*(a[j-1] - a[j]) for j = n..1 and read B_n = a[0], flipping
    B_1 to -1/2. The row is kept as integers over L = lcm(1..n+1). Every
    index is computed, odd ones included, and parity is never used, so the
    vanishing of the odd values is an observed consequence here, never an
    assumption; the defining recurrence is the tests' oracle.

    Reads of already-published indices are lock-free (entries are immutable
    Fractions appended whole); extension is serialized so concurrent callers
    never observe a partially built table. An exception at any point of an
    extension (KeyboardInterrupt, MemoryError) leaves the table consistent:
    each row is built out of place and stored with L as one attribute, and
    an index is published by appending its Fraction last.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        # (row numerators, L); after an interrupted extension the row is one
        # index ahead of _values, and the next call publishes its a[0]
        self._row: tuple[list[int], int] = ([1], 1)
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
                row, den = self._row
                if len(row) == n:
                    scale = lcm(den, n + 1) // den
                    row = [a * scale for a in row] if scale > 1 else row.copy()
                    den *= scale
                    x = den // (n + 1)
                    row.append(x)
                    for j in range(n, 0, -1):
                        x = row[j - 1] = j * (row[j - 1] - x)
                    self._row = row, den
                value = Fraction(row[0], den)
                self._values.append(-value if n == 1 else value)
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
    """Check B_(2m+1) == 0 for m = 1..max_m, values taken from the triangle."""
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    lines = tuple(
        CheckLine(f"B_{2 * m + 1} = 0", bernoulli_number(2 * m + 1) == 0)
        for m in range(1, max_m + 1)
    )
    return VerificationReport(name="odd-bernoulli", lines=lines)
