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

    The table is one state, (B_0..B_n, the row for n, L), that is never
    mutated. Reads are lock-free; an extension, serialized by a lock, sweeps
    a copy of the row and publishes a new state in one assignment, so a
    reader sees the old table or the new one. An exception at any point of
    an extension (Ctrl-C, MemoryError) leaves the old state, from which the
    next call goes on; the interrupted call keeps none of its own indices.
    """

    def __init__(self) -> None:
        self._state: tuple[tuple[Fraction, ...], list[int], int] = ((Fraction(1),), [1], 1)
        self._lock = threading.Lock()

    @property
    def high_water(self) -> int:
        """Largest index currently stored."""
        return len(self._state[0]) - 1

    def get(self, m: int) -> Fraction:
        """B_m, computing and caching every index up to m on first use."""
        if m < 0:
            raise ValueError("Bernoulli index must be >= 0")
        values = self._state[0]
        if m < len(values):
            return values[m]
        with self._lock:
            values, row, den = self._state
            row, new = [*row], []  # a list row: one copy per call, a tuple's two cost ~7%
            for n in range(len(values), m + 1):
                scale = lcm(den, n + 1) // den
                if scale > 1:
                    row = [a * scale for a in row]
                    den *= scale
                x = den // (n + 1)
                row.append(x)
                for j in range(n, 0, -1):
                    x = row[j - 1] = j * (row[j - 1] - x)
                value = Fraction(row[0], den)
                new.append(-value if n == 1 else value)
            values += tuple(new)
            self._state = values, row, den
            return values[m]


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
