"""Dense univariate polynomials over exact rationals.

A polynomial is stored as integer numerators, low-to-high so index = degree,
over one positive denominator. Both fields are canonical: the numerators end
in a nonzero entry and gcd(denominator, *numerators) == 1, so the zero
polynomial is ((), 1) and equality is plain field comparison. All arithmetic
is exact. Every kernel, long division included, runs on the stored integers
and its result is reduced once, by the constructor.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .reports import Record


def _exact(value: object, message: str) -> Fraction | int:
    """`value` if it is an int or a Fraction (never a bool), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{message}, not {type(value).__name__}")
    return value


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer coefficients of the product of two coefficient lists, low-to-high."""
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * max(1, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] += x * y
    return out


def _horner(p: Polynomial, inner: Sequence[int], b: int) -> tuple[list[int], int]:
    """Numerators and denominator of p(inner / b), where p = A/a.

    Horner's rule builds b**K * a * p(inner / b) = sum(A_k * b**(K-k) * inner**k)
    on integers, K = deg p, over the denominator a * b**K.
    """
    acc, scale = list(p.numerators[-1:]) or [0], 1
    for c in reversed(p.numerators[:-1]):
        scale *= b
        acc = _convolve(acc, inner)
        acc[0] += c * scale
    return acc, p.denominator * scale


def _combine(terms: Iterable[tuple[int, int, Polynomial]]) -> Polynomial:
    """The sum of (a / b) * p over the (a, b, p) triples in `terms`, b > 0, on integers.

    Each pair is first reduced by gcd(a, b), so the common denominator is the
    lcm of the reduced b times p's denominator, and each p's numerators enter
    scaled by one integer.
    """
    kept = []
    for a, b, p in terms:
        if a and p.numerators:
            g = gcd(a, b)
            kept.append((a // g, b // g * p.denominator, p.numerators))
    den = lcm(*(b for _, b, _ in kept))
    out = [0] * max((len(nums) for _, _, nums in kept), default=0)
    for a, b, nums in kept:
        a *= den // b
        for i, x in enumerate(nums):
            out[i] += a * x
    return Polynomial(out, den)


class Polynomial(Record):
    """Immutable dense polynomial in one formal variable."""

    __slots__ = ("numerators", "denominator")

    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, numerators: Iterable[Fraction | int] = (), denominator: int = 1) -> None:
        """Coefficient k is numerators[k] / denominator; entries are ints or Fractions."""
        if type(denominator) is not int:
            raise TypeError(f"the denominator must be an int, not {type(denominator).__name__}")
        if denominator <= 0:
            raise ValueError("the denominator must be positive")
        nums = list(numerators)
        if not all(type(x) is int for x in nums):
            nums = [_exact(x, "coefficients must be exact rationals") for x in nums]
            scale = lcm(*(x.denominator for x in nums))
            nums = [x.numerator * (scale // x.denominator) for x in nums]
            denominator *= scale
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(denominator, *nums)
        if g > 1:
            nums = [x // g for x in nums]
            denominator //= g
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, low-to-high, built afresh on each read."""
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.numerators) - 1

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def combination(terms: Iterable[tuple[Fraction | int, Polynomial]]) -> Polynomial:
        """The sum of c * p over the (c, p) pairs in `terms`; each c is an int or a Fraction."""
        message = "scalars must be an int or Fraction"
        return _combine((_exact(c, message).numerator, c.denominator, p) for c, p in terms)

    def __add__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.combination(((1, self), (1, other)))

    __radd__ = __add__

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial.combination(((other, self),))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(
            _convolve(self.numerators, other.numerators), self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Long division over the rationals: self = q*other + r, deg r < deg other.

        Pseudo-division on integers: with self = A/a, other = B/b and L the lead
        of B, scaling A once by |L|**k, k the quotient's length, makes every
        step's division by L exact; then q = Q*b / (a*|L|**k), r = R / (a*|L|**k).
        """
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dd = other.degree
        nums, div = self.numerators, other.numerators
        quot = [0] * max(0, len(nums) - dd)
        scale = abs(div[-1]) ** len(quot)
        rem = [x * scale for x in nums]
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i]:
                f = quot[i - dd] = rem[i] // div[-1]
                for j, y in enumerate(div):
                    rem[i - dd + j] -= f * y
        den = self.denominator * scale
        return Polynomial([x * other.denominator for x in quot], den), Polynomial(rem[:dd], den)

    # -- evaluation and composition ------------------------------------------

    def __call__(self, x: Fraction | int) -> Fraction:
        """Evaluate by Horner's rule at an int or a Fraction, exactly."""
        _exact(x, "can only evaluate at an int or Fraction")
        nums, den = _horner(self, [x.numerator], x.denominator)
        return Fraction(nums[0], den)

    def compose(self, inner: Polynomial) -> Polynomial:
        """The polynomial self(inner(x)), by Horner over the polynomial ring."""
        if not isinstance(inner, Polynomial):
            raise TypeError(f"can only compose with a Polynomial, not {type(inner).__name__}")
        return Polynomial(*_horner(self, inner.numerators, inner.denominator))


#: The identity polynomial x, the usual building block.
X = Polynomial((0, 1))
