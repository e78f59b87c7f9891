"""Dense univariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` values stored low-to-high, so index =
degree. The zero polynomial is the empty coefficient tuple and every
constructor strips trailing zeros, which makes equality plain sequence
comparison. All arithmetic is exact. Every kernel but long division reads
its operands as integer numerators over a common denominator, runs on
integers, and divides that denominator out once per output coefficient.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

from .reports import Record


def _exact(value: object, message: str) -> Fraction | int:
    """`value` if it is an int or a Fraction (never a bool), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{message}, not {type(value).__name__}")
    return value


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of `coeffs` over their least common denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer coefficients of the product of two coefficient lists, low-to-high."""
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * max(1, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] += x * y
    return out


def _horner(coeffs: Sequence[Fraction], inner: list[int], b: int) -> list[Fraction]:
    """Coefficients of p(inner / b), where p = A/a has coefficients `coeffs`.

    Horner's rule builds b**K * a * p(inner / b) = sum(A_k * b**(K-k) * inner**k)
    on integers, K = deg p, and divides by a * b**K once per output coefficient.
    """
    nums, a = _over_common_denominator(coeffs)
    acc, scale = nums[-1:] or [0], 1
    for c in reversed(nums[:-1]):
        scale *= b
        acc = _convolve(acc, inner)
        acc[0] += c * scale
    den = a * scale
    return [Fraction(x, den) for x in acc]


class Polynomial(Record):
    """Immutable dense polynomial in one formal variable."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        message = "coefficients must be exact rationals"
        cs = [c if isinstance(c, Fraction) else Fraction(_exact(c, message)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k; zero beyond the stored degree."""
        if k < 0:
            raise ValueError("coefficient index must be >= 0")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def combination(terms: Iterable[tuple[Fraction | int, Polynomial]]) -> Polynomial:
        """The sum of c * p over the (c, p) pairs in `terms`; each c is an int or a Fraction."""
        terms = [(_exact(c, "scalars must be an int or Fraction"), p) for c, p in terms]
        scaled = [(c, *_over_common_denominator(p.coeffs)) for c, p in terms if c and p.coeffs]
        den = lcm(*(c.denominator * d for c, _, d in scaled))
        out = [0] * max((len(nums) for _, nums, _ in scaled), default=0)
        for c, nums, d in scaled:
            a = c.numerator * (den // (c.denominator * d))
            for i, x in enumerate(nums):
                out[i] += a * x
        return Polynomial(Fraction(x, den) for x in out)

    def __add__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial.combination(((-1, self),))

    def __sub__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.combination(((1, self), (-1, other)))

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial.combination(((other, self),))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, da = _over_common_denominator(self.coeffs)
        b, db = _over_common_denominator(other.coeffs)
        den = da * db
        return Polynomial(Fraction(x, den) for x in _convolve(a, b))

    __rmul__ = __mul__

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Long division over the rationals: self = q*other + r, deg r < deg other."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dd = other.degree
        lead = other.coeffs[-1]
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                f = c / lead
                quot[i - dd] = f
                for j, b in enumerate(other.coeffs):
                    rem[i - dd + j] -= f * b
        return Polynomial(quot), Polynomial(rem[:dd])

    # -- evaluation and composition ------------------------------------------

    def __call__(self, x: Fraction | int) -> Fraction:
        """Evaluate by Horner's rule at an int or a Fraction, exactly."""
        _exact(x, "can only evaluate at an int or Fraction")
        return _horner(self.coeffs, [x.numerator], x.denominator)[0]

    def compose(self, inner: Polynomial) -> Polynomial:
        """The polynomial self(inner(x)), by Horner over the polynomial ring."""
        return Polynomial(_horner(self.coeffs, *_over_common_denominator(inner.coeffs)))


#: The identity polynomial x, the usual building block.
X = Polynomial((0, 1))
