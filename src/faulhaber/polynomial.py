"""Dense univariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` values stored low-to-high, so index =
degree. The zero polynomial is the empty coefficient tuple and every
constructor strips trailing zeros, which makes equality plain sequence
comparison. All arithmetic is exact; nothing here touches floating point.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm


def _coerce(value: Fraction | int | str) -> Fraction:
    """Exact values only: an int, a Fraction, or rational text such as "1/2"."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"coefficients must be exact rationals, not {type(value).__name__}")
    return Fraction(value)


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of `coeffs` over their least common denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class Polynomial:
    """Immutable dense polynomial in one formal variable."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

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
        """The sum of c * p over the (c, p) pairs in `terms`.

        Each p is taken as integer numerators over its common denominator d,
        so c * p = (c.numerator * numerators) / (c.denominator * d). The sum
        runs on integers over the lcm of those denominators, which is divided
        out once per output coefficient.
        """
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
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Polynomial(out)

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
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"can only evaluate at an int or Fraction, not {type(x).__name__}")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: Polynomial) -> Polynomial:
        """The polynomial self(inner(x)), by Horner over the polynomial ring.

        Horner runs on integers: with self = A/a and inner = B/b over their
        common denominators and K = deg self, it builds
        b**K * a * self(inner) = sum(A_k * b**(K-k) * B**k) and divides by
        a * b**K once per output coefficient.
        """
        if not self.coeffs:
            return self
        outer, a = _over_common_denominator(self.coeffs)
        inner_nums, b = _over_common_denominator(inner.coeffs)
        inner_terms = [(j, y) for j, y in enumerate(inner_nums) if y]
        acc = [outer[-1]]
        scale = 1
        for c in reversed(outer[:-1]):
            scale *= b
            out = [0] * max(1, len(acc) + len(inner_nums) - 1)
            for i, x in enumerate(acc):
                if x:
                    for j, y in inner_terms:
                        out[i + j] += x * y
            out[0] += c * scale
            acc = out
        den = a * scale
        return Polynomial(Fraction(x, den) for x in acc)

    # -- hashing, comparison, display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


#: The identity polynomial x, the usual building block.
X = Polynomial((0, 1))
