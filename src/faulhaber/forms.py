"""What a power-sum form is: the parity table, its multipliers and both form types.

An even power sum is a polynomial in u = n(n+1)/2 times sum(k^2), an odd one
a polynomial in u times (sum k)^2; `BY_PARITY` holds that split once, with each
multiplier in n. Only data and shape checks live here: the routes that build
forms live in `triangular` and `shifted`, which derives the basis in N = n + 1/2.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .polynomial import Polynomial
from .reports import Record


class ConsistencyError(RuntimeError):
    """An internal identity that must hold exactly failed to.

    Raised when a power sum is not its multiplier times a polynomial in u,
    or an inductive step leaves a stray linear-sum term; either means the
    implementation (not the input) is wrong, so computation aborts.
    """


class Multiplier(Enum):
    """The quadratic/quartic factor carried by a triangular-basis form."""

    SUM_OF_SQUARES = "Sum(k^2)"
    SQUARE_OF_SUM = "Sum(k)^2"


#: u as a polynomial in n: n(n+1)/2. Also equals sum(k for k in 1..n).
U_OF_N = Polynomial((0, Fraction(1, 2), Fraction(1, 2)))

#: sum(k^2 for k in 1..n) = n(n+1)(2n+1)/6.
SUM_OF_SQUARES_OF_N = Polynomial((0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))

#: (sum k)^2, the odd-exponent multiplier.
SQUARE_OF_SUM_OF_N = U_OF_N * U_OF_N

#: power % 2 -> (parity, multiplier, its LaTeX text, the multiplier in n)
BY_PARITY = (
    ("even", Multiplier.SUM_OF_SQUARES, r"\cdot\sum k^{2}", SUM_OF_SQUARES_OF_N),
    ("odd", Multiplier.SQUARE_OF_SUM, r"\cdot\left(\sum k\right)^{2}", SQUARE_OF_SUM_OF_N),
)


class _Form(Record):
    """A power sum held as one `Polynomial`, in the shape its class states.

    `_shape` is (kind, least power, degree as a function of the power, step
    between the exponents present, from the degree down). Any other power,
    degree or exponent raises ValueError; a non-`Polynomial` raises TypeError.
    """

    __slots__ = ()

    def __init__(self, power: int, polynomial: Polynomial) -> None:
        kind, least, degree_of, step = self._shape
        if type(power) is not int or power < least:
            raise ValueError(f"{kind} forms require an int power >= {least}")
        if not isinstance(polynomial, Polynomial):
            raise TypeError(f"a {kind} form holds a Polynomial, not {type(polynomial).__name__}")
        degree = degree_of(power)
        if polynomial.degree != degree:
            raise ValueError(
                f"{kind} form for power {power} has degree {polynomial.degree}, expected {degree}"
            )
        for k in range(degree - 1, -1, -1):  # only a form in N skips exponents
            if (degree - k) % step and polynomial.numerators[k]:
                raise ValueError(f"{kind} form for power {power} has a stray N^{k} term")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "polynomial", polynomial)

    @classmethod
    def from_route(cls, power: int, polynomial: Polynomial) -> _Form:
        """cls(power, polynomial) for a route: a wrong shape is the route's fault, a ConsistencyError."""
        try:
            return cls(power, polynomial)
        except ValueError as exc:
            raise ConsistencyError(str(exc)) from exc

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients of the present powers, highest first, built afresh on each read."""
        return self.polynomial.coeffs[::-self._shape[3]]

    @property
    def parity(self) -> str:
        """The power's parity, "even" or "odd"."""
        return BY_PARITY[self.power % 2][0]


class FaulhaberForm(_Form):
    """One power sum written as a polynomial in u times a fixed multiplier.

    `polynomial` is the factor in u, of degree power // 2 - 1; the power's
    parity decides the multiplier. `coefficients` reads it in the paper's
    order, highest u-power first, so the last entry is the constant term.
    """

    __slots__ = ("power", "polynomial")
    _shape = ("triangular", 2, lambda power: power // 2 - 1, 1)

    @property
    def multiplier(self) -> Multiplier:
        """Sum(k^2) for an even power, Sum(k)^2 for an odd one."""
        return BY_PARITY[self.power % 2][1]


class ShiftedForm(_Form):
    """One power sum as a single-parity polynomial in N = n + 1/2.

    `polynomial` is the whole sum in N, with no multiplier, of degree
    power + 1 and only exponents of that parity. `coefficients` reads it in
    the paper's order: for an even power 2m, d_0..d_m multiplying N^(2m+1),
    N^(2m-1), ..., N; for an odd power 2m+1, e_0..e_(m+1) multiplying
    N^(2m+2), N^(2m), ..., N^2, 1, a constant only this parity has.
    """

    __slots__ = ("power", "polynomial")
    _shape = ("shifted", 1, lambda power: power + 1, 2)
