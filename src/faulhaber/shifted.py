"""Power sums in the half-shifted variable N = n + 1/2.

The substitution u = N^2/2 - 1/8 turns every triangular-basis form into a
pure polynomial in N with only one parity of exponent present: even powers
of n give odd polynomials in N, odd powers give even polynomials. As in the
triangular module there are two independent routes, a change-of-basis
conversion and closed-form coefficients built from B_2i(1/2), each checked
against the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .bernoulli import bernoulli_at_half
from .polynomial import Polynomial, X
from .powersum import powersum_monomial
from .reports import CheckLine, Record, VerificationReport
from .triangular import (
    ConsistencyError,
    FaulhaberForm,
    expand_to_monomial,
    faulhaber_form,
)

#: u rewritten in N: u = N^2/2 - 1/8. Also equals sum k.
U_OF_SHIFT = Polynomial((Fraction(-1, 8), 0, Fraction(1, 2)))

#: sum k^2 = N(N^2/3 - 1/12).
SUM_OF_SQUARES_SHIFTED = Polynomial((0, Fraction(-1, 12), 0, Fraction(1, 3)))

#: (sum k)^2 = (N^2/2 - 1/8)^2.
SQUARE_OF_SUM_SHIFTED = U_OF_SHIFT * U_OF_SHIFT


class ShiftedForm(Record):
    """One power sum as a single-parity polynomial in N = n + 1/2.

    Even power 2m: coefficients d_0..d_m multiplying N^(2m+1), N^(2m-1), ...,
    N (m+1 entries, one more than the triangular list because the multiplier
    contributes a coefficient of its own after substitution).
    Odd power 2m+1: coefficients e_0..e_(m+1) multiplying N^(2m+2), N^(2m),
    ..., N^2, 1; the trailing entry is the constant term, which exists only
    in this parity.
    """

    __slots__ = ("power", "coefficients")

    def __init__(self, power: int, coefficients: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "coefficients", coefficients)

    parity = FaulhaberForm.parity  # "even" or "odd", from the power, as for a triangular form

    def shift_polynomial(self) -> Polynomial:
        """The form as a low-to-high polynomial in N."""
        top = self.power + 1
        coeffs = [Fraction(0)] * (top + 1)
        for i, c in enumerate(self.coefficients):
            coeffs[top - 2 * i] = c
        return Polynomial(coeffs)


def _extract(power: int, shift_poly: Polynomial) -> ShiftedForm:
    """Pull the highest-power-first coefficient list off an N-polynomial."""
    top = power + 1
    if shift_poly.degree != top:
        raise ConsistencyError(
            f"shifted form for power {power} has degree {shift_poly.degree}, expected {top}"
        )
    # exactly one parity of exponent may be present
    for k in range(top + 1):
        if (k - top) % 2 and shift_poly.coefficient(k) != 0:
            raise ConsistencyError(
                f"shifted form for power {power} has a stray N^{k} term"
            )
    # entries for N^top, N^(top-2), ..., down to N^1 (even power) or N^0 (odd power)
    coeffs = tuple(shift_poly.coefficient(k) for k in range(top, -1, -2))
    return ShiftedForm(power, coeffs)


def shifted_form(power: int) -> ShiftedForm:
    """Conversion route: substitute u = N^2/2 - 1/8 into the triangular form."""
    if power < 1:
        raise ValueError("shifted forms require power >= 1")
    if power == 1:
        return _extract(1, U_OF_SHIFT)
    return _from_triangular(faulhaber_form(power))


def _from_triangular(form: FaulhaberForm) -> ShiftedForm:
    """Substitute u = N^2/2 - 1/8 into a triangular form and its multiplier."""
    multiplier = (SUM_OF_SQUARES_SHIFTED, SQUARE_OF_SUM_SHIFTED)[form.power % 2]
    return _extract(form.power, form.u_polynomial().compose(U_OF_SHIFT) * multiplier)


def shifted_closed_form(power: int) -> ShiftedForm:
    """Closed-form route, straight from Bernoulli values at 1/2.

    The coefficient of N^(p+1-2i), for i = 0..p//2, is
    c_i = C(p, 2i) * B_2i(1/2) / (p - 2i + 1); these are the d_i of an even
    power and the e_i of an odd one. An odd power p = 2m+1 also has a
    constant, forced by the sum vanishing at n = 0, i.e. N = 1/2:
    e_(m+1) = -sum(e_i / 4**(m-i+1)).
    """
    if power < 1:
        raise ValueError("shifted forms require power >= 1")
    m = power // 2
    c = [
        Fraction(comb(power, 2 * i), power - 2 * i + 1) * bernoulli_at_half(2 * i)
        for i in range(m + 1)
    ]
    if power % 2:
        c.append(-sum(c[i] / Fraction(4) ** (m - i + 1) for i in range(m + 1)))
    return ShiftedForm(power, tuple(c))


def shifted_to_monomial(form: ShiftedForm) -> Polynomial:
    """Substitute N = n + 1/2 to recover the plain monomial power sum."""
    return form.shift_polynomial().compose(X + Fraction(1, 2))


def verify_roundtrip(max_power: int) -> VerificationReport:
    """Check that both alternate bases expand back to the monomial power sum.

    Triangular forms for powers 2..max_power come first, then shifted forms
    for powers 1..max_power. Each triangular form is built once and also
    converted to give the shifted form of its power.
    """
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    monomial = {power: powersum_monomial(power) for power in range(1, max_power + 1)}
    triangular = {power: faulhaber_form(power) for power in range(2, max_power + 1)}
    shifted = {1: shifted_form(1)}
    shifted.update((power, _from_triangular(form)) for power, form in triangular.items())
    lines = [
        CheckLine(
            f"triangular roundtrip, power {power}",
            expand_to_monomial(form) == monomial[power],
        )
        for power, form in triangular.items()
    ]
    lines += [
        CheckLine(
            f"shifted roundtrip, power {power}",
            shifted_to_monomial(form) == monomial[power],
        )
        for power, form in shifted.items()
    ]
    return VerificationReport(name="roundtrip", lines=tuple(lines))
