"""Power sums in the half-shifted variable N = n + 1/2.

The basis is stated once, as the substitution n = N - 1/2. It turns every
triangular-basis form into a polynomial in N with one parity of exponent:
even powers of n give odd polynomials in N, odd powers even ones. As in the
triangular module there are two independent routes, a change-of-basis
conversion and closed-form coefficients built from B_2i(1/2), each checked
against the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .bernoulli import bernoulli_at_half
from .forms import BY_PARITY, U_OF_N, FaulhaberForm, ShiftedForm
from .polynomial import Polynomial, X
from .powersum import powersum_monomial
from .reports import CheckLine, VerificationReport
from .triangular import expand_to_monomial, faulhaber_form

#: n as a polynomial in N: N - 1/2.
N_MINUS_HALF = Polynomial((-1, 2), 2)

#: u rewritten in N: N^2/2 - 1/8. Also equals sum k.
U_OF_SHIFT = U_OF_N.compose(N_MINUS_HALF)

#: power % 2 -> the multiplier of `BY_PARITY` rewritten in N
MULTIPLIERS_OF_SHIFT = tuple(row[3].compose(N_MINUS_HALF) for row in BY_PARITY)


def shifted_form(power: int) -> ShiftedForm:
    """Conversion route: substitute u = N^2/2 - 1/8 into the triangular form."""
    if power < 1:
        raise ValueError("shifted forms require power >= 1")
    if power == 1:
        return ShiftedForm.from_route(1, U_OF_SHIFT)
    return _from_triangular(faulhaber_form(power))


def _from_triangular(form: FaulhaberForm) -> ShiftedForm:
    """Substitute u = N^2/2 - 1/8 into a triangular form and its multiplier."""
    multiplier = MULTIPLIERS_OF_SHIFT[form.power % 2]
    return ShiftedForm.from_route(form.power, form.polynomial.compose(U_OF_SHIFT) * multiplier)


def shifted_closed_form(power: int) -> ShiftedForm:
    """Closed-form route, straight from Bernoulli values at 1/2.

    The coefficient of N^(p+1-2i), for i = 0..p//2, is
    c_i = C(p, 2i) * B_2i(1/2) / (p - 2i + 1); these are the d_i of an even
    power and the e_i of an odd one. The sum vanishes at n = 0, i.e. at
    N = 1/2, so its value there is subtracted: an odd power's constant
    e_(m+1), and 0 for an even power, whose N^0 term is otherwise stray.
    """
    if power < 1:
        raise ValueError("shifted forms require power >= 1")
    slots: list[Fraction | int] = [0] * (power + 2)
    slots[power + 1:0:-2] = [  # N^(power+1), N^(power-1), ..., above N^0
        Fraction(comb(power, 2 * i), power - 2 * i + 1) * bernoulli_at_half(2 * i)
        for i in range(power // 2 + 1)
    ]
    total = Polynomial(slots)
    return ShiftedForm.from_route(power, total + -total(Fraction(1, 2)))


def shifted_to_monomial(form: ShiftedForm) -> Polynomial:
    """Substitute N = n + 1/2 to recover the plain monomial power sum."""
    return form.polynomial.compose(X + Fraction(1, 2))


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
