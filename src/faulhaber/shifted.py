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
from .forms import BY_PARITY, U_OF_SHIFT, FaulhaberForm, ShiftedForm
from .polynomial import Polynomial, X
from .powersum import powersum_monomial
from .reports import CheckLine, VerificationReport
from .triangular import expand_to_monomial, faulhaber_form


def shifted_form(power: int) -> ShiftedForm:
    """Conversion route: substitute u = N^2/2 - 1/8 into the triangular form."""
    if power < 1:
        raise ValueError("shifted forms require power >= 1")
    if power == 1:
        return ShiftedForm.from_route(1, U_OF_SHIFT)
    return _from_triangular(faulhaber_form(power))


def _from_triangular(form: FaulhaberForm) -> ShiftedForm:
    """Substitute u = N^2/2 - 1/8 into a triangular form and its multiplier."""
    multiplier = BY_PARITY[form.power % 2][4]
    return ShiftedForm.from_route(form.power, form.polynomial.compose(U_OF_SHIFT) * multiplier)


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
    slots: list[Fraction | int] = [0] * (power + 2)
    slots[::-2] = c  # N^(power+1), N^(power-1), ...
    return ShiftedForm.from_route(power, Polynomial(slots))


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
