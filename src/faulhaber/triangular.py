"""Power sums factored over the triangular numbers u = n(n+1)/2.

Even exponents 2m come out as (polynomial in u) * sum(k^2); odd exponents
2m+1 as (polynomial in u) * (sum k)^2. Two independent constructions are
kept side by side: `faulhaber_form` divides the monomial power sum by its
multiplier and rewrites the quotient in u, while `faulhaber_form_inductive`
never divides, assembling each form from lower ones using only the
telescoping identity, the two bridge identities checked by `verify_lemma`,
and the vanishing of the odd Bernoulli numbers. Each route is the other's
oracle and they must agree exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import comb

from .bernoulli import bernoulli_number
from .polynomial import Polynomial, X, _over_common_denominator
from .powersum import powersum_monomial
from .reports import CheckLine, Record, VerificationReport


class NotTriangular(ValueError):
    """Raised when a polynomial in n is not a polynomial in u."""


class ConsistencyError(RuntimeError):
    """An internal identity that must hold exactly failed to.

    Raised when an exact division leaves a remainder or an inductive step
    leaves a stray linear-sum term; either means the implementation (not the
    input) is wrong, so computation aborts rather than rounding anything.
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

#: power % 2 -> (parity, multiplier, the multiplier as a polynomial in n)
BY_PARITY = (
    ("even", Multiplier.SUM_OF_SQUARES, SUM_OF_SQUARES_OF_N),
    ("odd", Multiplier.SQUARE_OF_SUM, SQUARE_OF_SUM_OF_N),
)


class FaulhaberForm(Record):
    """One power sum written as coefficients-in-u times a fixed multiplier.

    `coefficients` is ordered highest u-power first: entry i multiplies
    u**(count-1-i), where count = len(coefficients) = power // 2. The last
    entry is the constant term. The power's parity decides the multiplier.
    """

    __slots__ = ("power", "coefficients")

    def __init__(self, power: int, coefficients: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def parity(self) -> str:
        """The power's parity, "even" or "odd"."""
        return BY_PARITY[self.power % 2][0]

    @property
    def multiplier(self) -> Multiplier:
        """Sum(k^2) for an even power, Sum(k)^2 for an odd one."""
        return BY_PARITY[self.power % 2][1]

    def u_polynomial(self) -> Polynomial:
        """The coefficient list as a low-to-high polynomial in u."""
        return Polynomial(tuple(reversed(self.coefficients)))


def _wrap_form(power: int, u_poly: Polynomial) -> FaulhaberForm:
    m = power // 2
    if u_poly.degree != m - 1:
        raise ConsistencyError(
            f"triangular form for power {power} has u-degree {u_poly.degree}, expected {m - 1}"
        )
    return FaulhaberForm(power, tuple(u_poly.coefficient(m - 1 - i) for i in range(m)))


def triangular_decompose(p: Polynomial) -> Polynomial:
    """Rewrite p(n) as q(u) with u = n(n+1)/2, or raise NotTriangular.

    Strips leading terms: a degree-2d head with leading coefficient c forces
    the u**d coefficient c * 2**d; subtracting that multiple of u**d must
    again leave an even-degree (or zero) remainder, otherwise p was never a
    polynomial in u. The strip runs on p's integer numerators over their
    common denominator L, in the monic w = n**2 + n = 2u: w**d is
    sum(C(d, j) * n**(d+j)), and its multiple c/L is (c * 2**d / L) u**d.
    """
    if p.is_zero:
        return p
    if p.degree % 2:
        raise NotTriangular(f"degree {p.degree} is odd")
    half = p.degree // 2
    rem, den = _over_common_denominator(p.coeffs)
    rem.append(0)  # the first step reads index 2 * half + 1
    out = []
    for d in range(half, -1, -1):
        if rem[2 * d + 1]:
            raise NotTriangular(f"stripping left an odd-degree remainder (degree {2 * d + 1})")
        c = rem[2 * d]
        if c:
            binom = 1  # C(d, j)
            for j in range(d + 1):
                rem[d + j] -= c * binom
                binom = binom * (d - j) // (j + 1)
        out.append(Fraction(c << d, den))
    return Polynomial(reversed(out))


def faulhaber_form(power: int) -> FaulhaberForm:
    """Direct route: exact division by the multiplier, then rewrite in u."""
    if power < 2:
        raise ValueError("triangular forms require power >= 2")
    _, multiplier, divisor = BY_PARITY[power % 2]
    quotient, remainder = divmod(powersum_monomial(power), divisor)
    if not remainder.is_zero:
        raise ConsistencyError(
            f"power sum for exponent {power} is not divisible by {multiplier.value}"
        )
    return _wrap_form(power, triangular_decompose(quotient))


def _inductive_u_polynomial(power: int) -> Polynomial:
    """Independent route: build every form from 2 up to `power` by induction.

    Base forms: power 2 and power 3 both have u-polynomial 1. The step to an
    even power p = 2m+2 rewrites the inner sums of k**(p-1) through the
    monomial coefficients C(p, 2j)/p * B_2j (all odd Bernoulli terms beyond
    B_1 vanish), then turns (n + 1/2)(sum k)^2 into (3/2) u sum(k^2) via the
    first bridge identity. The step to an odd power additionally produces a
    stray B_(p-1) * (sum k) term which must cancel exactly against
    (constant term)/6 of the even form below it; a nonzero residue would
    falsify the construction, so it raises ConsistencyError.
    """
    forms = {2: Polynomial((1,)), 3: Polynomial((1,))}
    for p in range(4, power + 1):
        # forms[p - 2j] has the parity of p, and so the multiplier of forms[p]
        b = [Fraction(comb(p, 2 * j), p) * bernoulli_number(2 * j) for j in range(1, p // 2)]
        lower = [(-c, forms[p - 2 * j]) for j, c in enumerate(b, 1)]  # subtracted
        below = forms[p - 1]
        if p % 2 == 0:
            # first bridge identity: (n+1/2) f(u) (sum k)^2 = (3/2) u f(u) sum(k^2)
            lifted = [(Fraction(3, 2), X * below)]
        else:
            if below.coefficient(0) / 6 != bernoulli_number(p - 1):
                raise ConsistencyError(
                    f"stray linear-sum term at power {p}: constant/6 != B_{p - 1}"
                )
            # second bridge identity: (n+1/2) f(u) sum(k^2) becomes
            # (4/3 f(u) + (f(u) - f(0))/(6u)) (sum k)^2 + (f(0)/6) sum k,
            # and the trailing piece is exactly the stray term cancelled above.
            lifted = [(Fraction(4, 3), below), (Fraction(1, 6), Polynomial(below.coeffs[1:]))]
        # forms[p] = p/(p+1) * (lifted - sum(b_j * forms[p - 2j])), as one combination
        forms[p] = Polynomial.combination((c * Fraction(p, p + 1), f) for c, f in lifted + lower)
    return forms[power]


def faulhaber_form_inductive(power: int) -> FaulhaberForm:
    """Inductive route; must agree exactly with faulhaber_form."""
    if power < 2:
        raise ValueError("triangular forms require power >= 2")
    return _wrap_form(power, _inductive_u_polynomial(power))


def expand_to_monomial(form: FaulhaberForm) -> Polynomial:
    """Multiply the form back out into a plain polynomial in n."""
    return form.u_polynomial().compose(U_OF_N) * BY_PARITY[form.power % 2][2]


def square_in_triangular(power: int) -> Polynomial:
    """The square of an even power sum as a polynomial in u.

    Squares of even power sums decompose cleanly; power 2 gives
    (8u^3 + u^2)/9. Odd powers are rejected, their squares are the
    multipliers already.
    """
    if power < 2 or power % 2:
        raise ValueError("square_in_triangular requires an even power >= 2")
    s = powersum_monomial(power)
    return triangular_decompose(s * s)


def _bridge_identities(n, s1, s2) -> tuple[bool, bool]:
    """Whether each bridge identity holds for n, s1 = sum k and s2 = sum k^2.

    Takes integers or polynomials in n alike.
    """
    half = Fraction(1, 2)
    return (
        (n + half) * s1 * s1 == s1 * s2 * Fraction(3, 2),
        (n + half) * s2 == (s1 * Fraction(4, 3) + Fraction(1, 6)) * s1,
    )


def _running_sums(max_n: int):
    """(n, sum k, sum k^2) for n = 1..max_n, as running integer sums."""
    ns = range(1, max_n + 1)
    return zip(ns, accumulate(ns), accumulate(n * n for n in ns))


def verify_lemma(max_n: int) -> VerificationReport:
    """Check both bridge identities symbolically and on integers up to max_n.

    Identity 1: (n + 1/2)(sum k)^2 = (3/2) u sum(k^2).
    Identity 2: (n + 1/2) sum(k^2) = (4u/3 + 1/6) sum k.
    The symbolic check compares polynomials in n; the numeric check adds up
    k and k^2 term by term on integers, so it is brute force, linear in max_n
    and independent of every polynomial construction.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    symbolic = _bridge_identities(X, U_OF_N, SUM_OF_SQUARES_OF_N)
    numeric = [_bridge_identities(n, s1, s2) for n, s1, s2 in _running_sums(max_n)]
    lines = [CheckLine(f"identity {i}, polynomial", ok) for i, ok in enumerate(symbolic, 1)]
    for i in range(len(symbolic)):
        bad = next((n for n, oks in enumerate(numeric, 1) if not oks[i]), None)
        failure = f" (first failure n={bad})" if bad else ""
        lines.append(CheckLine(f"identity {i + 1}, integers n <= {max_n}{failure}", bad is None))
    return VerificationReport(name="lemma", lines=tuple(lines))


def verify_constant_term_bernoulli(max_m: int) -> VerificationReport:
    """Check (constant coefficient of the even form for 2m)/6 == B_2m."""
    if max_m < 2:
        raise ValueError("max_m must be >= 2")
    lines = []
    for m in range(2, max_m + 1):
        form = faulhaber_form(2 * m)
        ok = form.coefficients[-1] / 6 == bernoulli_number(2 * m)
        lines.append(CheckLine(f"constant term of power {2 * m} form = 6*B_{2 * m}", ok))
    return VerificationReport(name="constant-term", lines=tuple(lines))
