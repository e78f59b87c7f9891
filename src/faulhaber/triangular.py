"""Power sums factored over the triangular numbers u = n(n+1)/2.

Even exponents 2m come out as (polynomial in u) * sum(k^2); odd exponents
2m+1 as (polynomial in u) * (sum k)^2. Two independent constructions are
kept side by side: `faulhaber_form` splits the monomial power sum as
A(u) + n * B(u) and reads the form off A, while `faulhaber_form_inductive`
never divides, assembling each form from lower ones using only the
telescoping identity, the two bridge identities checked by `verify_lemma`,
and the vanishing of the odd Bernoulli numbers. Each route is the other's
oracle and they must agree exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .bernoulli import bernoulli_number
from .forms import BY_PARITY, SUM_OF_SQUARES_OF_N, U_OF_N, ConsistencyError, FaulhaberForm
from .polynomial import Polynomial, X
from .powersum import powersum_monomial
from .recurrence import _extend
from .reports import CheckLine, VerificationReport


class NotTriangular(ValueError):
    """Raised when a polynomial in n is not a polynomial in u."""


def _split(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """The unique A, B with p(n) = A(u) + n * B(u), on p's integer numerators.

    Division j by the monic w = n**2 + n = 2u is c[i-1] -= c[i] from the top down
    to i = 2j + 2, which leaves digit j, c[2j] + c[2j+1] * n, in place below the
    quotient. So c ends as the digits, and digit j enters A and B times 2**j.
    """
    c = [*p.numerators]
    for j in range(len(c) // 2):
        for i in range(len(c) - 1, 2 * j + 1, -1):
            c[i - 1] -= c[i]
    a, b = ([x << j for j, x in enumerate(c[k::2])] for k in (0, 1))
    return Polynomial(a, p.denominator), Polynomial(b, p.denominator)


def triangular_decompose(p: Polynomial) -> Polynomial:
    """Rewrite p(n) as A(u) from the split p = A(u) + n * B(u), or raise NotTriangular if B != 0."""
    if p.degree % 2 and not p.is_zero:
        raise NotTriangular(f"degree {p.degree} is odd")
    a, b = _split(p)
    if not b.is_zero:
        raise NotTriangular(f"stripping left an odd-degree remainder (degree {2 * b.degree + 1})")
    return a


def faulhaber_form(power: int) -> FaulhaberForm:
    """Direct route: split S_p = A(u) + n * B(u) and read the form off A.

    The odd multiplier is u^2, so B = 0; the even one is (1 + 2n) * u / 3, so
    B = 2A. Terms of A or B below u^2 (odd) or u (even) are a remainder of dividing by it.
    """
    if power < 2:
        raise ValueError("triangular forms require power >= 2")
    low, twin, scale = (2, 0, 1) if power % 2 else (1, 2, 3)  # B = twin*A, q = scale*A/u^low
    failed = f"power sum for exponent {power} is not"
    multiplier = BY_PARITY[power % 2][1].value
    a, b = _split(powersum_monomial(power))
    if any(a.numerators[:low] + b.numerators[:low]):
        raise ConsistencyError(f"{failed} divisible by {multiplier}")
    if b != Polynomial([twin * x for x in a.numerators], a.denominator):
        raise ConsistencyError(f"{failed} {multiplier} times a polynomial in u")
    quotient = [scale * x for x in a.numerators[low:]]
    return FaulhaberForm.from_route(power, Polynomial(quotient, a.denominator))


def _inductive_table(m: int) -> list[Polynomial | None]:
    """None, None, then the polynomials in u of the forms for powers 2..m.

    Independent route: every form is built from lower ones by induction, run
    by the partial-sum recurrence kernel `recurrence._extend` with step 2, so
    forms[p - 2j] has the parity of p and so the multiplier of forms[p].
    Base forms: power 2 and power 3 both have u-polynomial 1. The step to
    power p subtracts C(p, 2j)/(p + 1) * B_2j * forms[p - 2j] from a lift of
    forms[p - 1]; the Bernoulli list holds None at every odd index, so the
    vanishing of the odd Bernoulli numbers beyond B_1 is built in and no odd
    one is ever read. The lift to an even power turns (n + 1/2)(sum k)^2 into
    (3/2) u sum(k^2) via the first bridge identity. The lift to an odd power
    additionally produces a stray B_(p-1) * (sum k) term which must cancel
    exactly against (constant term)/6 of the even form below it; a nonzero
    residue would falsify the construction, so it raises ConsistencyError.
    Every scalar is a pair of integers (numerator, denominator).
    """
    bernoulli = [None if k % 2 else bernoulli_number(k).as_integer_ratio() for k in range(m)]

    def lift(p: int, f: Polynomial, u_f: Polynomial) -> list:
        if p % 2 == 0:
            # first bridge identity: (n+1/2) f(u) (sum k)^2 = (3/2) u f(u) sum(k^2)
            return [(3 * p, 2 * (p + 1), u_f)]
        num, den = bernoulli[p - 1]
        constant = f.numerators[0] if f.numerators else 0
        if constant * den != 6 * f.denominator * num:  # f(0) / 6 != B_(p-1)
            raise ConsistencyError(f"stray linear-sum term at power {p}: constant/6 != B_{p - 1}")
        # second bridge identity: (n+1/2) f(u) sum(k^2) becomes
        # (4/3 f(u) + (f(u) - f(0))/(6u)) (sum k)^2 + (f(0)/6) sum k,
        # and the trailing piece is exactly the stray term cancelled above.
        f_over_u = Polynomial(f.numerators[1:], f.denominator)  # (f(u) - f(0)) / u
        return [(4 * p, 3 * (p + 1), f), (p, 6 * (p + 1), f_over_u)]

    return _extend([None, None, Polynomial((1,)), Polynomial((1,))], m, bernoulli, lift, 1, 2)


def faulhaber_form_inductive(power: int) -> FaulhaberForm:
    """Inductive route; must agree exactly with faulhaber_form."""
    if power < 2:
        raise ValueError("triangular forms require power >= 2")
    return FaulhaberForm.from_route(power, _inductive_table(power)[power])


def expand_to_monomial(form: FaulhaberForm) -> Polynomial:
    """Multiply the form back out into a plain polynomial in n."""
    return form.polynomial.compose(U_OF_N) * BY_PARITY[form.power % 2][3]


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

    The paper's forms are (n + 1/2) s1^2 = (3/2) s1 s2 and
    (n + 1/2) s2 = (4/3 s1 + 1/6) s1. Multiplied through by 2 and by 6 they
    are checked as (2n + 1) s1^2 = 3 s1 s2 and 3(2n + 1) s2 = (8 s1 + 1) s1,
    with no fraction, on integers or polynomials in n alike.
    """
    odd = 2 * n + 1
    return odd * s1 * s1 == 3 * s1 * s2, 3 * odd * s2 == (8 * s1 + 1) * s1


def _running_sums(max_n: int):
    """(n, sum k, sum k^2) for n = 1..max_n, as running integer sums."""
    ns = range(1, max_n + 1)
    return zip(ns, accumulate(ns), accumulate(n * n for n in ns))


def verify_lemma(max_n: int) -> VerificationReport:
    """Check both bridge identities symbolically and on integers up to max_n.

    Identity 1: (n + 1/2)(sum k)^2 = (3/2) u sum(k^2).
    Identity 2: (n + 1/2) sum(k^2) = (4u/3 + 1/6) sum k.
    Both are checked with their denominators cleared, as
    (2n + 1)(sum k)^2 = 3 u sum(k^2) and 3(2n + 1) sum(k^2) = (8u + 1) sum k.
    The symbolic check compares polynomials in n; the numeric check adds up
    k and k^2 term by term on plain integers, so it is brute force, linear in
    max_n and independent of every polynomial construction.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    symbolic = _bridge_identities(X, U_OF_N, SUM_OF_SQUARES_OF_N)
    first_bad = [None] * len(symbolic)  # per identity, the first n at which it fails
    for n, s1, s2 in _running_sums(max_n):
        for i, ok in enumerate(_bridge_identities(n, s1, s2)):
            if not ok and first_bad[i] is None:
                first_bad[i] = n
    lines = [CheckLine(f"identity {i}, polynomial", ok) for i, ok in enumerate(symbolic, 1)]
    for i, bad in enumerate(first_bad, 1):
        failure = f" (first failure n={bad})" if bad else ""
        lines.append(CheckLine(f"identity {i}, integers n <= {max_n}{failure}", bad is None))
    return VerificationReport(name="lemma", lines=tuple(lines))


def verify_constant_term_bernoulli(max_m: int) -> VerificationReport:
    """Check (constant coefficient of the even form for 2m)/6 == B_2m."""
    if max_m < 2:
        raise ValueError("max_m must be >= 2")
    lines = []
    for m in range(2, max_m + 1):
        poly = faulhaber_form(2 * m).polynomial
        ok = Fraction(poly.numerators[0], 6 * poly.denominator) == bernoulli_number(2 * m)
        lines.append(CheckLine(f"constant term of power {2 * m} form = 6*B_{2 * m}", ok))
    return VerificationReport(name="constant-term", lines=tuple(lines))
