"""The definition as an oracle at any degree.

S_p is the only polynomial with S(x) - S(x - 1) = x^p and S(0) = 0, and
B_p(x + 1) - B_p(x) = p x^(p-1). For a wrong polynomial of degree <= p + 1
the residue is a nonzero polynomial, so it vanishes at a random 64-bit x with
probability at most (p + 1) / 2^64 (Schwartz, JACM 27(4), 1980). Each form is
evaluated in its own variable, so no check composes and none reads a
Bernoulli number.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from faulhaber.bernoulli import bernoulli_polynomial
from faulhaber.powersum import powersum_monomial, powersum_via_bernoulli_poly
from faulhaber.shifted import shifted_closed_form
from faulhaber.triangular import faulhaber_form

F = Fraction


def triangular_sum(power: int):
    """n -> q(u) * M(n) for the triangular form q, with u = n(n+1)/2 and M its multiplier."""
    q = faulhaber_form(power).polynomial

    def value(n: int) -> Fraction:
        u = F(n * (n + 1), 2)
        multiplier = u * u if power % 2 else u * (2 * n + 1) / 3  # (sum k)^2 or sum k^2
        return q(u) * multiplier

    return value


def shifted_sum(power: int):
    """n -> P(n + 1/2) for the closed shifted form P in N = n + 1/2."""
    p = shifted_closed_form(power).polynomial
    return lambda n: p(n + F(1, 2))


def assert_defines_the_power_sum(sum_of, power: int, x: int) -> None:
    # booleans first, so that a failure names the point rather than printing huge values
    steps, starts_at_zero = sum_of(x) - sum_of(x - 1) == x**power, sum_of(0) == 0
    assert steps, f"S({x}) - S({x - 1}) != {x}^{power}"
    assert starts_at_zero, f"S(0) != 0 at power {power}"


@given(st.integers(300, 1000), st.integers(300, 400), st.integers(-(2**63), 2**63 - 1))
@example(1000, 400, 2**63 - 1)  # the top of the degree range, whatever is drawn
@settings(max_examples=5, deadline=None)
def test_every_route_satisfies_the_definition(power, low_power, x):
    assert_defines_the_power_sum(powersum_monomial(power), power, x)
    assert_defines_the_power_sum(triangular_sum(power), power, x)
    assert_defines_the_power_sum(shifted_sum(power), power, x)
    assert_defines_the_power_sum(powersum_via_bernoulli_poly(low_power), low_power, x)
    bernoulli = bernoulli_polynomial(power)
    steps = bernoulli(x + 1) - bernoulli(x) == power * x ** (power - 1)
    assert steps, f"B_{power}({x} + 1) - B_{power}({x}) != {power} * {x}^{power - 1}"
