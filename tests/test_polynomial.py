"""Polynomial substrate: canonical form, ring laws, evaluation, composition."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faulhaber.polynomial import Polynomial, X, _combine
from faulhaber.powersum import powersum_monomial
from faulhaber.recurrence import he_ricci_polynomial, partial_sum_polynomial
from faulhaber.forms import SQUARE_OF_SUM_OF_N
from faulhaber.triangular import _inductive_table

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polys = st.lists(rationals, max_size=6).map(Polynomial)
small_polys = st.lists(rationals, max_size=4).map(Polynomial)
# zero entries often, so compositions see gaps and zero or constant operands
gappy = st.one_of(st.just(F(0)), st.fractions(min_value=-50, max_value=50, max_denominator=60))
wide_lists = st.lists(gappy, max_size=31)
narrow_lists = st.lists(gappy, max_size=4)
wide_polys = wide_lists.map(Polynomial)
scalars = st.one_of(st.just(0), st.integers(-30, 30), gappy)
terms_lists = st.lists(st.tuples(scalars, wide_polys), max_size=6)
# (scalar, integer numerators, positive denominator) triples: operands built from stored fields
huge = st.integers(-(10**80), 10**80)
kernel_scalars = st.one_of(scalars, st.builds(F, huge, st.integers(1, 10**40)))
kernel_triples = st.lists(
    st.tuples(
        kernel_scalars,
        st.lists(st.one_of(st.integers(-30, 30), huge), max_size=8),
        st.one_of(st.integers(1, 60), st.integers(1, 10**40)),
    ),
    max_size=6,
)
# (numerator, denominator) pairs for the integer kernel, scaled by a common factor
# g so that most are unreduced, zero and negative numerators included
kernel_pairs = st.builds(
    lambda g, a, b: (g * a, g * b),
    st.one_of(st.just(1), st.integers(2, 10**6)),
    st.one_of(st.just(0), st.integers(-30, 30), huge),
    st.one_of(st.integers(1, 60), st.integers(1, 10**40)),
)
kernel_operands = st.builds(
    Polynomial,
    st.lists(st.one_of(st.just(0), st.integers(-30, 30), huge), max_size=8),
    st.one_of(st.integers(1, 60), st.integers(1, 10**40)),
)
# divisors: any lower coefficients under a nonzero lead, often a negative,
# non-unit or fractional one; a lone lead is a constant divisor
leads = st.one_of(st.sampled_from([F(-3, 7), F(-1), F(2), F(5, 3)]), gappy.filter(bool))
divisor_lists = st.builds(lambda low, lead: [*low, lead], st.lists(gappy, max_size=5), leads)


def stripped(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """coeffs without trailing zeros, as a tuple."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def reference_compose(outer: list[Fraction], inner: list[Fraction]) -> list[Fraction]:
    """outer(inner(x)) by Horner on plain Fraction lists, low-to-high."""
    acc: list[Fraction] = []
    for c in reversed(outer):
        product = reference_multiply(acc, inner)
        acc = [c + product[0]] + product[1:] if product else [c]
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def reference_multiply(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """p * q by convolution on plain Fraction lists, low-to-high."""
    out = [F(0)] * max(0, len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def reference_divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Long division of p by d, top down, in plain Fraction arithmetic."""
    dd = d.degree
    lead = d.coeffs[-1]
    rem = list(p.coeffs)
    quot = [F(0)] * max(0, len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            f = c / lead
            quot[i - dd] = f
            for j, b in enumerate(d.coeffs):
                rem[i - dd + j] -= f * b
    return Polynomial(quot), Polynomial(rem[:dd])


def reference_evaluate(coeffs: list[Fraction], x: Fraction) -> Fraction:
    """p(x) by Horner's rule in plain Fraction arithmetic."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reference_combination(terms) -> tuple[Fraction, ...]:
    """sum(c * p) by plain Fraction arithmetic, coefficient by coefficient."""
    out: list[Fraction] = []
    for c, p in terms:
        out += [F(0)] * (len(p.coeffs) - len(out))
        for i, x in enumerate(p.coeffs):
            out[i] += c * x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def combine(terms) -> Polynomial:
    """The integer kernel over (c, p) pairs, each int or Fraction scalar c split into its ratio."""
    return _combine((*F(c).as_integer_ratio(), p) for c, p in terms)


def assert_canonical(p: Polynomial) -> None:
    """The stored fields are canonical, and every way of rebuilding p agrees with it."""
    assert type(p.numerators) is tuple
    assert all(type(x) is int for x in p.numerators)
    assert not p.numerators or p.numerators[-1] != 0
    assert type(p.denominator) is int and p.denominator > 0
    assert math.gcd(p.denominator, *p.numerators) == 1
    assert all(type(c) is Fraction for c in p.coeffs)
    assert Polynomial(p.coeffs) == p == Polynomial(p.numerators, p.denominator)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (F(1), F(2))

    def test_zero_polynomial_is_empty(self):
        assert Polynomial((0, 0, 0)).coeffs == ()
        assert Polynomial().is_zero

    def test_zero_degree_sentinel(self):
        assert Polynomial().degree == -1
        assert Polynomial().degree < Polynomial((5,)).degree

    def test_constant_degree(self):
        assert Polynomial((5,)).degree == 0
        assert X.degree == 1

    def test_fields_are_reduced(self):
        p = Polynomial((F(1, 2), F(-1, 8)))
        assert (p.numerators, p.denominator) == ((4, -1), 8)
        assert Polynomial((6, 0, -2, 0), 4) == Polynomial((F(3, 2), 0, F(-1, 2)))
        assert Polynomial((F(1, 2), 1), 3).coeffs == (F(1, 6), F(1, 3))
        assert (Polynomial((0, 0), 6).numerators, Polynomial((0, 0), 6).denominator) == ((), 1)

    @pytest.mark.parametrize("den, error", [(0, ValueError), (-3, ValueError), (2.0, TypeError),
                                            (True, TypeError), (F(2), TypeError)])
    def test_denominator_must_be_a_positive_int(self, den, error):
        with pytest.raises(error, match="denominator"):
            Polynomial((1, 2), den)

    def test_equality_is_structural(self):
        assert Polynomial((0, F(1, 2), F(1, 2))) == Polynomial([F(0), F(2, 4), F(1, 2), F(0)])
        assert Polynomial((1,)) != Polynomial((1, 1))

    @pytest.mark.parametrize("value", [0.1, True, "1/2"])
    def test_inexact_or_boolean_coefficient_rejected(self, value):
        with pytest.raises(TypeError):
            Polynomial((value,))

    def test_immutable(self):
        p = Polynomial((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = ()

    def test_hashable(self):
        assert len({Polynomial((1, 2)), Polynomial((1, 2)), X}) == 2

    @given(polys, polys)
    def test_operations_never_leak_trailing_zeros(self, p, q):
        for result in (p + q, p + -1 * q, p * q, p.compose(q)):
            assert not result.coeffs or result.coeffs[-1] != 0

    @given(polys, polys)
    def test_coefficients_stay_reduced_with_positive_denominator(self, p, q):
        # the scalar contract: every coefficient read back is canonical
        for c in (p * q + p + -1 * q).coeffs:
            assert c.denominator > 0
            assert math.gcd(c.numerator, c.denominator) == 1

    @given(
        wide_lists,
        st.lists(st.one_of(st.integers(-30, 30), huge), max_size=8),
        st.one_of(st.integers(1, 60), st.integers(1, 10**40)),
        terms_lists,
        small_polys,
        divisor_lists,
        st.integers(2, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_route_stores_canonical_fields(self, fractions, ints, den, terms, q, divisor, m):
        from_fractions, from_ints = Polynomial(fractions), Polynomial(ints, den)
        assert from_fractions.coeffs == stripped(fractions)
        assert from_ints.coeffs == stripped([F(x, den) for x in ints])
        quotient, remainder = divmod(from_fractions, Polynomial(divisor))
        for p in (
            from_fractions,
            from_ints,
            combine(terms),
            from_fractions * q,
            from_ints * from_fractions,
            quotient,
            remainder,
            from_ints.compose(q),
            q.compose(from_ints),
            *_inductive_table(m)[2:],
            he_ricci_polynomial(m),
            partial_sum_polynomial(m),
        ):
            assert_canonical(p)


class TestArithmetic:
    def test_square_of_triangular_polynomial(self):
        s1 = Polynomial((0, F(1, 2), F(1, 2)))
        assert s1 * s1 == Polynomial((0, 0, F(1, 4), F(1, 2), F(1, 4)))

    def test_add_disjoint_degrees(self):
        assert Polynomial((1,)) + Polynomial((0, 0, 3)) == Polynomial((1, 0, 3))

    def test_cancellation_renormalizes(self):
        p = Polynomial((1, 1))
        assert (p + -1 * p).is_zero

    def test_scalar_multiplication(self):
        assert Polynomial((2, 4)) * F(1, 2) == Polynomial((1, 2))
        assert 0 * Polynomial((2, 4)) == Polynomial()

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Polynomial() == p
        assert p * Polynomial((1,)) == p
        assert (p * Polynomial()).is_zero

    @given(st.one_of(st.tuples(wide_lists, narrow_lists), st.tuples(narrow_lists, wide_lists)))
    @example(([], []))
    @example(([], [F(1), F(2)]))
    @example(([F(3), F(-1, 2)], []))
    @example(([F(-5, 7)], [F(2, 9)]))
    @example(([F(0), F(0), F(1, 6)], [F(-1, 4), F(0), F(0), F(7, 4)]))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_fraction_convolution(self, lists):
        p, q = lists
        result = Polynomial(p) * Polynomial(q)
        assert result.coeffs == tuple(reference_multiply(p, q))
        assert_canonical(result)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: p * True,
            lambda p: True * p,
        ],
        ids=["mul-bool", "rmul-bool"],
    )
    def test_scalars_must_be_exact(self, call):
        with pytest.raises(TypeError, match="scalars must be an int or Fraction"):
            call(Polynomial((1, F(1, 2))))

    @pytest.mark.parametrize(
        "call",
        [lambda p: p * 0.5, lambda p: 0.5 * p, lambda p: p * "1/2", lambda p: "1/2" * p],
        ids=["mul-float", "rmul-float", "mul-str", "rmul-str"],
    )
    def test_inexact_scalars_are_refused(self, call):
        with pytest.raises(TypeError):
            call(Polynomial((1, F(1, 2))))

    @given(polys, polys)
    def test_degree_of_product(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree


class TestCombination:
    @given(terms_lists)
    @example([])
    @example([(0, X), (F(0), Polynomial((1, 2)))])
    @example([(3, Polynomial())])
    @example([(F(2, 3), Polynomial((1, F(1, 2), 3))), (-2, Polynomial((F(1, 3), F(1, 6), 1)))])
    @example([(1, Polynomial((1, 0, F(5, 4)))), (F(-5, 4), Polynomial((0, 1, 1)))])
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_sum(self, terms):
        result = combine(terms)
        assert result.coeffs == reference_combination(terms)
        assert_canonical(result)

    @given(kernel_triples)
    @example([])
    @example([(0, [1, 2], 3), (F(-1, 2), [], 5), (F(0), [7], 1)])
    @example([(1, [2, 4], 6)])  # reduces to [1, 2] over 3
    @example([(-1, [2, 4], 6), (1, [1, 2], 3)])  # cancels to zero over 1
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_fraction_sum_and_is_reduced(self, scaled):
        result = combine((c, Polynomial(xs, d)) for c, xs, d in scaled)
        expected: list[Fraction] = []
        for c, xs, d in scaled:
            if c:
                expected += [F(0)] * (len(xs) - len(expected))
                for i, x in enumerate(xs):
                    expected[i] += c * F(x, d)
        assert result.coeffs == stripped(expected)
        assert_canonical(result)

    @given(st.lists(st.tuples(kernel_pairs, kernel_operands), max_size=6))
    @example([])
    @example([((6, 4), Polynomial((1, 2), 3))])  # 6/4 enters as 3/2
    @example([((2, 4), X), ((-3, 6), X), ((0, 5), X), ((7, 1), Polynomial())])  # cancels to zero
    @example([((-(10**80), 10**40), Polynomial((10**80, 0, -(10**80)), 3))])
    @settings(max_examples=80, deadline=None)
    def test_integer_kernel_matches_fraction_sum(self, terms):
        result = _combine((a, b, p) for (a, b), p in terms)
        assert result.coeffs == reference_combination([(F(a, b), p) for (a, b), p in terms])
        assert_canonical(result)

    @given(terms_lists)
    @settings(max_examples=40, deadline=None)
    def test_terms_and_their_negations_cancel_to_zero(self, terms):
        assert combine(terms + [(-c, p) for c, p in terms]).is_zero

    @given(wide_lists, wide_lists, gappy.filter(bool), scalars)
    @settings(max_examples=40, deadline=None)
    def test_cancelled_top_degree_is_stripped(self, a, b, lead, c):
        # p and q share degree and leading coefficient, so c*p - c*q loses the top
        size = max(len(a), len(b))
        p = Polynomial(a + [F(0)] * (size - len(a)) + [lead])
        q = Polynomial(b + [F(0)] * (size - len(b)) + [lead])
        result = combine([(c, p), (-c, q)])
        assert result.coeffs == reference_combination([(c, p), (-c, q)])
        assert result.degree < p.degree
        assert_canonical(result)

    @given(wide_polys, wide_polys, scalars)
    @example(Polynomial(), Polynomial(), 0)
    @example(Polynomial((1, 2, 3)), Polynomial((4, 5, 3)), F(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_linear_operators_match_fraction_sum(self, p, q, c):
        for result, terms in (
            (p + q, [(1, p), (1, q)]),
            (c * p, [(c, p)]),
            (p * c, [(c, p)]),
        ):
            assert result.coeffs == reference_combination(terms)
            assert_canonical(result)


class TestEvaluation:
    def test_quartic_at_three(self):
        p = Polynomial((0, 0, F(1, 4), F(1, 2), F(1, 4)))
        assert p(3) == 36

    def test_zero_polynomial_evaluates_to_zero(self):
        assert Polynomial()(7) == 0

    def test_result_is_exact_rational(self):
        value = (X + F(-1, 2))(F(1, 2))
        assert value == 0 and isinstance(value, Fraction)

    def test_float_argument_rejected(self):
        with pytest.raises(TypeError):
            X(0.5)

    @given(
        wide_lists,
        st.one_of(
            st.integers(-(10**60), 10**60),
            st.fractions(max_denominator=10**30),
            st.fractions(min_value=-3, max_value=3, max_denominator=50),
        ),
    )
    @example([], F(7))
    @example([], F(0))
    @example([F(-2, 3)], F(5, 4))
    @example([F(5), F(-1, 2), F(0), F(3, 7)], F(0))
    @example([F(1, 30), F(0), F(-1, 6), F(1, 2)], F(-7, 10**40 + 3))
    @example([F(0), F(-1, 30), F(0), F(1, 3), F(1, 2), F(1, 5)], 10**50)
    @settings(max_examples=60, deadline=None)
    def test_evaluation_matches_fraction_horner(self, coeffs, x):
        value = Polynomial(coeffs)(x)
        assert value == reference_evaluate(coeffs, F(x))
        assert type(value) is Fraction

    @given(polys, polys, rationals)
    @settings(max_examples=60)
    def test_evaluation_is_a_ring_homomorphism(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)


class TestComposition:
    def test_recovers_square_of_shift(self):
        outer = Polynomial((F(1, 4), 2))  # 2x + 1/4
        inner = Polynomial((F(-1, 8), 0, F(1, 2)))  # x^2/2 - 1/8
        assert outer.compose(inner) == Polynomial((0, 0, 1))

    def test_compose_with_identity(self):
        p = Polynomial((3, 0, 5))
        assert p.compose(X) == p

    def test_constant_outer(self):
        assert Polynomial((7,)).compose(X + 1) == Polynomial((7,))

    @pytest.mark.parametrize("inner", [3, F(1, 2), 0.5])
    def test_inner_must_be_a_polynomial(self, inner):
        with pytest.raises(TypeError, match="can only compose with a Polynomial, not"):
            Polynomial((0, 1, 1)).compose(inner)

    @given(small_polys, small_polys, rationals)
    @settings(max_examples=60)
    def test_compose_commutes_with_evaluation(self, p, q, x):
        assert p.compose(q)(x) == p(q(x))

    @given(st.one_of(st.tuples(wide_lists, narrow_lists), st.tuples(narrow_lists, wide_lists)))
    @example(([], [F(1), F(2)]))
    @example(([F(3), F(-1, 2)], []))
    @example(([F(3), F(-1, 2), F(5, 7)], [F(-2, 9)]))
    @example(([F(-1, 3)], [F(0), F(0), F(0), F(7, 4)]))
    @settings(max_examples=60, deadline=None)
    def test_compose_matches_fraction_horner(self, lists):
        outer, inner = lists
        expected = reference_compose(outer, inner)
        assert Polynomial(outer).compose(Polynomial(inner)).coeffs == tuple(expected)


class TestDivision:
    def test_exact_division(self):
        q, r = divmod(Polynomial((0, 0, F(1, 4), F(1, 2), F(1, 4))), Polynomial((0, F(1, 2), F(1, 2))))
        assert r.is_zero
        assert q == Polynomial((0, F(1, 2), F(1, 2)))

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            divmod(X, Polynomial())

    @given(polys, polys)
    @settings(max_examples=60)
    def test_divmod_invariant(self, p, d):
        if d.is_zero:
            return
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.is_zero or r.degree < d.degree

    @given(wide_lists, divisor_lists)
    @example([F(1), F(2), F(-5, 4), F(7)], [F(1), F(2), F(-3, 7)])
    @example([F(4), F(-9, 2)], [F(5, 3)])
    @example([F(1), F(2)], [F(0), F(0), F(0), F(2, 9)])
    @example([], [F(1), F(-3, 7)])
    @settings(max_examples=80, deadline=None)
    def test_divmod_matches_fraction_long_division(self, dividend, divisor):
        p, d = Polynomial(dividend), Polynomial(divisor)
        q, r = divmod(p, d)
        assert (q, r) == reference_divmod(p, d)
        assert_canonical(q)
        assert_canonical(r)

    def test_remainder_of_a_non_divisible_power_sum(self):
        p = powersum_monomial(5) + X
        q, r = divmod(p, SQUARE_OF_SUM_OF_N)
        assert not r.is_zero
        assert (q, r) == reference_divmod(p, SQUARE_OF_SUM_OF_N)
