"""Monomial power sums: both polynomial routes against the integer oracle."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faulhaber.polynomial import Polynomial
from faulhaber.powersum import (
    check_partial_sum_identity,
    oracle_sum,
    powersum_monomial,
    powersum_via_bernoulli_poly,
)

F = Fraction


class TestMonomialPolynomials:
    def test_exponent_one(self):
        assert powersum_monomial(1) == Polynomial((0, F(1, 2), F(1, 2)))

    def test_exponent_two(self):
        assert powersum_monomial(2) == Polynomial((0, F(1, 6), F(1, 2), F(1, 3)))

    def test_exponent_four(self):
        assert powersum_monomial(4) == Polynomial(
            (0, F(-1, 30), 0, F(1, 3), F(1, 2), F(1, 5))
        )

    def test_no_constant_term(self):
        for m in range(1, 40):
            assert powersum_monomial(m).coefficient(0) == 0

    def test_degree_and_leading_coefficient(self):
        for m in range(1, 25):
            p = powersum_monomial(m)
            assert p.degree == m + 1
            assert p.coeffs[-1] == F(1, m + 1)

    def test_linear_coefficient_vanishes_for_odd_exponents(self):
        # exponents 3, 5, 7, ... have no n^1 term
        for m in range(3, 41, 2):
            assert powersum_monomial(m).coefficient(1) == 0

    def test_exponent_zero_is_n_and_negative_rejected(self):
        assert powersum_monomial(0) == Polynomial((0, 1))
        with pytest.raises(ValueError):
            powersum_monomial(-1)


class TestBernoulliPolynomialRoute:
    def test_exponent_three(self):
        assert powersum_via_bernoulli_poly(3) == Polynomial(
            (0, 0, F(1, 4), F(1, 2), F(1, 4))
        )

    def test_exponent_five(self):
        assert powersum_via_bernoulli_poly(5) == Polynomial(
            (0, 0, F(-1, 12), 0, F(5, 12), F(1, 2), F(1, 6))
        )

    def test_routes_agree(self):
        for m in range(1, 61):
            assert powersum_via_bernoulli_poly(m) == powersum_monomial(m)

    def test_exponent_zero_rejected(self):
        with pytest.raises(ValueError):
            powersum_via_bernoulli_poly(0)


class TestOracle:
    @pytest.mark.parametrize(
        "m, n, expected",
        [(2, 3, 14), (3, 10, 3025), (5, 4, 1300), (0, 7, 7), (1, 100, 5050)],
    )
    def test_hand_values(self, m, n, expected):
        assert oracle_sum(m, n) == expected

    def test_polynomial_matches_oracle(self):
        for m in range(1, 13):
            p = powersum_monomial(m)
            for n in range(1, 61):
                assert p(n) == oracle_sum(m, n)

    @given(st.integers(min_value=1, max_value=15), st.integers(min_value=1, max_value=40))
    @settings(max_examples=50)
    def test_polynomial_matches_oracle_random(self, m, n):
        assert powersum_monomial(m)(n) == oracle_sum(m, n)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            oracle_sum(-1, 5)
        with pytest.raises(ValueError):
            oracle_sum(2, 0)


class TestPartialSumIdentity:
    def test_documented_case(self):
        # both sides of the identity at (1, 3), from the integer oracle
        assert oracle_sum(2, 3) + sum(oracle_sum(1, k) for k in range(1, 4)) == 24
        assert 4 * oracle_sum(1, 3) == 24
        assert check_partial_sum_identity(1, 3).passed

    def test_exponent_zero(self):
        assert check_partial_sum_identity(0, 5).passed

    def test_sweep(self):
        for m in range(0, 11):
            for n in range(1, 51):
                assert check_partial_sum_identity(m, n).passed, (m, n)

    def test_report_carries_inputs(self):
        assert check_partial_sum_identity(2, 4).label == "partial-sum identity, m=2, n=4"

    def test_inner_sums_are_linear(self):
        # an oracle_sum per inner sum would take over a minute at this bound
        start = time.perf_counter()
        line = check_partial_sum_identity(3, 20_000)
        elapsed = time.perf_counter() - start
        assert line.passed
        assert elapsed < 5.0, f"check_partial_sum_identity(3, 20000) took {elapsed:.2f} s"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_partial_sum_identity(-1, 3)
        with pytest.raises(ValueError):
            check_partial_sum_identity(1, 0)
