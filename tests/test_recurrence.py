"""The two rebuild-from-below recurrences against the direct constructions."""

from __future__ import annotations

from fractions import Fraction

import pytest

from faulhaber.bernoulli import bernoulli_polynomial
from faulhaber.polynomial import Polynomial
from faulhaber.powersum import oracle_sum, powersum_monomial
from faulhaber.recurrence import (
    he_ricci_polynomial,
    partial_sum_polynomial,
    verify_recurrence_consistency,
)
from faulhaber.reports import CheckLine

F = Fraction


class TestBernoulliRecurrence:
    def test_base(self):
        assert he_ricci_polynomial(0) == Polynomial((1,))

    def test_first_step_has_empty_sum(self):
        assert he_ricci_polynomial(1) == Polynomial((F(-1, 2), 1))

    def test_second_step(self):
        assert he_ricci_polynomial(2) == Polynomial((F(1, 6), -1, 1))

    def test_agrees_with_direct_construction(self):
        for m in [*range(0, 31), 80]:
            assert he_ricci_polynomial(m) == bernoulli_polynomial(m), m

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            he_ricci_polynomial(-1)


class TestPowerSumRecurrence:
    def test_first_step_has_empty_sum(self):
        assert partial_sum_polynomial(2) == Polynomial((0, F(1, 6), F(1, 2), F(1, 3)))

    def test_third_step(self):
        assert partial_sum_polynomial(3) == powersum_monomial(3)

    def test_documented_evaluation(self):
        assert partial_sum_polynomial(6)(3) == 794

    def test_agrees_with_direct_construction(self):
        for m in [*range(2, 31), 80]:
            assert partial_sum_polynomial(m) == powersum_monomial(m), m

    def test_matches_integer_oracle(self):
        for m in range(2, 11):
            p = partial_sum_polynomial(m)
            for n in range(1, 51):
                assert p(n) == oracle_sum(m, n)

    def test_starts_at_two(self):
        with pytest.raises(ValueError):
            partial_sum_polynomial(1)


class TestConsistencyReport:
    def test_minimal_run_exercises_both_empty_sums(self):
        report = verify_recurrence_consistency(2)
        assert report.passed
        assert report.lines == (
            CheckLine("recurrences agree at index 1", True),
            CheckLine("recurrences agree at index 2", True),
        )
        assert report.first_failure is None

    def test_longer_run(self):
        report = verify_recurrence_consistency(20)
        assert report.passed
        assert report.name == "recurrence"
        assert report.lines[-1].label == "recurrences agree at index 20"
        assert len(report.lines) == 20

    def test_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_recurrence_consistency(1)
