"""The two rebuild-from-below recurrences against the direct constructions."""

from __future__ import annotations

from fractions import Fraction

import pytest

from faulhaber import recurrence, triangular
from faulhaber.bernoulli import bernoulli_polynomial
from faulhaber.forms import ConsistencyError
from faulhaber.polynomial import Polynomial
from faulhaber.powersum import oracle_sum, powersum_monomial
from faulhaber.recurrence import (
    _he_ricci_table,
    _partial_sum_table,
    he_ricci_polynomial,
    partial_sum_polynomial,
    verify_recurrence_consistency,
)
from faulhaber.reports import CheckLine
from faulhaber.triangular import faulhaber_form, faulhaber_form_inductive

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


def _recurrence_fails_first_at_six():
    lines = verify_recurrence_consistency(10).lines
    assert [line.passed for line in lines[:5]] == [True] * 5
    assert lines[5] == CheckLine(
        "recurrences agree at index 6 (Bernoulli-polynomial recurrence differs)", False
    )
    # B_6 enters the power-sum recurrence one index later
    assert lines[6].label.endswith(" (power-sum recurrence differs)")


def _inductive_four_differs():
    assert faulhaber_form_inductive(4) != faulhaber_form(4)


def _inductive_seven_has_a_stray_term():
    with pytest.raises(ConsistencyError, match="stray linear-sum term at power 7"):
        faulhaber_form_inductive(7)


def _tables_unchanged():
    bernoulli_table, sum_table = _he_ricci_table(30), _partial_sum_table(30)
    for m in range(31):
        assert bernoulli_table[m] == bernoulli_polynomial(m), m
    for m in range(1, 31):
        assert sum_table[m] == powersum_monomial(m), m


@pytest.mark.parametrize(
    "module, shifts, check",
    [
        (recurrence, {6: 1}, _recurrence_fails_first_at_six),
        (triangular, {2: 1}, _inductive_four_differs),
        (triangular, {6: 1}, _inductive_seven_has_a_stray_term),
        # B_0 and B_1 never enter a lower sum, so wrong values change nothing
        (recurrence, {0: 5, 1: F(1, 3)}, _tables_unchanged),
    ],
    ids=["recurrence-B6", "inductive-B2", "inductive-B6", "recurrence-B0-B1"],
)
def test_each_bernoulli_value_a_table_reads_has_an_effect(monkeypatch, module, shifts, check):
    exact = module.bernoulli_number
    monkeypatch.setattr(module, "bernoulli_number", lambda k: exact(k) + shifts.get(k, 0))
    check()
