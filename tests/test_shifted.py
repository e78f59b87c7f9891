"""Half-shifted basis: conversion route vs closed-form route, parity
structure, and the substitution back to the monomial polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest

from faulhaber import shifted
from faulhaber.polynomial import X
from faulhaber.powersum import powersum_monomial
from faulhaber.shifted import (
    ShiftedForm,
    shifted_closed_form,
    shifted_form,
    shifted_to_monomial,
    verify_roundtrip,
)
from faulhaber.triangular import ConsistencyError

F = Fraction


class TestConversionRoute:
    def test_power_one(self):
        form = shifted_form(1)
        assert form.coefficients == (F(1, 2), F(-1, 8))
        assert form.parity == "odd"

    def test_power_two(self):
        form = shifted_form(2)
        assert form.coefficients == (F(1, 3), F(-1, 12))
        assert form.parity == "even"

    def test_power_three(self):
        assert shifted_form(3).coefficients == (F(1, 4), F(-1, 8), F(1, 64))

    def test_list_lengths(self):
        # even power 2m carries m+1 entries, odd power 2m+1 carries m+2
        for power in range(1, 31):
            form = shifted_form(power)
            if power % 2 == 0:
                assert len(form.coefficients) == power // 2 + 1
            else:
                assert len(form.coefficients) == (power - 1) // 2 + 2

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            shifted_form(0)


class TestClosedFormRoute:
    def test_power_one(self):
        assert shifted_closed_form(1).coefficients == (F(1, 2), F(-1, 8))

    def test_power_two(self):
        assert shifted_closed_form(2).coefficients == (F(1, 3), F(-1, 12))

    def test_power_three_coefficients_built_from_bernoulli_at_half(self):
        # e_0 = 1/4, e_1 = C(3,2) B_2(1/2) / 2 = -1/8, e_2 = -(e_0/16 + e_1/4)
        form = shifted_closed_form(3)
        assert form.coefficients == (F(1, 4), F(-1, 8), F(1, 64))
        e0, e1, e2 = form.coefficients
        assert e2 == -(e0 / 16 + e1 / 4)

    def test_agrees_with_conversion_route(self):
        for power in range(1, 41):
            assert shifted_closed_form(power) == shifted_form(power), power

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            shifted_closed_form(0)


class TestStructure:
    def test_single_parity_of_exponents(self):
        for power in range(1, 31):
            poly = shifted_form(power).shift_polynomial()
            want = 1 if power % 2 == 0 else 0  # even powers: odd exponents only
            for k, c in enumerate(poly.coeffs):
                if c != 0:
                    assert k % 2 == want, (power, k)

    def test_vanishes_at_half(self):
        # N = 1/2 is n = 0, where the empty sum must be zero
        for power in range(1, 31):
            assert shifted_form(power).shift_polynomial()(F(1, 2)) == 0

    def test_top_degree_is_power_plus_one(self):
        for power in range(1, 21):
            assert shifted_form(power).shift_polynomial().degree == power + 1

    def test_constant_term_exists_only_for_odd_powers(self):
        assert shifted_form(4).shift_polynomial().coefficient(0) == 0
        assert shifted_form(5).shift_polynomial().coefficient(0) != 0

    def test_stray_term_rejected(self, monkeypatch):
        wrong = shifted.SUM_OF_SQUARES_SHIFTED + X * X
        monkeypatch.setattr(shifted, "SUM_OF_SQUARES_SHIFTED", wrong)
        with pytest.raises(ConsistencyError, match=r"stray N\^2 term"):
            shifted_form(2)

    def test_wrong_degree_rejected(self, monkeypatch):
        wrong = shifted.SUM_OF_SQUARES_SHIFTED * X
        monkeypatch.setattr(shifted, "SUM_OF_SQUARES_SHIFTED", wrong)
        with pytest.raises(ConsistencyError, match="has degree 4, expected 3"):
            shifted_form(2)


class TestBackToMonomial:
    def test_power_one(self):
        assert shifted_to_monomial(shifted_form(1)) == powersum_monomial(1)

    def test_power_nine(self):
        assert shifted_to_monomial(shifted_form(9)) == powersum_monomial(9)

    def test_roundtrip(self):
        for power in range(1, 41):
            assert shifted_to_monomial(shifted_form(power)) == powersum_monomial(power)

    def test_closed_form_roundtrip(self):
        for power in range(1, 21):
            assert shifted_to_monomial(shifted_closed_form(power)) == powersum_monomial(power)

    def test_handmade_form(self):
        form = ShiftedForm(1, (F(1, 2), F(-1, 8)))
        assert shifted_to_monomial(form) == powersum_monomial(1)

    def test_roundtrip_suite_lists_triangular_then_shifted(self):
        report = verify_roundtrip(3)
        assert report.passed
        assert [line.label for line in report.lines] == [
            "triangular roundtrip, power 2",
            "triangular roundtrip, power 3",
            "shifted roundtrip, power 1",
            "shifted roundtrip, power 2",
            "shifted roundtrip, power 3",
        ]
        with pytest.raises(ValueError):
            verify_roundtrip(0)

    def test_roundtrip_suite_builds_each_triangular_form_once(self, monkeypatch):
        calls = []
        build = shifted.faulhaber_form

        def counted(power):
            calls.append(power)
            return build(power)

        monkeypatch.setattr(shifted, "faulhaber_form", counted)
        assert verify_roundtrip(20).passed
        assert sorted(calls) == list(range(2, 21))
