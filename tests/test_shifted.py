"""Half-shifted basis: conversion route vs closed-form route, parity
structure, and the substitution back to the monomial polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest

from faulhaber import shifted
from faulhaber.forms import ConsistencyError, ShiftedForm
from faulhaber.polynomial import Polynomial, X
from faulhaber.powersum import powersum_monomial
from faulhaber.shifted import (
    shifted_closed_form,
    shifted_form,
    shifted_to_monomial,
    verify_roundtrip,
)
from faulhaber.triangular import faulhaber_form, faulhaber_form_inductive

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
            poly = shifted_form(power).polynomial
            want = 1 if power % 2 == 0 else 0  # even powers: odd exponents only
            for k, c in enumerate(poly.coeffs):
                if c != 0:
                    assert k % 2 == want, (power, k)

    def test_vanishes_at_half(self):
        # N = 1/2 is n = 0, where the empty sum must be zero
        for power in range(1, 31):
            assert shifted_form(power).polynomial(F(1, 2)) == 0

    def test_top_degree_is_power_plus_one(self):
        for power in range(1, 21):
            assert shifted_form(power).polynomial.degree == power + 1

    def test_constant_term_exists_only_for_odd_powers(self):
        assert shifted_form(4).polynomial.coeffs[0] == 0
        assert shifted_form(5).polynomial.coeffs[0] != 0

    @staticmethod
    def _set_even_shifted_multiplier(monkeypatch, multiplier):
        """Replace the even multiplier in N in the table that the conversion reads."""
        odd = shifted.MULTIPLIERS_OF_SHIFT[1]
        monkeypatch.setattr(shifted, "MULTIPLIERS_OF_SHIFT", (multiplier, odd))

    def test_stray_term_rejected(self, monkeypatch):
        wrong = shifted.MULTIPLIERS_OF_SHIFT[0] + X * X
        self._set_even_shifted_multiplier(monkeypatch, wrong)
        with pytest.raises(ConsistencyError, match=r"stray N\^2 term"):
            shifted_form(2)

    def test_wrong_degree_rejected(self, monkeypatch):
        wrong = shifted.MULTIPLIERS_OF_SHIFT[0] * X
        self._set_even_shifted_multiplier(monkeypatch, wrong)
        with pytest.raises(ConsistencyError, match="has degree 4, expected 3"):
            shifted_form(2)

    def test_closed_form_rejects_a_sum_not_vanishing_at_half(self, monkeypatch):
        # an even power's odd polynomial must be 0 at N = 1/2 on its own; a wrong
        # B_2(1/2) breaks that, and subtracting the value leaves an N^0 term
        exact = shifted.bernoulli_at_half
        monkeypatch.setattr(
            shifted, "bernoulli_at_half", lambda r: exact(r) + (F(1, 1000) if r == 2 else 0)
        )
        with pytest.raises(ConsistencyError, match=r"stray N\^0 term"):
            shifted_closed_form(4)


class TestDerivedBasis:
    """The basis in N is derived from n = N - 1/2; these are the values it must give."""

    def test_n_minus_half(self):
        assert shifted.N_MINUS_HALF == X + F(-1, 2)

    def test_u_of_shift(self):
        assert shifted.U_OF_SHIFT == Polynomial((F(-1, 8), 0, F(1, 2)))

    def test_even_multiplier_of_shift(self):
        # sum k^2 = N(N^2/3 - 1/12)
        assert shifted.MULTIPLIERS_OF_SHIFT[0] == Polynomial((0, F(-1, 12), 0, F(1, 3)))

    def test_odd_multiplier_of_shift(self):
        # (sum k)^2 = (N^2/2 - 1/8)^2
        assert shifted.MULTIPLIERS_OF_SHIFT[1] == shifted.U_OF_SHIFT * shifted.U_OF_SHIFT


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
        form = ShiftedForm(1, Polynomial((F(-1, 8), 0, F(1, 2))))
        assert shifted_to_monomial(form) == powersum_monomial(1)

    @pytest.mark.parametrize("power, polynomial, message", [
        (1, Polynomial((F(-1, 8), 5, F(1, 2))), r"has a stray N\^1 term"),
        (2, Polynomial((0, F(1, 3))), "has degree 1, expected 3"),
        (3, Polynomial((F(1, 64), 0, F(-1, 8))), "has degree 2, expected 4"),
    ])
    def test_degree_and_parity_must_match_power(self, power, polynomial, message):
        with pytest.raises(ValueError, match=f"shifted form for power {power} {message}"):
            ShiftedForm(power, polynomial)

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


@pytest.mark.parametrize("power", [True, 2.0, 0, -1])
@pytest.mark.parametrize(
    "route, kind, least",
    [
        (faulhaber_form, "triangular", 2),
        (faulhaber_form_inductive, "triangular", 2),
        (shifted_form, "shifted", 1),
        (shifted_closed_form, "shifted", 1),
    ],
)
def test_every_form_route_reports_a_bad_power_as_the_callers_error(route, kind, least, power):
    # a ValueError, never the ConsistencyError kept for the library's own faults
    with pytest.raises(ValueError, match=f"^{kind} forms require an int power >= {least}$"):
        route(power)
