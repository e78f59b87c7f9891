"""The independence claim as a test: the two routes that one check compares
share no library code beyond `Polynomial`, the report records, the forms'
shape check and the Bernoulli table.

Each side runs under `sys.setprofile`, which records every `faulhaber` frame
it enters as (module, function, first line); the first line tells apart two
functions of one module with the same name, such as two lambdas.
"""

from __future__ import annotations

import sys
import types
from fractions import Fraction

import pytest

from faulhaber import cli
from faulhaber.bernoulli import (
    BernoulliCache,
    bernoulli_at_half,
    bernoulli_number,
    bernoulli_polynomial,
)
from faulhaber.forms import FaulhaberForm, ShiftedForm, _Form
from faulhaber.powersum import powersum_monomial, powersum_via_bernoulli_poly
from faulhaber.recurrence import he_ricci_polynomial, partial_sum_polynomial
from faulhaber.shifted import shifted_closed_form, shifted_form, shifted_to_monomial
from faulhaber.triangular import expand_to_monomial, faulhaber_form, faulhaber_form_inductive

P = 31


def frames_of(function) -> set[tuple[str, str, int]]:
    """The frames a function can enter: its own and those of the code nested in it."""
    codes = [function.__code__]
    for code in codes:
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return {(function.__module__, code.co_name, code.co_firstlineno) for code in codes}


#: modules every route may run
SHARED_MODULES = {"faulhaber.polynomial", "faulhaber.reports"}
#: functions of other modules every route may run: the forms' shape check and the table
SHARED_FUNCTIONS = set().union(
    *map(
        frames_of,
        (
            _Form.__init__,
            _Form.from_route.__func__,
            FaulhaberForm._shape[2],
            ShiftedForm._shape[2],
            BernoulliCache.get,
            bernoulli_number,
        ),
    )
)


def constant_term_over_six(power: int) -> Fraction:
    polynomial = faulhaber_form(power).polynomial
    return Fraction(polynomial.numerators[0], 6 * polynomial.denominator)


#: name -> the two routes that one check compares, each at power P (or the even P - 1)
PAIRS = {
    "triangular: direct against inductive": (
        lambda: faulhaber_form(P),
        lambda: faulhaber_form_inductive(P),
    ),
    "shifted: conversion against closed form": (
        lambda: shifted_form(P),
        lambda: shifted_closed_form(P),
    ),
    "Bernoulli polynomial against He-Ricci recurrence": (
        lambda: bernoulli_polynomial(P),
        lambda: he_ricci_polynomial(P),
    ),
    "power sum against power-sum recurrence": (
        lambda: powersum_monomial(P),
        lambda: partial_sum_polynomial(P),
    ),
    "power sum against Bernoulli-polynomial difference": (
        lambda: powersum_monomial(P),
        lambda: powersum_via_bernoulli_poly(P),
    ),
    "even form's constant term against the Bernoulli number": (
        lambda: constant_term_over_six(P - 1),
        lambda: bernoulli_number(P - 1),
    ),
    "Bernoulli value at 1/2 against the polynomial": (
        lambda: bernoulli_at_half(P - 1),
        lambda: bernoulli_polynomial(P - 1)(Fraction(1, 2)),
    ),
}

#: name -> (the two sides, the one route they share, why the check still counts).
#: A form is split from the monomial sum, so expanding it back and comparing with
#: that sum checks that the basis change inverts, not that two routes agree.
INVERSE_PAIRS = {
    "triangular roundtrip": (
        (lambda: expand_to_monomial(faulhaber_form(P)), lambda: powersum_monomial(P)),
        powersum_monomial,
        "faulhaber_form is read off powersum_monomial",
    ),
    "shifted roundtrip": (
        (lambda: shifted_to_monomial(shifted_form(P)), lambda: powersum_monomial(P)),
        powersum_monomial,
        "shifted_form converts faulhaber_form, which is read off powersum_monomial",
    ),
}

#: verify suite -> the pairs it compares, or why it compares no two routes
SUITE_PAIRS = {
    "odd-bernoulli": "each B_(2m+1) is compared with 0",
    "roundtrip": ("triangular roundtrip", "shifted roundtrip"),
    "lemma": "each bridge identity is checked on its own, as polynomials and on integers",
    "recurrence": (
        "Bernoulli polynomial against He-Ricci recurrence",
        "power sum against power-sum recurrence",
    ),
    "constant-term": ("even form's constant term against the Bernoulli number",),
}


def traced(route) -> tuple[object, set[tuple[str, str, int]]]:
    """route()'s result and every library frame it entered."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("faulhaber."):
            code = frame.f_code
            seen.add((frame.f_globals["__name__"], code.co_name, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        result = route()
    finally:
        sys.setprofile(None)
    return result, seen


def unshared_common_frames(left, right) -> tuple[object, object, set]:
    """Both results, and the frames both sides entered outside the allowed set."""
    left_result, left_frames = traced(left)
    right_result, right_frames = traced(right)
    assert left_frames and right_frames
    common = {
        frame
        for frame in left_frames & right_frames
        if frame[0] not in SHARED_MODULES and frame not in SHARED_FUNCTIONS
    }
    return left_result, right_result, common


@pytest.mark.parametrize("name", PAIRS)
def test_compared_routes_share_only_the_allowed_code(name):
    left, right, common = unshared_common_frames(*PAIRS[name])
    assert left == right
    assert common == set(), name


@pytest.mark.parametrize("name", INVERSE_PAIRS)
def test_an_inverse_pair_shares_exactly_the_route_it_inverts(name):
    sides, shared, reason = INVERSE_PAIRS[name]
    left, right, common = unshared_common_frames(*sides)
    assert left == right
    assert (shared.__module__, shared.__name__, shared.__code__.co_firstlineno) in common, reason
    assert common <= frames_of(shared), reason


def test_every_suite_declares_the_pairs_it_compares():
    assert list(SUITE_PAIRS) == list(cli.SUITES)
    for pairs in SUITE_PAIRS.values():
        if not isinstance(pairs, str):
            assert set(pairs) <= PAIRS.keys() | INVERSE_PAIRS.keys()
