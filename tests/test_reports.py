"""The record contract shared by reports, forms and polynomials: construction,
equality, hashing, immutability and repr."""

from __future__ import annotations

import copy
import pickle
import sys
from fractions import Fraction

import pytest

from faulhaber.forms import FaulhaberForm, Multiplier, ShiftedForm
from faulhaber.polynomial import Polynomial, X
from faulhaber.reports import CheckLine, VerificationReport

F = Fraction

#: (class, fields in order, expected repr)
RECORDS = [
    (CheckLine, dict(label="B_3 = 0", passed=True), "CheckLine(label='B_3 = 0', passed=True)"),
    (
        VerificationReport,
        dict(name="odd-bernoulli", lines=(CheckLine("B_3 = 0", True),)),
        "VerificationReport(name='odd-bernoulli', lines=(CheckLine(label='B_3 = 0', passed=True),))",
    ),
    (
        FaulhaberForm,
        dict(power=2, polynomial=Polynomial((1,))),
        "FaulhaberForm(power=2, polynomial=Polynomial(numerators=(1,), denominator=1))",
    ),
    (
        ShiftedForm,
        dict(power=1, polynomial=Polynomial((F(-1, 8), 0, F(1, 2)))),
        "ShiftedForm(power=1, polynomial=Polynomial(numerators=(-1, 0, 4), denominator=8))",
    ),
    (
        Polynomial,
        dict(numerators=(4, -1), denominator=8),
        "Polynomial(numerators=(4, -1), denominator=8)",
    ),
]
#: per class, one field set to another value that it accepts
CHANGED = {
    CheckLine: dict(passed=False),
    VerificationReport: dict(lines=()),
    FaulhaberForm: dict(power=3),  # the u-polynomial 1 serves power 3 as well
    ShiftedForm: dict(polynomial=Polynomial((F(-1, 8), 0, F(1, 4)))),
    Polynomial: dict(denominator=9),
}
#: every record class by name, and Fraction: what a repr needs to be evaluated
NAMES = {cls.__name__: cls for cls, _, _ in RECORDS} | {"Fraction": Fraction}
#: more digits than str(int) writes at the interpreter's default limit (4300)
BIG = 10**4400 + 1


@pytest.fixture(params=RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def record(request):
    return request.param


def test_positional_and_keyword_construction_agree(record):
    cls, fields, _ = record
    positional, keyword = cls(*fields.values()), cls(**fields)
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert {name: getattr(keyword, name) for name in fields} == fields


def test_never_equal_to_a_tuple_of_its_fields(record):
    cls, fields, _ = record
    values = tuple(fields.values())
    assert cls(*values) != values
    assert values != cls(*values)


def test_unequal_when_a_field_differs(record):
    cls, fields, _ = record
    assert cls(**fields) != cls(**{**fields, **CHANGED[cls]})


def test_field_assignment_raises(record):
    cls, fields, _ = record
    obj = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = None
    assert cls(**fields) == obj


def test_repr_names_the_class_and_its_fields(record):
    cls, fields, expected = record
    assert repr(cls(**fields)) == expected


@pytest.mark.parametrize("value", [
    *(pytest.param(cls(**fields), id=cls.__name__) for cls, fields, _ in RECORDS),
    pytest.param(Polynomial((F(BIG, 3), -1)), id="big-Polynomial"),
    pytest.param(FaulhaberForm(4, Polynomial((F(-1, 5), F(BIG, 5)))), id="big-FaulhaberForm"),
    pytest.param(ShiftedForm(2, Polynomial((0, F(-BIG, 12), 0, F(1, 3)))), id="big-ShiftedForm"),
])
def test_repr_at_any_length_rebuilds_an_equal_value(value):
    text = repr(value)
    # Python reads an int literal through the digit limit too, so only the eval lifts it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rebuilt = eval(text, dict(NAMES))
    finally:
        sys.set_int_max_str_digits(limit)
    assert rebuilt == value


@pytest.mark.parametrize("round_trip", [
    copy.copy,
    copy.deepcopy,
    lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_deepcopy_and_pickle_rebuild_an_equal_value(record, round_trip):
    cls, fields, _ = record
    value = cls(**fields)
    rebuilt = round_trip(value)
    assert type(rebuilt) is cls
    assert rebuilt == value


@pytest.mark.parametrize("cls, polynomials", [
    (FaulhaberForm, (X, X)),
    (ShiftedForm, (Polynomial((0,) * 5 + (1,)), Polynomial((0,) * 6 + (1,)))),
])
def test_parity_and_multiplier_follow_from_the_power(cls, polynomials):
    # polynomials: one form's polynomial at power 4 and one at power 5
    even, odd = (cls(power, poly) for power, poly in zip((4, 5), polynomials))
    assert (even.parity, odd.parity) == ("even", "odd")
    if cls is FaulhaberForm:
        assert even.multiplier is Multiplier.SUM_OF_SQUARES
        assert odd.multiplier is Multiplier.SQUARE_OF_SUM
    else:
        assert not hasattr(even, "multiplier")
    for extra in (dict(parity="even"), dict(multiplier=Multiplier.SUM_OF_SQUARES)):
        with pytest.raises(TypeError):
            cls(4, even.polynomial, **extra)
    with pytest.raises(TypeError):
        cls(4, "even", even.polynomial)


@pytest.mark.parametrize("cls, power, coefficients", [
    (FaulhaberForm, 4, (1.2, -0.2)),
    (FaulhaberForm, 5, (F(4, 3), True)),
    (ShiftedForm, 2, (0.5, "x")),
    (ShiftedForm, 1, (F(1, 2), None)),
])
def test_a_form_takes_only_a_polynomial_of_exact_coefficients(cls, power, coefficients):
    with pytest.raises(TypeError, match="form holds a Polynomial, not tuple"):
        cls(power, coefficients)
    with pytest.raises(TypeError, match="coefficients must be exact rationals, not"):
        cls(power, Polynomial(coefficients))


@pytest.mark.parametrize("cls, power, polynomial", [
    (FaulhaberForm, 0, Polynomial()),
    (FaulhaberForm, 1, Polynomial()),  # its degree -1 is 1 // 2 - 1: only the power is wrong
    (ShiftedForm, 0, Polynomial((0, 1))),
    (FaulhaberForm, 4.0, Polynomial((F(-1, 5), F(6, 5)))),
    (ShiftedForm, True, Polynomial((F(-1, 8), 0, F(1, 2)))),
])
def test_a_form_takes_only_an_int_power_in_its_range(cls, power, polynomial):
    with pytest.raises(ValueError, match="forms require an int power >= "):
        cls(power, polynomial)


@pytest.mark.parametrize("form, coefficients", [
    (FaulhaberForm(4, Polynomial((F(-1, 5), F(6, 5)))), (F(6, 5), F(-1, 5))),
    (ShiftedForm(2, Polynomial((0, F(-1, 12), 0, F(1, 3)))), (F(1, 3), F(-1, 12))),
    (ShiftedForm(1, Polynomial((F(-1, 8), 0, F(1, 2)))), (F(1, 2), F(-1, 8))),
])
def test_coefficients_read_the_polynomial_in_paper_order(form, coefficients):
    assert form.coefficients == coefficients
    with pytest.raises(AttributeError):
        form.coefficients = coefficients


def test_a_polynomial_has_no_parity_or_multiplier():
    assert not hasattr(Polynomial((1,)), "parity")
    assert not hasattr(Polynomial((1,)), "multiplier")


@pytest.mark.parametrize(
    "outcomes, summary",
    [
        ((True,), "s: PASS (1 check)"),
        ((False,), "s: FAIL (1 check, 1 failed)"),
        ((True, True), "s: PASS (2 checks)"),
        ((True, False), "s: FAIL (2 checks, 1 failed)"),
    ],
)
def test_summary_counts_one_check_in_the_singular(outcomes, summary):
    lines = tuple(CheckLine(f"check {i}", ok) for i, ok in enumerate(outcomes))
    assert VerificationReport("s", lines).summary() == summary


def test_records_of_different_classes_with_equal_fields_differ():
    line, report = CheckLine("x", True), VerificationReport("x", True)
    assert line != report
    assert report != line
