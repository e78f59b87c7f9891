"""The record contract shared by reports, forms and polynomials: construction,
equality, hashing, immutability and repr."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from faulhaber.polynomial import Polynomial
from faulhaber.reports import CheckLine, VerificationReport
from faulhaber.shifted import ShiftedForm
from faulhaber.triangular import FaulhaberForm, Multiplier

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
        dict(power=2, coefficients=(F(1),)),
        "FaulhaberForm(power=2, coefficients=(Fraction(1, 1),))",
    ),
    (
        ShiftedForm,
        dict(power=1, coefficients=(F(1, 2), F(-1, 8))),
        "ShiftedForm(power=1, coefficients=(Fraction(1, 2), Fraction(-1, 8)))",
    ),
    (
        Polynomial,
        dict(numerators=(4, -1), denominator=8),
        "Polynomial(numerators=(4, -1), denominator=8)",
    ),
]
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
    first, value = next(iter(fields.items()))
    # both forms keep their coefficient count from power 2 to 3 and from 1 to 2
    other = value + 1 if first == "power" else ()
    assert cls(**fields) != cls(**{**fields, first: other})


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
    pytest.param(FaulhaberForm(4, (F(BIG, 5), F(-1, 5))), id="big-FaulhaberForm"),
    pytest.param(ShiftedForm(2, (F(1, 3), F(-BIG, 12))), id="big-ShiftedForm"),
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


@pytest.mark.parametrize("cls, counts", [(FaulhaberForm, (2, 2)), (ShiftedForm, (3, 4))])
def test_parity_and_multiplier_follow_from_the_power(cls, counts):
    # counts: how many coefficients a form has at powers 4 and 5
    even, odd = (cls(power, (F(1),) * count) for power, count in zip((4, 5), counts))
    assert (even.parity, odd.parity) == ("even", "odd")
    if cls is FaulhaberForm:
        assert even.multiplier is Multiplier.SUM_OF_SQUARES
        assert odd.multiplier is Multiplier.SQUARE_OF_SUM
    else:
        assert not hasattr(even, "multiplier")
    for extra in (dict(parity="even"), dict(multiplier=Multiplier.SUM_OF_SQUARES)):
        with pytest.raises(TypeError):
            cls(4, even.coefficients, **extra)
    with pytest.raises(TypeError):
        cls(4, "even", even.coefficients)


@pytest.mark.parametrize("cls, power, coefficients", [
    (FaulhaberForm, 4, (1.2, -0.2)),
    (FaulhaberForm, 5, (F(4, 3), True)),
    (ShiftedForm, 2, (0.5, "x")),
    (ShiftedForm, 1, (F(1, 2), None)),
])
def test_a_form_takes_only_exact_coefficients(cls, power, coefficients):
    with pytest.raises(TypeError, match="coefficients must be exact rationals, not"):
        cls(power, coefficients)
    exact = tuple(F(1, k) for k in range(1, len(coefficients) + 1))
    assert cls(power, list(exact)).coefficients == exact  # stored as a tuple


def test_a_polynomial_has_no_parity_or_multiplier():
    assert not hasattr(Polynomial((1,)), "parity")
    assert not hasattr(Polynomial((1,)), "multiplier")


def test_records_of_different_classes_with_equal_fields_differ():
    line, report = CheckLine("x", True), VerificationReport("x", True)
    assert line != report
    assert report != line
