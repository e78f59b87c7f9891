"""The record contract shared by reports and forms: construction, equality,
hashing, immutability and repr."""

from __future__ import annotations

from fractions import Fraction

import pytest

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
        dict(power=2, parity="even", coefficients=(F(1),), multiplier=Multiplier.SUM_OF_SQUARES),
        "FaulhaberForm(power=2, parity='even', coefficients=(Fraction(1, 1),), "
        "multiplier=<Multiplier.SUM_OF_SQUARES: 'Sum(k^2)'>)",
    ),
    (
        ShiftedForm,
        dict(power=1, parity="odd", coefficients=(F(1, 2), F(-1, 8))),
        "ShiftedForm(power=1, parity='odd', coefficients=(Fraction(1, 2), Fraction(-1, 8)))",
    ),
]


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
    first = next(iter(fields))
    assert cls(**fields) != cls(**{**fields, first: None})


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


def test_records_of_different_classes_with_equal_fields_differ():
    line, report = CheckLine("x", True), VerificationReport("x", True)
    assert line != report
    assert report != line
