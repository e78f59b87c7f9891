"""Acceptance gate: eleven criteria, every comparison exact, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with timings. Each test asserts exact rational equality (zero
tolerance) and, where a budget is stated, that the wall-clock time stayed
inside it.
"""

from __future__ import annotations

import time
from fractions import Fraction

from faulhaber.bernoulli import BernoulliCache, bernoulli_number
from faulhaber.forms import FaulhaberForm
from faulhaber.powersum import oracle_sum, powersum_monomial
from faulhaber.recurrence import verify_recurrence_consistency
from faulhaber.shifted import shifted_closed_form, shifted_form, shifted_to_monomial
from faulhaber.triangular import (
    _inductive_table,
    expand_to_monomial,
    faulhaber_form,
    verify_constant_term_bernoulli,
    verify_lemma,
)

F = Fraction


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(tag: str, description: str, elapsed: float, limit: float | None) -> None:
    budget = f", budget {limit:g} s" if limit is not None else ""
    print(f"[{tag}] PASS: {description} ({elapsed:.2f} s{budget})")
    if limit is not None:
        assert elapsed < limit, f"{tag} exceeded its {limit} s budget ({elapsed:.2f} s)"


def _monomial_descending_without_constant(m: int) -> tuple[Fraction, ...]:
    poly = powersum_monomial(m)
    return poly.coeffs[:0:-1]


def test_criterion_01_documented_coefficients_powers_one_to_five():
    expected_monomial = {
        1: (F(1, 2), F(1, 2)),
        2: (F(1, 3), F(1, 2), F(1, 6)),
        3: (F(1, 4), F(1, 2), F(1, 4)),
        4: (F(1, 5), F(1, 2), F(1, 3), F(0), F(-1, 30)),
        5: (F(1, 6), F(1, 2), F(5, 12), F(0), F(-1, 12), F(0)),
    }
    expected_triangular = {
        2: (F(1),),
        3: (F(1),),
        4: (F(6, 5), F(-1, 5)),
        5: (F(4, 3), F(-1, 3)),
    }
    with _Timer() as t:
        for m, coeffs in expected_monomial.items():
            padded = coeffs + (F(0),) * (m + 1 - len(coeffs))
            assert _monomial_descending_without_constant(m) == padded, m
            assert powersum_monomial(m).coeffs[0] == 0
        for power, coeffs in expected_triangular.items():
            assert faulhaber_form(power).coefficients == coeffs, power
    _report("A-01", "monomial and triangular coefficients for powers 1-5", t.elapsed, 1.0)


def test_criterion_02_documented_shifted_forms():
    with _Timer() as t:
        assert shifted_form(1).coefficients == (F(1, 2), F(-1, 8))
        assert shifted_form(2).coefficients == (F(1, 3), F(-1, 12))
    _report("A-02", "shifted coefficients for powers 1-2", t.elapsed, 1.0)


def test_criterion_03_oracle_equivalence_6000_points():
    with _Timer() as t:
        checks = 0
        for m in range(1, 31):
            poly = powersum_monomial(m)
            for n in range(1, 201):
                assert poly(n) == oracle_sum(m, n), (m, n)
                checks += 1
        assert checks == 6000
    _report("A-03", "polynomial = brute force, 1<=m<=30, 1<=n<=200", t.elapsed, 30.0)


def test_criterion_04_odd_bernoulli_vanish():
    with _Timer() as t:
        cache = BernoulliCache()
        for m in range(1, 101):
            assert cache.get(2 * m + 1) == 0, m
    _report("A-04", "B_(2m+1) = 0 for 1<=m<=100", t.elapsed, 10.0)


def test_criterion_05_roundtrips():
    with _Timer() as t:
        for power in range(2, 101):
            assert expand_to_monomial(faulhaber_form(power)) == powersum_monomial(power), power
        for power in range(1, 61):
            assert shifted_to_monomial(shifted_form(power)) == powersum_monomial(power), power
    _report("A-05", "triangular (<=100) and shifted (<=60) expand back exactly", t.elapsed, 60.0)


def test_criterion_06_inductive_agrees_with_direct():
    with _Timer() as t:
        # any stray linear-sum residue inside the induction raises, failing here
        table = _inductive_table(40)
        for power in range(2, 41):
            assert FaulhaberForm(power, table[power]) == faulhaber_form(power), power
    _report("A-06", "inductive route = direct route for 2<=power<=40", t.elapsed, 60.0)


def test_criterion_07_closed_form_shifted_coefficients():
    with _Timer() as t:
        for power in range(1, 61):
            assert shifted_closed_form(power) == shifted_form(power), power
    _report("A-07", "closed-form shifted coefficients match conversion (<=60)", t.elapsed, 30.0)


def test_criterion_08_lemma_identities():
    with _Timer() as t:
        report = verify_lemma(100)
        assert report.passed, report.first_failure
    _report("A-08", "bridge identities, polynomial and numeric n<=100", t.elapsed, None)


def test_criterion_09_recurrence_consistency():
    with _Timer() as t:
        report = verify_recurrence_consistency(40)
        assert report.passed, report.first_failure
    _report("A-09", "both recurrences reproduce direct constructions, m<=40", t.elapsed, 30.0)


def test_criterion_10_constant_term_bridge():
    with _Timer() as t:
        report = verify_constant_term_bernoulli(30)
        assert report.passed, report.first_failure
        # spot value: power 4 form ends in -1/5 and (-1/5)/6 = B_4
        assert faulhaber_form(4).coefficients[-1] / 6 == bernoulli_number(4) == F(-1, 30)
    _report("A-10", "constant term of even forms / 6 = B_(2m), 2<=m<=30", t.elapsed, None)


def test_criterion_11_performance_envelope():
    with _Timer() as t1:
        form = faulhaber_form(200)
    assert form.coefficients[0] != 0 and len(form.coefficients) == 100
    with _Timer() as t2:
        value = BernoulliCache().get(200)
    assert value == bernoulli_number(200)
    assert t1.elapsed < 10.0, f"faulhaber_form(200) took {t1.elapsed:.2f} s"
    assert t2.elapsed < 10.0, f"bernoulli_number(200) took {t2.elapsed:.2f} s"
    print(
        f"[A-11] PASS: faulhaber_form(200) in {t1.elapsed:.2f} s, "
        f"bernoulli_number(200) in {t2.elapsed:.2f} s (budget 10 s each)"
    )
