"""Triangular-basis forms: decomposition, both Faulhaber routes, the bridge
identities, and the constant-term link back to the Bernoulli numbers."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faulhaber import powersum, triangular
from faulhaber.bernoulli import bernoulli_number
from faulhaber.polynomial import Polynomial, X
from faulhaber.powersum import oracle_sum, powersum_monomial
from faulhaber.reports import CheckLine
from faulhaber.triangular import (
    U_OF_N,
    ConsistencyError,
    FaulhaberForm,
    Multiplier,
    NotTriangular,
    expand_to_monomial,
    faulhaber_form,
    faulhaber_form_inductive,
    square_in_triangular,
    triangular_decompose,
    verify_constant_term_bernoulli,
    verify_lemma,
)

F = Fraction

u_coefficient_lists = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=10), max_size=11
)
wide_u_coefficient_lists = st.lists(
    st.one_of(st.just(F(0)), st.fractions(min_value=-40, max_value=40, max_denominator=50)),
    max_size=16,
)


def reference_strip(p: list[Fraction]) -> str | None:
    """The NotTriangular message of stripping leading multiples of u**d off p
    on plain Fraction lists, or None when nothing odd is left over."""
    u_powers = [[F(1)]]
    while len(u_powers[-1]) < len(p):
        last = u_powers[-1]
        nxt = [F(0)] * (len(last) + 2)
        for i, c in enumerate(last):
            nxt[i + 1] += c / 2
            nxt[i + 2] += c / 2
        u_powers.append(nxt)
    rem = list(p)
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return None
        d = len(rem) - 1
        if d % 2:
            return f"stripping left an odd-degree remainder (degree {d})"
        c = rem[-1] * 2 ** (d // 2)
        for i, b in enumerate(u_powers[d // 2]):
            rem[i] -= c * b


class TestDecompose:
    def test_u_itself(self):
        assert triangular_decompose(Polynomial((0, 1, 1))) == Polynomial((0, 2))

    def test_u_squared(self):
        p = Polynomial((0, 0, F(1, 4), F(1, 2), F(1, 4)))
        assert triangular_decompose(p) == Polynomial((0, 0, 1))

    def test_zero(self):
        assert triangular_decompose(Polynomial()).is_zero

    def test_constant(self):
        assert triangular_decompose(Polynomial((5,))) == Polynomial((5,))

    def test_odd_degree_rejected(self):
        with pytest.raises(NotTriangular):
            triangular_decompose(Polynomial((0, 0, 0, 1)))  # n^3

    def test_asymmetric_even_degree_rejected(self):
        with pytest.raises(NotTriangular):
            triangular_decompose(Polynomial((0, 0, 1)))  # n^2

    @given(u_coefficient_lists)
    @settings(max_examples=60)
    def test_roundtrip_from_u_side(self, coeffs):
        q = Polynomial(coeffs)
        assert triangular_decompose(q.compose(U_OF_N)) == q

    @given(wide_u_coefficient_lists)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_with_gaps_and_large_coefficients(self, coeffs):
        q = Polynomial(coeffs)
        assert triangular_decompose(q.compose(U_OF_N)) == q

    @given(
        st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=50), min_size=2, max_size=16),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_odd_term_below_the_top_raises_like_the_reference_strip(self, coeffs, data):
        q = Polynomial(coeffs[:-1] + [coeffs[-1] or F(1)])
        k = data.draw(st.integers(min_value=0, max_value=q.degree - 1), label="k")
        c = data.draw(st.fractions(max_denominator=50).filter(bool), label="c")
        p = q.compose(U_OF_N) + Polynomial([0] * (2 * k + 1) + [c])
        message = reference_strip(list(p.coeffs))
        assert message is not None
        with pytest.raises(NotTriangular) as caught:
            triangular_decompose(p)
        assert str(caught.value) == message


class TestDirectForm:
    def test_power_two(self):
        form = faulhaber_form(2)
        assert form.coefficients == (F(1),)
        assert form.multiplier is Multiplier.SUM_OF_SQUARES
        assert form.parity == "even"

    def test_power_three(self):
        form = faulhaber_form(3)
        assert form.coefficients == (F(1),)
        assert form.multiplier is Multiplier.SQUARE_OF_SUM
        assert form.parity == "odd"

    def test_power_four(self):
        assert faulhaber_form(4).coefficients == (F(6, 5), F(-1, 5))

    def test_power_five(self):
        assert faulhaber_form(5).coefficients == (F(4, 3), F(-1, 3))

    def test_coefficient_count_is_half_the_power(self):
        for power in range(2, 41):
            form = faulhaber_form(power)
            assert len(form.coefficients) == power // 2
            assert form.coefficients[0] != 0  # leading u power genuinely present

    def test_power_one_excluded(self):
        with pytest.raises(ValueError):
            faulhaber_form(1)

    def test_u_polynomial_view_reverses_descending_order(self):
        form = faulhaber_form(4)
        assert form.u_polynomial() == Polynomial((F(-1, 5), F(6, 5)))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_nonzero_odd_bernoulli_breaks_divisibility(self, monkeypatch, k):
        # the converse, contrapositively: B_(2k+1) != 0 gives S_(2k+1) a linear
        # term, which the n^2 in (sum k)^2 cannot divide
        exact = powersum.bernoulli_number
        monkeypatch.setattr(
            powersum, "bernoulli_number", lambda j: exact(j) + (1 if j == 2 * k + 1 else 0)
        )
        with pytest.raises(ConsistencyError, match=r"not divisible by Sum\(k\)\^2"):
            faulhaber_form(2 * k + 1)


class TestInductiveForm:
    def test_power_four(self):
        assert faulhaber_form_inductive(4).coefficients == (F(6, 5), F(-1, 5))

    def test_power_six(self):
        assert faulhaber_form_inductive(6).coefficients == (F(12, 7), F(-6, 7), F(1, 7))

    def test_power_seven(self):
        assert faulhaber_form_inductive(7).coefficients == (F(2), F(-4, 3), F(1, 3))

    def test_agrees_with_direct_route(self):
        for power in range(2, 31):
            assert faulhaber_form_inductive(power) == faulhaber_form(power), power

    def test_power_one_excluded(self):
        with pytest.raises(ValueError):
            faulhaber_form_inductive(1)

    def test_stray_linear_sum_term_raises(self, monkeypatch):
        # B_4 one too high no longer cancels the constant of the power-4 form
        exact = triangular.bernoulli_number
        monkeypatch.setattr(
            triangular, "bernoulli_number", lambda m: exact(m) + (1 if m == 4 else 0)
        )
        with pytest.raises(ConsistencyError, match="stray linear-sum term at power 5"):
            faulhaber_form_inductive(5)


class TestExpansion:
    def test_power_four_back_to_monomial(self):
        assert expand_to_monomial(faulhaber_form(4)) == powersum_monomial(4)

    def test_roundtrip(self):
        for power in range(2, 41):
            assert expand_to_monomial(faulhaber_form(power)) == powersum_monomial(power)

    def test_expansion_of_handmade_form(self):
        form = FaulhaberForm(2, (F(1),))
        assert expand_to_monomial(form) == powersum_monomial(2)


class TestSquareInTriangular:
    def test_square_of_sum_of_squares(self):
        assert square_in_triangular(2) == Polynomial((0, 0, F(1, 9), F(8, 9)))

    def test_square_of_power_four_sum_numerically(self):
        q = square_in_triangular(4)
        for n in range(1, 21):
            u = n * (n + 1) // 2
            assert q(u) == oracle_sum(4, n) ** 2

    def test_even_powers_up_to_ten_numerically(self):
        for power in range(2, 11, 2):
            q = square_in_triangular(power)
            for n in range(1, 21):
                assert q(n * (n + 1) // 2) == oracle_sum(power, n) ** 2

    def test_odd_power_rejected(self):
        with pytest.raises(ValueError):
            square_in_triangular(3)
        with pytest.raises(ValueError):
            square_in_triangular(0)


class TestLemma:
    def test_passes_symbolically_and_numerically(self):
        report = verify_lemma(30)
        assert report.passed
        assert len(report.lines) == 4

    def test_hand_values_at_two(self):
        # (2 + 1/2) * 3^2 == (3/2) * 3 * 5 and (2 + 1/2) * 5 == (4 + 1/6) * 3
        assert (2 + F(1, 2)) * oracle_sum(1, 2) ** 2 == F(3, 2) * 3 * oracle_sum(2, 2)
        assert (2 + F(1, 2)) * oracle_sum(2, 2) == (F(4, 3) * 3 + F(1, 6)) * oracle_sum(1, 2)

    def test_symbolic_identity_restated(self):
        half = F(1, 2)
        sum_sq = powersum_monomial(2)
        sq_sum = powersum_monomial(1) * powersum_monomial(1)
        assert (X + half) * sq_sum == F(3, 2) * U_OF_N * sum_sq
        assert (X + half) * sum_sq == (F(4, 3) * U_OF_N + F(1, 6)) * U_OF_N

    def test_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma(0)

    def test_integer_failure_names_first_n(self, monkeypatch):
        # sum(k^2) at n = 3 one too high breaks both identities on integers only
        exact = triangular._running_sums
        monkeypatch.setattr(
            triangular,
            "_running_sums",
            lambda max_n: ((n, s1, s2 + (1 if n == 3 else 0)) for n, s1, s2 in exact(max_n)),
        )
        report = verify_lemma(5)
        assert not report.passed
        assert report.lines == (
            CheckLine("identity 1, polynomial", True),
            CheckLine("identity 2, polynomial", True),
            CheckLine("identity 1, integers n <= 5 (first failure n=3)", False),
            CheckLine("identity 2, integers n <= 5 (first failure n=3)", False),
        )

    def test_integer_sweep_is_linear(self):
        # summing 1..n afresh for every n would take minutes at this bound
        start = time.perf_counter()
        report = verify_lemma(20_000)
        elapsed = time.perf_counter() - start
        assert report.passed, report.first_failure
        assert elapsed < 5.0, f"verify_lemma(20000) exceeded its 5 s budget ({elapsed:.2f} s)"


class TestConstantTermBridge:
    def test_power_four_case(self):
        assert faulhaber_form(4).coefficients[-1] / 6 == F(-1, 30) == bernoulli_number(4)

    def test_power_six_case(self):
        assert faulhaber_form(6).coefficients[-1] / 6 == bernoulli_number(6) == F(1, 42)

    def test_report(self):
        report = verify_constant_term_bernoulli(30)
        assert report.passed
        assert len(report.lines) == 29

    def test_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_constant_term_bernoulli(1)
