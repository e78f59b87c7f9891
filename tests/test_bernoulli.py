"""Bernoulli numbers and polynomials, cross-checked against the defining
recurrence on plain Fractions and a tangent-number oracle, which share
nothing with the Akiyama-Tanigawa triangle in the package."""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faulhaber.bernoulli import (
    BernoulliCache,
    bernoulli_at_half,
    bernoulli_number,
    bernoulli_polynomial,
    verify_odd_zero,
)
from faulhaber.polynomial import Polynomial

F = Fraction


def fraction_recurrence(n: int) -> list[Fraction]:
    """B_0..B_n from sum(C(m+1, k) B_k, k = 0..m) = 0 on plain Fractions."""
    out = [F(1)]
    for m in range(1, n + 1):
        out.append(-sum(comb(m + 1, k) * out[k] for k in range(m)) / (m + 1))
    return out


def tangent_numbers(n: int) -> list[int]:
    """T_1..T_n by Brent and Harvey's in-place integer algorithm (arXiv:1108.0286)."""
    t = [0, 1] + [0] * (n - 1)  # t[k] = T_k
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


RECURRENCE = fraction_recurrence(150)
ONE_SHOT = BernoulliCache()
ONE_SHOT.get(300)


class TestNumbers:
    @pytest.mark.parametrize(
        "m, expected",
        [
            (0, F(1)),
            (1, F(-1, 2)),
            (2, F(1, 6)),
            (3, F(0)),
            (4, F(-1, 30)),
            (6, F(1, 42)),
            (12, F(-691, 2730)),
        ],
    )
    def test_known_values(self, m, expected):
        assert bernoulli_number(m) == expected

    def test_matches_independent_oracle(self):
        assert [bernoulli_number(m) for m in range(151)] == RECURRENCE

    def test_tangent_numbers_pin_every_even_value_to_600(self):
        # B_2n = (-1)**(n-1) * 2n * T_n / (4**n * (4**n - 1)); the oracle assumes
        # the odd values vanish, so it pins only the even ones
        assert tangent_numbers(4) == [1, 2, 16, 272]
        for n, t in enumerate(tangent_numbers(300), 1):
            expected = F((-1) ** (n - 1) * 2 * n * t, 4**n * (4**n - 1))
            assert bernoulli_number(2 * n) == expected, 2 * n

    def test_defining_recurrence_residue_vanishes(self):
        # sum(C(n+1, k) B_k, k = 0..n) == 0 for n >= 1
        for n in range(1, 301):
            residue = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
            assert residue == 0, n

    def test_odd_values_vanish(self):
        assert all(bernoulli_number(2 * m + 1) == 0 for m in range(1, 301))

    def test_values_are_reduced_with_positive_denominator(self):
        for m in range(40):
            b = bernoulli_number(m)
            assert b.denominator > 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)


class TestCache:
    def test_fills_all_lower_indices(self):
        cache = BernoulliCache()
        assert cache.high_water == 0
        cache.get(10)
        assert cache.high_water == 10

    def test_reuse_does_not_shrink(self):
        cache = BernoulliCache()
        cache.get(8)
        cache.get(3)
        assert cache.high_water == 8

    def test_concurrent_readers_and_extenders(self):
        cache = BernoulliCache()
        results: dict[int, Fraction] = {}

        def worker(idx: int) -> None:
            results[idx] = cache.get(40 + idx % 7)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for idx, value in results.items():
            assert value == RECURRENCE[40 + idx % 7]

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_growth_in_random_steps_matches_one_shot_fill(self, steps):
        cache = BernoulliCache()
        target = 0
        for step in steps:
            target = min(150, target + step)
            cache.get(target)
        assert cache.high_water == target
        values = [cache.get(m) for m in range(151)]
        assert values == [ONE_SHOT.get(m) for m in range(151)]
        assert values == RECURRENCE

    def test_threads_extending_to_different_targets_read_the_same_values(self):
        cache = BernoulliCache()
        targets = [60, 300, 95, 240, 130, 175, 210, 280]
        start = threading.Barrier(len(targets))
        results: dict[int, list[Fraction]] = {}

        def worker(target: int) -> None:
            start.wait()
            cache.get(target)
            results[target] = [cache.get(m) for m in range(target + 1)]

        threads = [threading.Thread(target=worker, args=(t,)) for t in targets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert cache.high_water == 300
        for target, values in results.items():
            assert values == [ONE_SHOT.get(m) for m in range(target + 1)], target
        assert results[300][:151] == RECURRENCE


def raise_at_opcode(cache: BernoulliCache, m: int, count: int, exc: type[BaseException]) -> bool:
    """Call cache.get(m), raising exc before the count-th opcode run in get itself.

    Returns whether exc was raised, i.e. whether get ran that many opcodes.
    An exception raised by a trace function surfaces in the traced frame, as
    an asynchronous KeyboardInterrupt or a MemoryError would.
    """
    code = BernoulliCache.get.__code__
    seen = 0

    def local(frame, event, arg):
        nonlocal seen
        if event == "opcode":
            seen += 1
            if seen == count:
                raise exc
        return local

    def calls(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(calls)
    try:
        cache.get(m)
    except exc:
        return True
    finally:
        sys.settrace(None)
    return False


class TestInterruptedExtension:
    @pytest.mark.parametrize("exc", [KeyboardInterrupt, MemoryError])
    def test_failure_at_every_opcode_leaves_a_consistent_table(self, exc):
        # 10 -> 12 extends once with no rescale (lcm(1..12) = lcm(1..11)) and
        # once with one (13 enters L)
        fresh = [BernoulliCache().get(m) for m in range(41)]
        count = 0
        while True:
            count += 1
            cache = BernoulliCache()
            cache.get(10)
            raised = raise_at_opcode(cache, 12, count, exc)
            # one assignment publishes both indices: the state before it or after it
            assert cache.high_water in (10, 12), count
            if cache._lock.locked():
                # raised inside the with statement's own exit call, which no
                # Python code can guard; by then both indices are published
                assert cache.high_water == 12, count
                cache._lock.release()
            assert [cache.get(m) for m in range(41)] == fresh, count
            if not raised:
                break
        assert count > 100  # every opcode of both extensions was reached


class TestPolynomials:
    def test_degree_zero(self):
        assert bernoulli_polynomial(0) == Polynomial((1,))

    def test_degree_one(self):
        assert bernoulli_polynomial(1) == Polynomial((F(-1, 2), 1))

    def test_degree_two(self):
        assert bernoulli_polynomial(2) == Polynomial((F(1, 6), -1, 1))

    def test_value_at_zero_is_the_number(self):
        for m in range(61):
            assert bernoulli_polynomial(m)(0) == bernoulli_number(m)

    def test_leading_coefficient_is_one(self):
        for m in range(20):
            assert bernoulli_polynomial(m).coeffs[-1] == 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_polynomial(-2)


class TestAtHalf:
    @pytest.mark.parametrize(
        "r, expected",
        [(0, F(1)), (1, F(0)), (2, F(-1, 12)), (4, F(7, 240))],
    )
    def test_known_values(self, r, expected):
        assert bernoulli_at_half(r) == expected

    def test_closed_form_matches_polynomial_evaluation(self):
        for r in range(61):
            assert bernoulli_at_half(r) == bernoulli_polynomial(r)(F(1, 2))


class TestVerifyOddZero:
    def test_single_check(self):
        report = verify_odd_zero(1)
        assert report.passed
        assert len(report.lines) == 1
        assert report.lines[0].label == "B_3 = 0"

    def test_longer_run(self):
        report = verify_odd_zero(50)
        assert report.passed
        assert len(report.lines) == 50
        assert report.first_failure is None

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_odd_zero(0)

    def test_summary_text(self):
        assert verify_odd_zero(3).summary() == "odd-bernoulli: PASS (3 checks)"
