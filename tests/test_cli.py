"""CLI contract: exact output strings, exit codes, determinism, JSON shape."""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from faulhaber import bernoulli, cli, powersum, recurrence, render, triangular
from faulhaber.bernoulli import bernoulli_polynomial
from faulhaber.forms import SQUARE_OF_SUM_OF_N, SUM_OF_SQUARES_OF_N, FaulhaberForm, ShiftedForm
from faulhaber.polynomial import Polynomial, X
from faulhaber.powersum import powersum_via_bernoulli_poly
from faulhaber.reports import CheckLine, VerificationReport
from faulhaber.shifted import shifted_closed_form, shifted_form, shifted_to_monomial
from faulhaber.triangular import expand_to_monomial, faulhaber_form

F = Fraction
SRC = Path(__file__).parents[1] / "src"


def _load_perfbench(name: str):
    """perfbench/<name>.py as a module, loaded by path without importing the package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perfbench_common = sys.modules["common"] = _load_perfbench("common")  # workloads imports `common`
perfbench_tracing = _load_perfbench("tracing")
perfbench_workloads = _load_perfbench("workloads")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's own usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPowersumRendering:
    def test_triangular_plain(self, capsys):
        code, out, _ = run(capsys, "powersum", "4", "--basis", "triangular", "--format", "plain")
        assert code == 0
        assert out == "(6/5*S1 - 1/5) * Sum(k^2)\n"

    def test_shifted_plain(self, capsys):
        code, out, _ = run(capsys, "powersum", "2", "--basis", "shifted", "--format", "plain")
        assert code == 0
        assert out == "N*(1/3*N^2 - 1/12)  where N = n + 1/2\n"

    def test_monomial_json(self, capsys):
        code, out, _ = run(capsys, "powersum", "1", "--basis", "monomial", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["0", "1/2", "1/2"]
        assert payload["power"] == 1
        assert payload["basis"] == "monomial"
        assert payload["multiplier"] is None

    def test_power_one_triangular_is_bare_s1(self, capsys):
        code, out, _ = run(capsys, "powersum", "1", "--basis", "triangular")
        assert code == 0
        assert out == "S1\n"

    def test_monomial_plain_omits_zero_terms(self, capsys):
        _, out, _ = run(capsys, "powersum", "4", "--basis", "monomial")
        assert out == "1/5*n^5 + 1/2*n^4 + 1/3*n^3 - 1/30*n\n"

    def test_odd_power_triangular(self, capsys):
        _, out, _ = run(capsys, "powersum", "5", "--basis", "triangular")
        assert out == "(4/3*S1 - 1/3) * Sum(k)^2\n"

    def test_odd_power_shifted_keeps_constant(self, capsys):
        _, out, _ = run(capsys, "powersum", "3", "--basis", "shifted")
        assert out == "1/4*N^4 - 1/8*N^2 + 1/64  where N = n + 1/2\n"

    def test_inductive_method_matches_direct(self, capsys):
        _, direct, _ = run(capsys, "powersum", "8", "--basis", "triangular")
        _, inductive, _ = run(capsys, "powersum", "8", "--basis", "triangular", "--method", "inductive")
        assert direct == inductive

    def test_closed_method_matches_direct(self, capsys):
        _, direct, _ = run(capsys, "powersum", "7", "--basis", "shifted", "--format", "json")
        _, closed, _ = run(capsys, "powersum", "7", "--basis", "shifted", "--method", "closed", "--format", "json")
        assert direct == closed

    def test_latex_triangular(self, capsys):
        _, out, _ = run(capsys, "powersum", "4", "--basis", "triangular", "--format", "latex")
        assert out == "\\left[\\frac{6}{5}S_{1}-\\frac{1}{5}\\right]\\cdot\\sum k^{2}\n"

    def test_latex_shifted(self, capsys):
        _, out, _ = run(capsys, "powersum", "2", "--basis", "shifted", "--format", "latex")
        assert out == "N\\left(\\frac{1}{3}N^{2}-\\frac{1}{12}\\right)\n"

    def test_latex_monomial(self, capsys):
        _, out, _ = run(capsys, "powersum", "3", "--basis", "monomial", "--format", "latex")
        assert out == "\\frac{1}{4}n^{4}+\\frac{1}{2}n^{3}+\\frac{1}{4}n^{2}\n"

    def test_rendering_is_deterministic(self, capsys):
        first = run(capsys, "powersum", "12", "--basis", "triangular", "--format", "json")
        second = run(capsys, "powersum", "12", "--basis", "triangular", "--format", "json")
        assert first == second

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "powersum", "6", "--basis", "triangular", "--format", "json")
        payload = json.loads(out)
        assert payload["ordering"] == "paper-descending"
        assert payload["multiplier"] == "Sum(k^2)"
        values = [F(c) for c in payload["coefficients"]]
        assert values == [F(12, 7), F(-6, 7), F(1, 7)]
        assert json.dumps(payload) == out.strip()

    def test_shifted_json(self, capsys):
        _, out, _ = run(capsys, "powersum", "2", "--basis", "shifted", "--format", "json")
        payload = json.loads(out)
        assert payload["coefficients"] == ["1/3", "-1/12"]
        assert payload["multiplier"] is None
        assert payload["ordering"] == "paper-descending"


class TestTermWriter:
    """The leading-minus and zero branches of the term writer, which no CLI request
    reaches: every power sum and Bernoulli polynomial leads with a positive term."""

    NEGATIVE = Polynomial((-1, -2, 0, -3), 2)

    def test_plain_negative_terms(self):
        assert render.render_polynomial_in_x(self.NEGATIVE) == "-3/2*x^3 - x - 1/2"

    def test_latex_negative_terms(self):
        text = render.render_monomial(3, self.NEGATIVE, "latex")
        assert text == r"-\frac{3}{2}n^{3}-n-\frac{1}{2}"

    def test_zero_polynomial_prints_zero(self):
        assert render.render_polynomial_in_x(Polynomial(())) == "0"

    def test_zero_polynomial_json_lists_one_zero(self):
        assert json.loads(render.render_monomial(0, Polynomial(()), "json"))["coefficients"] == ["0"]


class TestUsageErrors:
    def test_exponent_zero(self, capsys):
        code, _, _ = run(capsys, "powersum", "0")
        assert code == 2

    def test_inductive_needs_triangular(self, capsys):
        code, _, err = run(capsys, "powersum", "4", "--basis", "monomial", "--method", "inductive")
        assert code == 2
        assert "inductive" in err

    def test_closed_needs_shifted(self, capsys):
        code, _, _ = run(capsys, "powersum", "4", "--basis", "triangular", "--method", "closed")
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_verify_bound_zero(self, capsys):
        code, _, _ = run(capsys, "verify", "odd-bernoulli", "--max", "0")
        assert code == 2

    def test_constant_term_needs_two(self, capsys):
        code, _, err = run(capsys, "verify", "constant-term", "--max", "1")
        assert code == 2
        assert "constant-term" in err

    def test_all_checks_every_bound_before_any_suite_runs(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "verify_odd_zero", lambda max_m: calls.append(max_m))
        code, out, err = run(capsys, "verify", "all", "--max", "1")
        assert code == 2
        assert calls == []
        assert out == ""
        assert err == "error: suite 'recurrence': --max must be >= 2\n"

    @pytest.mark.parametrize("suite", list(cli.SUITES))
    def test_suite_table_matches_library_bound(self, suite):
        name, minimum = cli.SUITES[suite]
        run_suite = getattr(cli, name)
        with pytest.raises(ValueError):
            run_suite(minimum - 1)
        assert run_suite(minimum).passed


class TestBernoulliCommand:
    def test_number(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "4")
        assert code == 0
        assert out == "-1/30\n"

    def test_polynomial(self, capsys):
        _, out, _ = run(capsys, "bernoulli", "2", "--poly")
        assert out == "x^2 - x + 1/6\n"

    def test_at_half(self, capsys):
        _, out, _ = run(capsys, "bernoulli", "2", "--at-half")
        assert out == "-1/12\n"

    def test_negative_index(self, capsys):
        code, _, _ = run(capsys, "bernoulli", "--", "-3")
        assert code == 2

    def test_flags_are_exclusive(self, capsys):
        code, _, _ = run(capsys, "bernoulli", "2", "--poly", "--at-half")
        assert code == 2


class TestEvalCommand:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "eval", "3", "10")
        assert code == 0
        assert out == "3025\n"

    def test_with_oracle_check(self, capsys):
        code, out, _ = run(capsys, "eval", "2", "3", "--check")
        assert code == 0
        assert out == "14 (oracle: 14, OK)\n"

    def test_smallest_case(self, capsys):
        code, out, _ = run(capsys, "eval", "1", "1")
        assert code == 0
        assert out == "1\n"

    def test_exponent_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "0", "12", "--check")
        assert code == 0
        assert out == "12 (oracle: 12, OK)\n"

    def test_huge_upper_limit(self, capsys):
        n = 10**50
        code, out, _ = run(capsys, "eval", "3", str(n))
        assert code == 0
        assert int(out) == (n * (n + 1) // 2) ** 2

    def test_value_past_the_int_print_limit(self, capsys):
        n = 10**2000
        code, out, _ = run(capsys, "eval", "3", str(n))
        assert code == 0
        assert out.rstrip("\n").isdigit()
        # parsed by Decimal, which str(int)'s 4300-digit limit does not cover
        assert Decimal(out) == (n * (n + 1) // 2) ** 2

    def test_internal_inconsistency_is_one_line_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "powersum_monomial", lambda m: Polynomial((0, F(1, 2))))
        code, out, err = run(capsys, "eval", "1", "1")
        assert code == 1
        assert out == ""
        assert err == "error: power sum evaluated to a non-integer 1/2\n"

    def test_nonzero_odd_bernoulli_is_one_line_exit_one(self, capsys, monkeypatch):
        exact = powersum.bernoulli_number
        monkeypatch.setattr(
            powersum, "bernoulli_number", lambda j: exact(j) + (1 if j == 5 else 0)
        )
        code, out, err = run(capsys, "powersum", "5", "--basis", "triangular")
        assert code == 1
        assert out == ""
        assert err == "error: power sum for exponent 5 is not divisible by Sum(k)^2\n"

    @pytest.mark.parametrize("basis", ["triangular", "shifted"])
    @pytest.mark.parametrize(
        "power, wrong_sum, multiplier",
        [
            # divisible by its multiplier, but the quotients n^2 and n are no polynomials in u
            ("5", SQUARE_OF_SUM_OF_N * X * X, "Sum(k)^2"),
            ("4", SUM_OF_SQUARES_OF_N * X, "Sum(k^2)"),
        ],
        ids=["odd", "even"],
    )
    def test_quotient_not_in_u_is_one_line_exit_one(
        self, capsys, monkeypatch, basis, power, wrong_sum, multiplier
    ):
        monkeypatch.setattr(triangular, "powersum_monomial", lambda m: wrong_sum)
        code, out, err = run(capsys, "powersum", power, "--basis", basis)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: power sum for exponent {power} is not {multiplier} times a polynomial in u\n"
        )

    def test_check_cap(self, capsys):
        code, _, err = run(capsys, "eval", "2", str(10**6 + 1), "--check")
        assert code == 2
        assert "--check" in err

    def test_check_at_cap_allowed(self, capsys):
        code, out, _ = run(capsys, "eval", "1", str(10**6), "--check")
        assert code == 0
        assert out.endswith("OK)\n")


#: an int past str()'s default 4300-digit limit, and its decimal text, which the
#: expected outputs below hold as @
BIG, BIG_TEXT = 10**4400 + 1, "1" + "0" * 4399 + "1"


def _int_or_error(text: str):
    try:
        return int(text)
    except ValueError:
        return ValueError


def _cli_process(*args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


class TestNumbersOfAnyLength:
    @pytest.mark.parametrize("argv, name, stand_in, code, expected", [
        pytest.param(("bernoulli", "4"), "bernoulli_number", lambda m: F(-BIG, 30), 0,
                     "-@/30\n", id="bernoulli"),
        pytest.param(("bernoulli", "4", "--at-half"), "bernoulli_at_half", lambda m: F(BIG, 7), 0,
                     "@/7\n", id="at-half"),
        pytest.param(("bernoulli", "2", "--poly"), "bernoulli_polynomial",
                     lambda m: Polynomial((F(BIG, 6), -1, 1)), 0, "x^2 - x + @/6\n", id="poly"),
        *(
            pytest.param(("powersum", "2", "--format", fmt), "powersum_monomial",
                         lambda m: Polynomial((0, F(BIG, 6), F(1, 2), F(1, 3))), 0, text,
                         id=f"monomial-{fmt}")
            for fmt, text in [
                ("plain", "1/3*n^3 + 1/2*n^2 + @/6*n\n"),
                ("latex", "\\frac{1}{3}n^{3}+\\frac{1}{2}n^{2}+\\frac{@}{6}n\n"),
                ("json", '{"power": 2, "basis": "monomial", "multiplier": null, '
                         '"coefficients": ["0", "@/6", "1/2", "1/3"], "ordering": "degree-ascending"}\n'),
            ]
        ),
        *(
            pytest.param(("powersum", "4", "--basis", "triangular", "--format", fmt), "faulhaber_form",
                         lambda m: FaulhaberForm(4, Polynomial((F(-1, 5), F(BIG, 5)))),
                         0, text, id=f"triangular-{fmt}")
            for fmt, text in [
                ("plain", "(@/5*S1 - 1/5) * Sum(k^2)\n"),
                ("latex", "\\left[\\frac{@}{5}S_{1}-\\frac{1}{5}\\right]\\cdot\\sum k^{2}\n"),
                ("json", '{"power": 4, "basis": "triangular", "multiplier": "Sum(k^2)", '
                         '"coefficients": ["@/5", "-1/5"], "ordering": "paper-descending"}\n'),
            ]
        ),
        *(
            pytest.param(("powersum", "2", "--basis", "shifted", "--format", fmt), "shifted_form",
                         lambda m: ShiftedForm(2, Polynomial((0, F(-BIG, 12), 0, F(1, 3)))), 0, text,
                         id=f"shifted-{fmt}")
            for fmt, text in [
                ("plain", "N*(1/3*N^2 - @/12)  where N = n + 1/2\n"),
                ("latex", "N\\left(\\frac{1}{3}N^{2}-\\frac{@}{12}\\right)\n"),
                ("json", '{"power": 2, "basis": "shifted", "multiplier": null, '
                         '"coefficients": ["1/3", "-@/12"], "ordering": "paper-descending"}\n'),
            ]
        ),
        pytest.param(("eval", "1", "1"), "powersum_monomial", lambda m: Polynomial((0, F(BIG, 2))), 1,
                     "error: power sum evaluated to a non-integer @/2\n", id="eval-non-integer"),
    ])
    def test_every_output_path_prints_past_the_int_print_limit(
        self, capsys, monkeypatch, argv, name, stand_in, code, expected
    ):
        monkeypatch.setattr(cli, name, stand_in)
        text = expected.replace("@", BIG_TEXT)
        # a success writes stdout only, a failure stderr only
        assert run(capsys, *argv) == ((0, text, "") if code == 0 else (code, "", text))

    @pytest.mark.parametrize("text, expected", [
        *((text, _int_or_error(text)) for text in (
            " 7 ", "+3", "1_000", "\u0663", "\u00a07\u2003", "0012", "-0",
            "5.", "5e0", "5.0e1", "nan", "Infinity", "1.5", "0x10", "1__0", "_1", "1_", "",
            "+-5", "\x1c7",
        )),
        pytest.param("1_" + "0" * 4400, 10**4400, id="4401-digits"),
        pytest.param(" +" + "9" * 5000 + "\n", 10**5000 - 1, id="5000-nines"),
    ])
    def test_integer_arguments_parse_as_int_does(self, text, expected):
        if expected is ValueError:
            with pytest.raises(ValueError):
                cli._nonnegative_int(text)
        else:
            assert cli._nonnegative_int(text) == expected

    def test_upper_limit_past_the_int_parse_limit(self, capsys):
        n = 10**4400
        code, out, _ = run(capsys, "eval", "3", "1" + "0" * 4400)
        assert code == 0
        # parsed by Decimal, which str(int)'s 4300-digit limit does not cover
        assert Decimal(out) == (n * (n + 1) // 2) ** 2

    @pytest.mark.parametrize("argv", [
        "bernoulli 500",
        "bernoulli 500 --poly",
        "bernoulli 500 --at-half",
        "powersum 500 --format json",
        "powersum 500 --basis triangular --format latex",
        "powersum 500 --basis shifted --method closed",
        pytest.param("eval 3 1" + "0" * 700, id="eval 3 10^700"),
    ])
    def test_low_interpreter_digit_limit_changes_no_byte(self, capsys, argv):
        # 640 is the lowest limit the interpreter accepts; the B_500 numerator has 743 digits
        proc = _cli_process("-X", "int_max_str_digits=640", "-m", "faulhaber.cli", *argv.split())
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert out == run(capsys, *argv.split())[1].encode()

    def test_reader_closing_stdout_early_is_one_line_exit_one(self):
        # 162 KB of output, well past the pipe's buffer, so the writer meets the closed end
        proc = _cli_process("-m", "faulhaber.cli", "bernoulli", "600", "--poly")
        assert proc.stdout.read(20) == b"x^600 - 300*x^599 + "
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b"error: stdout was closed before the output was all written\n"

    def test_ctrl_c_is_one_line_exit_130(self):
        # the handler says "ready" once main is inside it, then fills B_0..B_20000,
        # which takes far longer than the wait below allows
        script = (
            "import sys\n"
            "from faulhaber import cli\n"
            "handler = cli._cmd_bernoulli\n"
            "def ready(args):\n"
            "    print('ready', file=sys.stderr, flush=True)\n"
            "    return handler(args)\n"
            "cli._cmd_bernoulli = ready\n"
            "sys.exit(cli.main(['bernoulli', '20000']))\n"
        )
        proc = _cli_process("-c", script)
        try:
            assert proc.stderr.readline() == b"ready\n"
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, out, err) == (130, b"", b"error: interrupted\n")


class TestVerifyCommand:
    def test_each_suite_passes(self, capsys):
        for suite in ["odd-bernoulli", "roundtrip", "lemma", "recurrence", "constant-term"]:
            code, out, _ = run(capsys, "verify", suite, "--max", "8")
            assert code == 0, suite
            assert "PASS" in out

    def test_all_runs_every_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max", "6")
        assert code == 0
        for name in ["odd-bernoulli", "roundtrip", "lemma", "recurrence", "constant-term"]:
            assert name in out

    def test_all_matches_readme(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        prompt = "$ faulhaber verify all --max 40\n"
        documented = readme[readme.index(prompt) + len(prompt):].split("```", 1)[0]
        code, out, _ = run(capsys, "verify", "all", "--max", "40")
        assert code == 0
        assert out == documented

    def test_library_example_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("\n## Library example\n"):]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md (library example)", "exec"), {})

    def test_documented_invocations(self, capsys):
        assert run(capsys, "verify", "odd-bernoulli", "--max", "100")[0] == 0
        assert run(capsys, "verify", "lemma")[0] == 0

    @pytest.mark.parametrize(
        "suite, bound", [("odd-bernoulli", "1"), ("roundtrip", "1"), ("constant-term", "2")]
    )
    def test_a_one_line_suite_counts_one_check(self, capsys, suite, bound):
        assert run(capsys, "verify", suite, "--max", bound) == (0, f"{suite}: PASS (1 check)\n", "")

    def test_failure_exits_one_and_names_counterexample(self, capsys, monkeypatch):
        broken = VerificationReport(
            name="odd-bernoulli",
            lines=(CheckLine("B_3 = 0", True), CheckLine("B_5 = 0", False)),
        )
        monkeypatch.setattr(cli, "verify_odd_zero", lambda max_m: broken)
        code, out, _ = run(capsys, "verify", "odd-bernoulli", "--max", "2")
        assert code == 1
        assert "FAIL" in out
        assert "first counterexample: B_5 = 0" in out

    def test_recurrence_failure_names_the_recurrence_that_differs(self, capsys, monkeypatch):
        exact = recurrence.bernoulli_number
        monkeypatch.setattr(
            recurrence, "bernoulli_number", lambda k: exact(k) + (1 if k == 6 else 0)
        )
        code, out, _ = run(capsys, "verify", "recurrence", "--max", "10")
        assert code == 1
        assert out == (
            "recurrence: FAIL (10 checks, 5 failed)\n"
            "first counterexample: recurrences agree at index 6"
            " (Bernoulli-polynomial recurrence differs)\n"
        )

    def test_internal_error_in_one_suite_hides_no_other(self, capsys):
        # B_4 raised by 1/1000 breaks the split of the power sum for exponent 4,
        # which roundtrip and constant-term build; every suite still prints its line
        cache = bernoulli._DEFAULT_CACHE
        cache.get(4)
        exact = cache._state
        values, row, den = exact
        cache._state = (*values[:4], values[4] + F(1, 1000), *values[5:]), row, den
        try:
            code, out, err = run(capsys, "verify", "all", "--max", "10")
        finally:
            cache._state = exact
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines if not line.startswith("first")] == list(
            cli.SUITES
        )
        split_error = "FAIL (error: power sum for exponent 4 is not divisible by Sum(k^2))"
        assert f"roundtrip: {split_error}" in lines
        assert f"constant-term: {split_error}" in lines
        assert "odd-bernoulli: PASS (10 checks)" in lines
        assert "lemma: PASS (4 checks)" in lines


class TestAgainstReference:
    """CLI output and library results against outcomes computed without this library.

    `perfbench/expected.json` records the exit code and a stdout (or result)
    digest for every benchmark request; `perfbench/reference.py` builds them
    from sympy and brute-force integer sums and never imports faulhaber.
    Every `eval --check` and `verify lemma` request is read, since their
    integer checks run at C speed; the other `verify` sweeps past `--max 20`
    are left out to keep the tests quick.
    """

    MAX_EXPONENT = 40

    def test_small_requests_match_the_reference(self, capsys):
        outcomes = perfbench_common.load_expected().outcomes
        keys = sorted(
            key
            for key in outcomes
            if key.split()[0] in ("powersum", "bernoulli", "eval")
            and int(key.split()[1]) <= self.MAX_EXPONENT
        )
        # every command, and usage errors as well as successes, are in the selection
        assert len(keys) > 700
        assert sum("--check" in key.split() for key in keys) == 245
        assert {key.split()[0] for key in keys} == {"powersum", "bernoulli", "eval"}
        assert {outcomes[key][0] for key in keys} == {"0", "2"}
        mismatches = []
        for key in keys:
            code, out, _ = run(capsys, *key.split())
            if perfbench_common.outcome(code, out.encode()) != outcomes[key]:
                mismatches.append(key)
        assert mismatches == []

    def test_large_requests_match_the_reference(self, capsys):
        # past degree 40 only this test reads the printer's output against
        # bytes that do not come from the printer itself
        outcomes = perfbench_common.load_expected().outcomes
        keys = [
            template.format(m=m)
            for template in perfbench_workloads.CLI_LARGE
            if "{n}" not in template
            for m in (100, 101, 200, 201, 300, 301, 399, 400)
        ]
        assert len(keys) == 56
        mismatches = []
        for key in keys:
            code, out, _ = run(capsys, *key.split())
            if perfbench_common.outcome(code, out.encode()) != outcomes[key]:
                mismatches.append(key)
        assert mismatches == []

    def test_verify_requests_match_the_reference(self, capsys):
        outcomes = perfbench_common.load_expected().outcomes
        keys = sorted(
            key
            for key in outcomes
            if key.split()[0] == "verify"
            and (key.split()[1] == "lemma" or int(key.split()[-1]) <= 20)
        )
        # every suite, and the usage error of `verify all --max 1`, are in the selection
        assert {key.split()[1] for key in keys} == {"all", *cli.SUITES}
        assert sum(key.split()[1] == "lemma" for key in keys) == 281
        assert {outcomes[key][0] for key in keys} == {"0", "2"}
        mismatches = []
        for key in keys:
            code, out, _ = run(capsys, *key.split())
            if perfbench_common.outcome(code, out.encode()) != outcomes[key]:
                mismatches.append(key)
        assert mismatches == []

    def test_closed_form_at_high_degree_matches_the_reference(self):
        outcomes = perfbench_common.load_expected().outcomes
        mismatches = []
        for power in range(100, 401):
            outcome = perfbench_workloads.library_outcome(shifted_closed_form(power))
            if outcome != outcomes[f"shifted_closed_form({power})"]:
                mismatches.append(power)
        assert mismatches == []

    def test_odd_conversion_at_high_degree_matches_the_reference(self):
        # the standard degrees below are all even; this reads every odd one
        outcomes = perfbench_common.load_expected().outcomes
        mismatches = []
        for power in range(101, 400, 2):
            outcome = perfbench_workloads.library_outcome(shifted_form(power))
            if outcome != outcomes[f"shifted_form({power})"]:
                mismatches.append(power)
        assert mismatches == []

    def test_library_at_the_standard_degrees_matches_the_reference(self):
        # the benchmark's own classifier tells each result type apart by its attributes
        outcomes = perfbench_common.load_expected().outcomes
        results = {}
        for power in (100, 150, 200, 300, 400):
            form = faulhaber_form(power)
            shifted = shifted_form(power)
            for name, value in (
                ("faulhaber_form", form),
                ("shifted_form", shifted),
                ("expand_to_monomial", expand_to_monomial(form)),
                ("shifted_to_monomial", shifted_to_monomial(shifted)),
                ("powersum_via_bernoulli_poly", powersum_via_bernoulli_poly(power)),
                ("bernoulli_polynomial", bernoulli_polynomial(power)),
            ):
                results[f"{name}({power})"] = value
        assert len(results) == 30
        mismatches = [
            key for key, value in results.items()
            if perfbench_workloads.library_outcome(value) != outcomes[key]
        ]
        assert mismatches == []


class TestBenchmarkBindings:
    """Every name the benchmark's tracer wraps still exists in the library.

    `Tracer.install` reads each name with no default, so a moved or deleted
    function or method would crash `--trace 1` rather than leave a layer empty.
    """

    def test_every_traced_function_resolves(self):
        missing = [
            f"{module}.{name}"
            for module, table in perfbench_tracing.FUNCTIONS.items()
            for name in table
            if not callable(getattr(importlib.import_module(module), name, None))
        ]
        assert missing == []

    def test_every_traced_polynomial_method_exists(self):
        missing = [
            name for name in perfbench_tracing.POLYNOMIAL_METHODS if not hasattr(Polynomial, name)
        ]
        assert missing == []


class TestStartup:
    def test_cli_import_loads_no_heavy_stdlib_module(self):
        # -S keeps site (and whatever .pth files it runs) out of the picture,
        # so only the library's own imports count
        src = str(Path(__file__).parents[1] / "src")
        snippet = (
            f"import sys; sys.path.insert(0, {src!r}); import faulhaber.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'json', 'typing')"
            " if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", snippet], capture_output=True, text=True, check=True
        )
        assert result.stdout.split() == []


class TestOneParserPerProcess:
    # an argparse error, --help, a handler's usage error and a success, each
    # followed by the same request, all in one process
    FOLLOW_UP = ["powersum", "5", "--basis", "triangular"]
    REQUESTS = [
        ["bernoulli", "3", "--poly", "--at-half"],
        ["--help"],
        ["verify", "all", "--max", "1"],
        ["powersum", "5", "--format", "json"],
    ]
    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "from faulhaber import cli\n"
        "built = [cli.build_parser.cache_info().currsize]\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    results.append([code, out.getvalue(), err.getvalue()])\n"
        "    built.append(cli.build_parser.cache_info().currsize)\n"
        "print(json.dumps([built, results]))\n"
    )

    @staticmethod
    def _fresh(argv: list[str]) -> list:
        result = subprocess.run(
            [sys.executable, "-m", "faulhaber.cli", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80"),
        )
        return [result.returncode, result.stdout, result.stderr]

    def test_reused_parser_carries_nothing_from_one_call_to_the_next(self):
        sequence = [argv for request in self.REQUESTS for argv in (request, self.FOLLOW_UP)]
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(sequence)], capture_output=True,
            text=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80"),
        )
        built, results = json.loads(result.stdout)
        # not built at import; built by the first call and kept
        assert built == [0] + [1] * len(sequence)
        assert [code for code, _, _ in results] == [2, 0, 0, 0, 2, 0, 0, 0]
        fresh = {tuple(argv): self._fresh(argv) for argv in self.REQUESTS + [self.FOLLOW_UP]}
        assert results == [fresh[tuple(argv)] for argv in sequence]
