"""Generate perfbench/expected.json: the expected outcome of every request the
workloads can issue, as exit code plus a digest of stdout (CLI requests) or
of the canonical result text (library calls).

Nothing here imports faulhaber. Monomial coefficients come from Faulhaber's
formula over sympy's Bernoulli numbers (sympy's B_1 = +1/2 convention, the
one that formula needs for sums up to n), and each polynomial is pinned by
brute-force integer sums at n = 1..m+2. Bernoulli numbers for the CLI are
sympy's with B_1 translated to the library's -1/2; Bernoulli polynomials
and their values at 1/2 are sympy's. The triangular and shifted bases are
exact Taylor shifts of the pinned polynomial, and the CLI text comes from a
renderer written from the documented output format.

Run from the repository root (a few minutes):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
import time
from functools import lru_cache
from fractions import Fraction
from math import comb, lcm

import sympy
from sympy.polys.appellseqs import bernoulli_poly

from common import EXPECTED_PATH, canonical, outcome
from workloads import INT_MAX_STR_DIGITS, WORKLOADS, Op

sys.set_int_max_str_digits(0)  # expected eval values run past 4300 digits

MAX_INDEX = 402
X = sympy.Symbol("x")

# -- exact reference values -----------------------------------------------------


def sympy_fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


BERNOULLI_PLUS = [sympy_fraction(sympy.bernoulli(j)) for j in range(MAX_INDEX + 1)]
assert BERNOULLI_PLUS[1] == Fraction(1, 2), "sympy changed its B_1 convention"


def bernoulli_minus(j: int) -> Fraction:
    """B_j in the library's B_1 = -1/2 convention."""
    return Fraction(-1, 2) if j == 1 else BERNOULLI_PLUS[j]


def strip(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def horner(coeffs: list[Fraction], x: Fraction | int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# Requests are answered in order of exponent, so a few cached values suffice.
cached = lru_cache(maxsize=4)


@cached
def powersum(m: int) -> list[Fraction]:
    """Ascending coefficients of sum(k**m, k = 1..n), pinned by brute force."""
    coeffs = [Fraction(0)] * (m + 2)
    for j in range(m + 1):
        coeffs[m + 1 - j] = Fraction(comb(m + 1, j), m + 1) * BERNOULLI_PLUS[j]
    # degree m+1, so agreement at m+2 points pins it; compare in integers
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    total = 0
    for n in range(1, m + 3):
        total += n**m
        acc = 0
        for a in reversed(ints):
            acc = acc * n + a
        if acc != total * scale:
            raise AssertionError(f"power-sum polynomial for m={m} fails at n={n}")
    return coeffs


def taylor_shift(coeffs: list[Fraction], p: int, q: int) -> list[Fraction]:
    """Ascending coefficients of f(x + p/q), in integer arithmetic."""
    d = len(coeffs) - 1
    scale = lcm(*(c.denominator for c in coeffs))
    # F(y) = scale * q^d * f(y/q) has integer coefficients; shift it by p
    b = [c.numerator * (scale // c.denominator) * q ** (d - i) for i, c in enumerate(coeffs)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            b[j] += p * b[j + 1]
    # f(x + p/q) = F(q x + p) / (scale q^d)
    return [Fraction(b[i] * q**i, scale * q**d) for i in range(d + 1)]


def divide_linear(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Exact quotient of f(s) by (s - root); the remainder must vanish."""
    quotient = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * root
        quotient[i - 1] = carry
    if coeffs[0] + carry * root != 0:
        raise AssertionError("division by (s - root) left a remainder")
    return quotient


@cached
def shifted(m: int) -> list[Fraction]:
    """Ascending coefficients of the power sum in N = n + 1/2."""
    return taylor_shift(powersum(m), -1, 2)


def in_u(g: list[Fraction]) -> list[Fraction]:
    """g(s) rewritten in u, where s = N^2 = 2u + 1/4."""
    h = taylor_shift(g, 1, 4)
    return strip([c * 2**k for k, c in enumerate(h)])


@cached
def triangular(m: int) -> list[Fraction]:
    """Ascending u-coefficients of the power sum divided by its multiplier.

    In N = t: sum(k^2) = t (s - 1/4) / 3 and (sum k)^2 = (s - 1/4)^2 / 4, s = t^2.
    """
    t = shifted(m)
    quarter = Fraction(1, 4)
    if m % 2 == 0:
        g = divide_linear([c * 3 for c in t[1::2]], quarter)
    else:
        g = divide_linear(divide_linear([c * 4 for c in t[0::2]], quarter), quarter)
    return in_u(g)


def square(m: int) -> list[Fraction]:
    """Ascending u-coefficients of the square of an even power sum: s * E(s)^2."""
    e = shifted(m)[1::2]
    sq = [Fraction(0)] * (2 * len(e))
    for i, a in enumerate(e):
        for j, b in enumerate(e):
            sq[i + j + 1] += a * b
    return in_u(sq)


@cached
def bernoulli_polynomial(m: int) -> list[Fraction]:
    """Ascending coefficients of B_m(x), from sympy."""
    desc = bernoulli_poly(m, X, polys=True).all_coeffs()
    return [sympy_fraction(c) for c in reversed(desc)]


def shifted_desc(m: int) -> list[Fraction]:
    """Coefficients of the one parity present in N, highest power first."""
    t = shifted(m)
    return [t[m + 1 - 2 * i] for i in range((m + 1) // 2 + 1)]


# -- rendering, from the documented CLI output format ---------------------------


def rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def latex_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"\\frac{{{q.numerator}}}{{{q.denominator}}}"


def terms(pairs: list[tuple[Fraction, int]], var: str, fmt: str) -> str:
    """Nonzero (coefficient, power) terms, in the order given."""
    out = []
    for c, k in pairs:
        if c == 0:
            continue
        mag = abs(c)
        if fmt == "plain":
            v = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            body = rational(mag) if k == 0 else v if mag == 1 else f"{rational(mag)}*{v}"
            sep = ("" if c > 0 else "-") if not out else (" + " if c > 0 else " - ")
        else:
            v = "" if k == 0 else var if k == 1 else f"{var}^{{{k}}}"
            body = latex_rational(mag) if k == 0 else v if mag == 1 else latex_rational(mag) + v
            sep = ("" if c > 0 else "-") if not out else ("+" if c > 0 else "-")
        out.append(sep + body)
    return "".join(out) if out else "0"


def json_text(power: int, basis: str, multiplier, coeffs: list[Fraction], ordering: str) -> str:
    return json.dumps({
        "power": power,
        "basis": basis,
        "multiplier": multiplier,
        "coefficients": [rational(c) for c in coeffs],
        "ordering": ordering,
    })


def render_powersum(m: int, basis: str, fmt: str) -> str:
    if basis == "monomial":
        c = powersum(m)
        if fmt == "json":
            return json_text(m, "monomial", None, c, "degree-ascending")
        return terms([(c[k], k) for k in range(len(c) - 1, -1, -1)], "n", fmt)
    if basis == "triangular":
        if m == 1:
            return {"plain": "S1", "latex": "S_{1}"}.get(fmt) or json_text(
                1, "triangular", None, [Fraction(1), Fraction(0)], "paper-descending")
        q = triangular(m)
        mult = "Sum(k^2)" if m % 2 == 0 else "Sum(k)^2"
        desc = list(reversed(q))
        if fmt == "json":
            return json_text(m, "triangular", mult, desc, "paper-descending")
        pairs = [(c, len(q) - 1 - i) for i, c in enumerate(desc)]
        if fmt == "plain":
            return f"({terms(pairs, 'S1', fmt)}) * {mult}"
        tail = r"\cdot\sum k^{2}" if m % 2 == 0 else r"\cdot\left(\sum k\right)^{2}"
        return rf"\left[{terms(pairs, 'S_{1}', fmt)}\right]{tail}"
    top, desc = m + 1, shifted_desc(m)
    if fmt == "json":
        return json_text(m, "shifted", None, desc, "paper-descending")
    if m % 2 == 0:  # odd in N: factor N out
        inner = terms([(c, top - 1 - 2 * i) for i, c in enumerate(desc)], "N", fmt)
        return f"N*({inner})  where N = n + 1/2" if fmt == "plain" else rf"N\left({inner}\right)"
    inner = terms([(c, top - 2 * i) for i, c in enumerate(desc)], "N", fmt)
    return f"{inner}  where N = n + 1/2" if fmt == "plain" else inner


# -- expected outcomes --------------------------------------------------------


def flags(argv: tuple[str, ...]) -> dict[str, str]:
    out, i = {}, 0
    while i < len(argv):
        if argv[i] in ("--poly", "--at-half", "--check"):
            out[argv[i]] = "1"
            i += 1
        else:
            out[argv[i]] = argv[i + 1]
            i += 2
    return out


def cli_stdout(argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and stdout of one CLI request, per the documented behaviour."""
    command, args = argv[0], argv[1:]
    if command == "powersum":
        m, opt = int(args[0]), flags(args[1:])
        basis = opt.get("--basis", "monomial")
        method = opt.get("--method", "direct")
        if m < 1 or (method == "inductive" and basis != "triangular") or (
            method == "closed" and basis != "shifted"
        ):
            return 2, ""
        return 0, render_powersum(m, basis, opt.get("--format", "plain")) + "\n"
    if command == "bernoulli":
        m, opt = int(args[0]), flags(args[1:])
        if "--poly" in opt and "--at-half" in opt:
            return 2, ""
        if "--poly" in opt:
            c = bernoulli_polynomial(m)
            return 0, terms([(c[k], k) for k in range(m, -1, -1)], "x", "plain") + "\n"
        if "--at-half" in opt:
            return 0, rational(horner(bernoulli_polynomial(m), Fraction(1, 2))) + "\n"
        return 0, rational(bernoulli_minus(m)) + "\n"
    if command == "eval":
        m, n, opt = int(args[0]), int(args[1]), flags(args[2:])
        if "--check" in opt and n > 10**6:
            return 2, ""
        value = n if m == 0 else horner(powersum(m), n)
        assert value.denominator == 1
        if "--check" in opt:
            reference = sum(k**m for k in range(1, n + 1))
            assert reference == value
            return 0, f"{value} (oracle: {reference}, OK)\n"
        return 0, f"{value}\n"
    if command == "verify":
        suite, bound = args[0], int(flags(args[1:])["--max"])
        minimum = {"odd-bernoulli": 1, "roundtrip": 1, "lemma": 1, "recurrence": 2, "constant-term": 2}
        checks = {
            "odd-bernoulli": bound,
            "roundtrip": 2 * bound - 1,
            "lemma": 4,
            "recurrence": bound,
            "constant-term": bound - 1,
        }
        names = list(checks) if suite == "all" else [suite]
        if any(bound < minimum[name] for name in names):
            return 2, ""
        return 0, "".join(f"{name}: PASS ({checks[name]} checks)\n" for name in names)
    raise ValueError(f"unknown command {command}")


def library_value(op: Op) -> bytes:
    m = op.exponent
    if op.kind == "faulhaber_form":
        mult = "Sum(k^2)" if m % 2 == 0 else "Sum(k)^2"
        header = (m, "even" if m % 2 == 0 else "odd", mult)
        return canonical("T", header, list(reversed(triangular(m))))
    if op.kind in ("shifted_form", "shifted_closed_form"):
        return canonical("S", (m, "even" if m % 2 == 0 else "odd"), shifted_desc(m))
    if op.kind in ("expand_to_monomial", "shifted_to_monomial", "powersum_monomial",
                   "powersum_via_bernoulli_poly"):
        return canonical("P", (), powersum(m))
    if op.kind == "bernoulli_polynomial":
        return canonical("P", (), bernoulli_polynomial(m))
    if op.kind == "square_in_triangular":
        return canonical("P", (), square(m))
    if op.kind == "eval":
        return canonical("V", (), (horner(powersum(m), op.n),))
    raise ValueError(f"unknown library call {op.kind}")


def known_defect(op: Op) -> bool:
    """An `eval` request whose value is too long for the library to print.

    The CLI prints the value with str(), so past 4300 digits it exits 1 with a
    ValueError traceback instead of printing the expected value.
    """
    if op.argv[:1] != ("eval",) or "--check" in op.argv:
        return False
    m, n = int(op.argv[1]), int(op.argv[2])
    value = n if m == 0 else horner(powersum(m), n)
    return value >= 10**INT_MAX_STR_DIGITS


def expected_outcome(op: Op) -> str:
    if op.argv:
        code, text = cli_stdout(op.argv)
        return outcome(code, text.encode())
    return outcome(0, library_value(op))


def main() -> None:
    started = time.perf_counter()
    ops = {op.key: op for workload in WORKLOADS.values() for op in workload().universe()}
    outcomes: dict[str, str] = {}
    defects: list[str] = []
    for i, op in enumerate(sorted(ops.values(), key=lambda op: op.exponent)):
        outcomes[op.key] = expected_outcome(op)
        if known_defect(op):
            defects.append(op.key)
        if i % 1000 == 0:
            print(f"{i}/{len(ops)} ({time.perf_counter() - started:.0f} s)", file=sys.stderr)
    payload = {
        "about": "expected outcome per request: '<exit code>:<sha256 of stdout or canonical value, 16 hex>'",
        "generator": "perfbench/reference.py",
        "sympy": sympy.__version__,
        "known_defects_about": "requests that fail today by a known defect, past Python's "
                               "4300-digit limit on printing an int; no workload times them, "
                               "cli-cold runs two after its timed loop and reports them",
        "known_defects": sorted(defects),
        "outcomes": dict(sorted(outcomes.items())),
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
