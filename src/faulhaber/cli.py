"""Command-line front end.

Exit codes: 0 success (all verifications passed), 1 a verification suite
found a counterexample, a consistency check failed or stdout closed early, 2
usage error, 130 interrupted (Ctrl-C, SIGINT), with one `error:` line in place
of a traceback; `verify` prints a suite's as its `NAME: FAIL (error: ...)`
line and runs the rest. Results go to stdout, diagnostics to stderr. There is
no configuration beyond the flags; identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .bernoulli import bernoulli_at_half, bernoulli_number, bernoulli_polynomial, verify_odd_zero
from .forms import ConsistencyError
from .powersum import oracle_sum, powersum_monomial
from .recurrence import verify_recurrence_consistency
from .render import (
    rational_text,
    read_integer,
    render_monomial,
    render_polynomial_in_x,
    render_shifted,
    render_triangular,
)
from .shifted import shifted_closed_form, shifted_form, verify_roundtrip
from .triangular import (
    faulhaber_form,
    faulhaber_form_inductive,
    verify_constant_term_bernoulli,
    verify_lemma,
)

CHECK_LIMIT = 10**6

#: verify suite -> (name of the library function that runs it, smallest bound
#: it accepts), in `all` order
SUITES = {
    "odd-bernoulli": ("verify_odd_zero", 1),
    "roundtrip": ("verify_roundtrip", 1),
    "lemma": ("verify_lemma", 1),
    "recurrence": ("verify_recurrence_consistency", 2),
    "constant-term": ("verify_constant_term_bernoulli", 2),
}


class UsageError(Exception):
    """Bad flag combination or out-of-range argument; maps to exit code 2."""


def _nonnegative_int(text: str, least: int = 0) -> int:
    value = read_integer(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}")
    return value


def _positive_int(text: str) -> int:
    return _nonnegative_int(text, 1)


def _cmd_powersum(args: argparse.Namespace) -> int:
    m, basis, method, fmt = args.exponent, args.basis, args.method, args.format
    if method == "inductive" and basis != "triangular":
        raise UsageError("method 'inductive' is only valid with basis 'triangular'")
    if method == "closed" and basis != "shifted":
        raise UsageError("method 'closed' is only valid with basis 'shifted'")
    if basis == "monomial":
        print(render_monomial(m, powersum_monomial(m), fmt))
    elif basis == "triangular":
        build = faulhaber_form_inductive if method == "inductive" else faulhaber_form
        print(render_triangular(None if m == 1 else build(m), fmt))
    else:
        build = shifted_closed_form if method == "closed" else shifted_form
        print(render_shifted(build(m), fmt))
    return 0


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    if args.poly:
        print(render_polynomial_in_x(bernoulli_polynomial(args.index)))
    elif args.at_half:
        print(rational_text(bernoulli_at_half(args.index)))
    else:
        print(rational_text(bernoulli_number(args.index)))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    m, n = args.exponent, args.upper
    if args.check and n > CHECK_LIMIT:
        raise UsageError(f"--check is limited to n <= {CHECK_LIMIT}")
    exact = powersum_monomial(m)(n)
    if exact.denominator != 1:
        raise ConsistencyError(f"power sum evaluated to a non-integer {rational_text(exact)}")
    value = exact.numerator
    if args.check:
        reference = oracle_sum(m, n)
        status = "OK" if reference == value else "MISMATCH"
        print(f"{rational_text(value)} (oracle: {rational_text(reference)}, {status})")
        return 0 if status == "OK" else 1
    print(rational_text(value))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        minimum = SUITES[name][1]
        if args.max < minimum:
            raise UsageError(f"suite '{name}': --max must be >= {minimum}")
    failed = False
    for name in names:
        try:
            # looked up at call time, so a rebinding of the module global is honoured
            report = globals()[SUITES[name][0]](args.max)
        except ConsistencyError as exc:
            failed = True
            print(f"{name}: FAIL (error: {exc})")
            continue
        print(report.summary())
        if not report.passed:
            failed = True
            print(f"first counterexample: {report.first_failure.label}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faulhaber",
        description="Exact power sums in monomial, triangular, and half-shifted bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("powersum", help="render the polynomial for sum(k^m, k=1..n)")
    p.add_argument("exponent", type=_positive_int)
    p.add_argument("--basis", choices=["monomial", "triangular", "shifted"], default="monomial")
    p.add_argument("--method", choices=["direct", "inductive", "closed"], default="direct")
    p.add_argument("--format", choices=["plain", "latex", "json"], default="plain")
    p.set_defaults(handler=_cmd_powersum)

    b = sub.add_parser("bernoulli", help="Bernoulli number, polynomial, or value at 1/2")
    b.add_argument("index", type=_nonnegative_int)
    group = b.add_mutually_exclusive_group()
    group.add_argument("--poly", action="store_true", help="print B_m(x)")
    group.add_argument("--at-half", action="store_true", help="print B_m(1/2)")
    b.set_defaults(handler=_cmd_bernoulli)

    e = sub.add_parser("eval", help="evaluate sum(k^m, k=1..n) exactly")
    e.add_argument("exponent", type=_nonnegative_int)
    e.add_argument("upper", type=_positive_int, help="upper limit n (any size)")
    e.add_argument("--check", action="store_true", help=f"cross-check against the brute-force oracle (n <= {CHECK_LIMIT})")
    e.set_defaults(handler=_cmd_eval)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=[*SUITES, "all"])
    v.add_argument("--max", type=_positive_int, default=20, help="range bound (default 20)")
    v.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the flush at exit then writes the rest of the buffer to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was all written", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
