"""The three workloads: seeded request streams, how each request runs, and
how its outcome is read for checking.

Every workload is a closed loop with one client and no threads: the next
request starts only after the previous one has returned.

Exponents are stratified so that a run's mix, and with it the latency
quantiles, hardly depends on the seed: the k-th draw of a stream falls in
the stratum at frac(c + k/phi) of its range (1/32 of the range wide,
visited in golden-ratio order, which covers the range evenly after any
number of draws), at a uniform point inside it chosen by the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

from common import ROOT, SRC, canonical, outcome

PHI = (5**0.5 - 1) / 2
STRATA = 32

#: Upper limits for `eval` in cli-cold and library-warm: 10^3 .. 10^50.
EVAL_POWERS = (3, 6, 9, 12, 20, 30, 50)
#: Python refuses to write an int of more decimal digits than this.
INT_MAX_STR_DIGITS = 4300
#: Upper limits for `eval --check` in verify-sweep (the oracle loops n times).
CHECK_LIMITS = (7, 99, 1000, 4321, 10000)


class Stream:
    """Seeded stratified draws from a sequence of values."""

    def __init__(self, rng: random.Random, values, phase: float) -> None:
        self.rng, self.values, self.x = rng, values, phase

    def __call__(self):
        self.x = (self.x + PHI) % 1.0
        start = int(self.x * STRATA) / STRATA
        return self.values[int((start + self.rng.random() / STRATA) * len(self.values))]


def streams(rng: random.Random, ranges) -> list[Stream]:
    """One stream per range, each starting at its own phase."""
    return [Stream(rng, values, (i * 2**0.5) % 1.0) for i, values in enumerate(ranges)]


@dataclass(frozen=True)
class Op:
    """One request. `argv` is set for CLI requests, `n` for evaluations."""

    kind: str
    exponent: int
    n: int = 0
    argv: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        if self.argv:
            return " ".join(self.argv)
        return f"{self.kind}({self.exponent})" + (f"({self.n})" if self.n else "")


def cli_op(template: str, m: int, n: int = 0) -> Op:
    argv = tuple(template.format(m=m, n=n).split())
    return Op(kind=template, exponent=m, n=n, argv=argv)


def sweep_op(template: str, m: int, n: int = 0) -> Op:
    """A CLI request for a template with `{m}`, else a call of the library function named."""
    return cli_op(template, m, n) if "{m}" in template else Op(template, m)


class InProcess:
    """Base of the workloads that call into the library inside this process."""

    in_process = True
    #: Ops per block; a repeated set-up only comes between blocks.
    block = 1

    def fresh_import(self):
        """Import faulhaber.cli (and with it every module) from a clean slate."""
        for mod in [m for m in sys.modules if m == "faulhaber" or m.startswith("faulhaber.")]:
            del sys.modules[mod]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        start = perf_counter()
        cli = importlib.import_module("faulhaber.cli")
        self.import_s = perf_counter() - start
        return cli

    #: Requests run once after the timed loop, untimed (see CliCold.probes).
    probes: tuple[Op, ...] = ()

    def absorb(self, raw, tracer) -> None:
        """Spans of in-process calls are recorded directly; nothing to collect."""


def require_source() -> None:
    if not (SRC / "faulhaber" / "cli.py").is_file():
        raise FileNotFoundError(f"faulhaber sources not found under {SRC}")


# -- cli-cold -----------------------------------------------------------------

#: Small exponents (1..40): startup, import and rendering dominate.
CLI_SMALL = (
    "powersum {m}",
    "powersum {m} --format json",
    "powersum {m} --basis triangular",
    "powersum {m} --basis triangular --format latex",
    "powersum {m} --basis shifted",
    "powersum {m} --basis shifted --method closed --format json",
    "powersum {m} --basis shifted --format latex",
    "bernoulli {m}",
    "bernoulli {m} --poly",
    "bernoulli {m} --at-half",
    "eval {m} {n}",
)
#: Large exponents (100..400): the Bernoulli fill from B_0 and the basis work dominate.
CLI_LARGE = (
    "powersum {m} --format latex",
    "powersum {m} --basis triangular",
    "powersum {m} --basis shifted --method closed",
    "powersum {m} --basis shifted --format json",
    "bernoulli {m}",
    "bernoulli {m} --poly",
    "bernoulli {m} --at-half",
    "eval {m} {n}",
)
#: Usage errors, expected to exit 2 with nothing on stdout.
CLI_USAGE = (
    "powersum {m} --method inductive",
    "powersum {m} --basis triangular --method closed",
    "eval {m} 2000000 --check",
    "bernoulli {m} --poly --at-half",
)
#: Slot order of one 20-request block: 12 small (one of them a usage error), 8 large.
CLI_PATTERN = "SLSSLSLSSLSSLSLSSLSL"
SMALL_RANGE = range(1, 41)
LARGE_RANGE = range(100, 401)
#: The known defect: `eval` values past 4300 digits crash the CLI with a
#: ValueError traceback and exit 1. Such requests stay out of the timed stream
#: (no timed operation may fail); these two run after it and are reported.
KNOWN_DEFECT_PROBES = ((100, 10**50), (400, 10**20))


def printable_power(m: int, k: int) -> int:
    """The largest power in EVAL_POWERS up to k at which `eval m 10^k` still prints.

    S_m(n) < n^(m+1) for n >= 2, so the value has at most k(m+1) digits.
    """
    return max(p for p in EVAL_POWERS if p <= k and p * (m + 1) <= INT_MAX_STR_DIGITS)


class CliCold:
    name = "cli-cold"
    why = (
        "a fresh `python -m faulhaber.cli` per request, so process start, import "
        "and a Bernoulli fill from B_0 are paid every time"
    )
    setup_reps = 15
    block = 1
    in_process = False
    probes = tuple(cli_op("eval {m} {n}", m, n) for m, n in KNOWN_DEFECT_PROBES)

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.trace_dir: Optional[Path] = None

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        *small, usage, n_small = streams(rng, [SMALL_RANGE] * (len(CLI_SMALL) + 1) + [EVAL_POWERS])
        *large, n_large = streams(rng, [LARGE_RANGE] * len(CLI_LARGE) + [EVAL_POWERS])
        blocks_done = 0
        while True:
            si = li = 0
            for slot in CLI_PATTERN:
                if slot == "L":
                    template, m = CLI_LARGE[li], large[li]()
                    n = 10 ** printable_power(m, n_large()) if "{n}" in template else 0
                    yield cli_op(template, m, n)
                    li += 1
                elif si < len(CLI_SMALL):
                    template = CLI_SMALL[si]
                    n = 10 ** n_small() if "{n}" in template else 0
                    yield cli_op(template, small[si](), n)
                    si += 1
                else:
                    yield cli_op(CLI_USAGE[blocks_done % len(CLI_USAGE)], usage())
            blocks_done += 1

    def universe(self) -> Iterator[Op]:
        for templates, exponents in ((CLI_SMALL, SMALL_RANGE), (CLI_LARGE, LARGE_RANGE)):
            for template in templates:
                for m in exponents:
                    if "{n}" in template:
                        for k in EVAL_POWERS:
                            yield cli_op(template, m, 10**k)
                    else:
                        yield cli_op(template, m)
        for template in CLI_USAGE:
            for m in SMALL_RANGE:
                yield cli_op(template, m)

    def setup(self) -> None:
        require_source()
        # one request warms the file cache and writes the bytecode cache
        subprocess.run(
            [sys.executable, "-m", "faulhaber.cli", "bernoulli", "0"],
            cwd=ROOT, env=self.env, capture_output=True, check=True, timeout=60,
        )

    def execute(self, op: Op, index: int, tracer=None):
        if tracer is not None:
            out = self.trace_dir / f"op{index}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   repr(perf_counter()), str(index), str(out), *op.argv]
        else:
            out = None
            cmd = [sys.executable, "-m", "faulhaber.cli", *op.argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=120)
        return proc, out

    def observe(self, op: Op, raw) -> str:
        proc, _ = raw
        return outcome(proc.returncode, proc.stdout)

    def absorb(self, raw, tracer) -> None:
        """Fold a traced child's aggregates and spans into the run's tracer."""
        _, path = raw
        if not path.exists():
            tracer.counts["cli.errors"] += 1  # the child died before writing its trace
            return
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh if not line.startswith("#")]
        path.unlink()
        tracer.merge(header["aggregates"], spans)


# -- library-warm -------------------------------------------------------------

WARM_RANGE = range(100, 401)
SQUARE_RANGE = range(100, 201, 2)
#: One block of library calls: every expensive call twice and the four cheap
#: ones once, so the cheap ones are a quarter of the calls and the median
#: lands mid-way through the expensive ones rather than at their steep low end.
WARM_BLOCK = (
    "faulhaber_form",
    "powersum_monomial",
    "expand_to_monomial",
    "shifted_form",
    "shifted_to_monomial",
    "powersum_via_bernoulli_poly",
    "shifted_closed_form",
    "square_in_triangular",
    "faulhaber_form",
    "eval",
    "expand_to_monomial",
    "shifted_form",
    "shifted_to_monomial",
    "bernoulli_polynomial",
    "powersum_via_bernoulli_poly",
    "square_in_triangular",
)
#: Calls whose argument is the result of the named earlier call in the block.
WARM_CHAINED = {
    "expand_to_monomial": "faulhaber_form",
    "shifted_to_monomial": "shifted_form",
    "eval": "powersum_monomial",
}


def library_result(value) -> bytes:
    """Canonical text of whatever a library call returned."""
    if isinstance(value, (int, Fraction)):
        return canonical("V", (), (value,))
    if hasattr(value, "multiplier"):  # FaulhaberForm
        return canonical("T", (value.power, value.parity, value.multiplier.value), value.coefficients)
    if hasattr(value, "parity"):  # ShiftedForm
        return canonical("S", (value.power, value.parity), value.coefficients)
    return canonical("P", (), value.coeffs)  # Polynomial


def library_outcome(raw) -> str:
    """Outcome of a library call: exit code 1 and the exception's type if it raised."""
    if isinstance(raw, Exception):
        return outcome(1, type(raw).__name__.encode())
    return outcome(0, library_result(raw))


class LibraryWarm(InProcess):
    name = "library-warm"
    why = (
        "library calls at exponents 100-400 on a filled Bernoulli table, so dense "
        "high-degree big-coefficient polynomial arithmetic dominates"
    )
    setup_reps = 5
    block = len(WARM_BLOCK)  # a set-up clears the results that chained calls take

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        kinds = [kind for kind in WARM_BLOCK if kind not in WARM_CHAINED]
        *draws, limits = streams(rng, [
            SQUARE_RANGE if kind == "square_in_triangular" else WARM_RANGE for kind in kinds
        ] + [EVAL_POWERS])
        draw = dict(zip(kinds, draws))
        while True:
            exponents = {}
            for kind in WARM_BLOCK:
                source = WARM_CHAINED.get(kind)
                m = exponents[source] if source else draw[kind]()
                exponents[kind] = m
                yield Op(kind, m, 10 ** limits() if kind == "eval" else 0)

    def universe(self) -> Iterator[Op]:
        for kind in WARM_BLOCK:
            for m in SQUARE_RANGE if kind == "square_in_triangular" else WARM_RANGE:
                if kind == "eval":
                    for k in EVAL_POWERS:
                        yield Op(kind, m, 10**k)
                else:
                    yield Op(kind, m)

    def setup(self) -> None:
        self.fresh_import()
        self.lib = sys.modules["faulhaber"]
        self.lib.bernoulli_number(max(WARM_RANGE) + 1)
        self.last: dict[str, object] = {}

    def execute(self, op: Op, index: int, tracer=None):
        source = WARM_CHAINED.get(op.kind)
        try:
            if op.kind == "eval":
                result = self.last[source](op.n)
            elif source:
                result = getattr(self.lib, op.kind)(self.last[source])
            else:
                result = getattr(self.lib, op.kind)(op.exponent)
        except Exception as exc:  # a failed call is an outcome to check, not a crash
            return exc
        self.last[op.kind] = result
        return result

    def observe(self, op: Op, raw) -> str:
        return library_outcome(raw)


# -- verify-sweep -------------------------------------------------------------

#: One block of in-process calls, with the range each one's bound is drawn
#: from: four cheap calls and ten dearer ones, so the median lands among the
#: latter. The two bare names are library calls: the second monomial route and
#: the square of an even power sum, which no CLI command reaches.
SWEEP_BLOCK = (
    ("verify odd-bernoulli --max {m}", range(20, 101)),
    ("verify roundtrip --max {m}", range(10, 31)),
    ("powersum_via_bernoulli_poly", range(20, 101)),
    ("powersum {m} --basis triangular --method inductive", range(20, 101)),
    ("eval {m} {n} --check", range(0, 41)),
    ("square_in_triangular", range(20, 101, 2)),
    ("verify recurrence --max {m}", range(10, 31)),
    ("verify constant-term --max {m}", range(10, 31)),
    ("verify lemma --max {m}", range(20, 301)),
    ("verify all --max {m}", range(8, 21)),
    ("verify roundtrip --max {m}", range(10, 31)),
    # below the minimum of the recurrence and constant-term suites: exit 2
    ("verify all --max {m}", range(1, 2)),
    ("powersum {m} --basis triangular --method inductive", range(20, 101)),
    ("verify recurrence --max {m}", range(10, 31)),
)


class VerifySweep(InProcess):
    name = "verify-sweep"
    why = (
        "verification sweeps, the inductive route and two library-only calls in process, "
        "mostly through `faulhaber.cli.main`: many small polynomials, lower-index tables "
        "rebuilt, the integer oracle"
    )
    setup_reps = 15

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        *draws, limits = streams(rng, [bounds for _, bounds in SWEEP_BLOCK] + [CHECK_LIMITS])
        while True:
            for (template, _), stream in zip(SWEEP_BLOCK, draws):
                yield sweep_op(template, stream(), limits() if "{n}" in template else 0)

    def universe(self) -> Iterator[Op]:
        for template, bounds in SWEEP_BLOCK:
            for m in bounds:
                if "{n}" in template:
                    for n in CHECK_LIMITS:
                        yield sweep_op(template, m, n)
                else:
                    yield sweep_op(template, m)

    def setup(self) -> None:
        self.cli = self.fresh_import()
        self.lib = sys.modules["faulhaber"]
        # the largest index any request reads: B_(2m+1) for odd-bernoulli
        self.cli.bernoulli_number(2 * max(SWEEP_BLOCK[0][1]) + 1)

    def execute(self, op: Op, index: int, tracer=None):
        if not op.argv:
            try:
                return getattr(self.lib, op.kind)(op.exponent)
            except Exception as exc:  # a failed call is an outcome to check, not a crash
                return exc
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # an uncaught error exits 1, as the interpreter would
                code = 1
        return code, out.getvalue()

    def observe(self, op: Op, raw) -> str:
        if not op.argv:
            return library_outcome(raw)
        code, text = raw
        return outcome(code, text.encode())


WORKLOADS = {w.name: w for w in (CliCold, LibraryWarm, VerifySweep)}
