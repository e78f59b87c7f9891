"""Benchmark of the faulhaber library and CLI.

    python3 perfbench/run.py --workload cli-cold|library-warm|verify-sweep \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Each run sets up several times (the median is
`setup_s`): once before the first request, then at block boundaries spread
evenly over the run, so that the set-ups sample the machine over the whole
run as the requests do. It drives one closed loop of requests until S seconds
of timed requests have passed, and checks every outcome against
perfbench/expected.json outside the timed intervals. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A full report goes to
perfbench/out/.

With --trace 1 the same seed runs with every listed library function wrapped
(see tracing.py). Each request also runs once more untraced right after its
traced run, and the difference in timed time is `trace.overhead_s`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from common import OUT_DIR, Expected, load_expected
from workloads import WORKLOADS, Op, require_source
from tracing import Tracer

#: ROADMAP's standard degrees; library-warm's trace report buckets self time by them.
STANDARD_DEGREES = (100, 200, 400)


@dataclass
class Record:
    op: Op
    seconds: float
    observed: str
    expected: str

    @property
    def ok(self) -> bool:
        return self.observed == self.expected

    @property
    def loud(self) -> bool:
        """Failed with a non-zero exit code, rather than printing a wrong result."""
        return not self.observed.startswith("0:")


def run_op(workload, op: Op, index: int, expected: Expected, tracer=None) -> Record:
    start = perf_counter()
    raw = workload.execute(op, index, tracer)
    elapsed = perf_counter() - start
    if tracer is not None:
        workload.absorb(raw, tracer)
    return Record(op, elapsed, workload.observe(op, raw), expected.outcomes[op.key])


def drive(workload, ops, seconds: float, expected: Expected, set_up, resetups: int,
          tracer=None, max_ops=None):
    """Closed loop: run ops one after another until `seconds` of timed work.

    `set_up` runs `resetups` more times, untimed for the loop: the i-th at the
    first block boundary after i/(resetups+1) of `seconds`, and any left over
    once the loop ends.

    With a tracer, each op runs traced (that run is timed and counted) and
    then at once untraced, so both see the same machine state; the untraced
    twins' records are returned too, for the tracing overhead. Both runs of
    an op count towards `seconds`, so a traced run takes as long as another.
    """
    records: list[Record] = []
    twins: list[Record] = []
    busy = twin_busy = 0.0
    due = [seconds * (i + 1) / (resetups + 1) for i in range(resetups)]
    for index, op in enumerate(ops):
        if busy + twin_busy >= seconds or (max_ops is not None and index >= max_ops):
            break
        if due and busy + twin_busy >= due[0] and index % workload.block == 0:
            due.pop(0)
            set_up()
        if tracer is None:
            records.append(run_op(workload, op, index, expected))
        else:
            tracer.op_id = index
            if workload.in_process:
                tracer.install()
            try:
                records.append(run_op(workload, op, index, expected, tracer))
            finally:
                tracer.uninstall()
            twins.append(run_op(workload, op, index, expected))
            twin_busy += twins[-1].seconds
        busy += records[-1].seconds
    for _ in due:
        set_up()
    return records, busy, twins


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Below 11 samples, the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    rank = n - 11
    return ordered[rank], 100.0 * rank / (n - 1), n - 1 - rank


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def bucket_of(exponent: int, edges) -> str:
    return next(f"<={edge}" for edge in edges if exponent <= edge)


def nearest_degree(exponent: int) -> str:
    """The standard degree nearest on a log scale: 100-141, 142-282, 283-400."""
    return "d~%d" % min(STANDARD_DEGREES, key=lambda d: abs(math.log(exponent / d)))


def histogram(records: list[Record]) -> dict[str, int]:
    edges = (40, 99, 199, 299, 400)
    counts = Counter(bucket_of(r.op.exponent, edges) for r in records)
    return {f"<={edge}": counts[f"<={edge}"] for edge in edges}


def degree_buckets(tracer: Tracer, records: list[Record]) -> dict:
    """Per-layer self time per operation, by the standard degree nearest its exponent."""
    ops_in = Counter(nearest_degree(r.op.exponent) for r in records)
    totals: dict = {}
    for (op_id, layer), s in tracer.self_by_op.items():
        bucket = nearest_degree(records[op_id].op.exponent)
        totals.setdefault(bucket, Counter())[layer] += s
    latency: dict = {}
    for r in records:
        latency.setdefault(nearest_degree(r.op.exponent), {}).setdefault(r.op.kind, []).append(r.seconds)
    return {
        bucket: {
            "ops": ops_in[bucket],
            "self_ms_per_op": {
                k: 1000 * v / ops_in[bucket] for k, v in sorted(totals.get(bucket, {}).items())
            },
            "median_latency_ms": {
                k: 1000 * statistics.median(v) for k, v in sorted(latency.get(bucket, {}).items())
            },
        }
        for bucket in (f"d~{d}" for d in STANDARD_DEGREES)
    }


def summarize(workload, seed, seconds, records, busy, setup_times, trace) -> dict:
    good = [r.seconds for r in records if r.ok]
    attempted, failed = len(records), sum(not r.ok for r in records)
    tail_value, tail_pct, beyond = tail(good) if good else (0.0, 0.0, 0)
    pairs = Counter((r.op.kind, r.op.exponent) for r in records)
    expected_fail = sum(not r.expected.startswith("0:") for r in records)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "load_model": "closed loop, one client, no threads",
        "samples": attempted,
        "timed_s": busy,
        "setup_runs_s": setup_times,
        "latency_quartiles_ms": [1000 * q for q in statistics.quantiles(good, n=4)] if len(good) > 1 else [],
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "tail_samples": len(good),
        "failed_ops": [r.op.key for r in records if not r.ok],
        "expected_nonzero_exit_share": expected_fail / attempted,
        "repeated_pair_share": sum(c - 1 for c in pairs.values()) / attempted,
        "exponent_histogram": histogram(records),
        "kinds": dict(Counter(r.op.kind for r in records)),
        "end_to_end": {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_ops_s": (sum(r.ok for r in records) / busy, "1/s"),
            "latency_p50_ms": (1000 * statistics.median(good) if good else 0.0, "ms"),
            "latency_tail_ms": (1000 * tail_value, "ms"),
            "error_rate": (failed / attempted, "ratio"),
            "peak_rss_mib": (peak_rss_mib(workload), "MiB"),
        },
        "correct": all(r.ok for r in records),
        "attempted": attempted,
        "failed": failed,
        "ops": [(r.op.key, 1000 * r.seconds, r.ok) for r in records],
    }


def run(name: str, seed: int, seconds: float, trace: bool, expected: Expected | None = None,
        max_ops=None, setup_reps=None, report_dir=OUT_DIR) -> dict:
    require_source()
    expected = load_expected() if expected is None else expected
    workload = WORKLOADS[name]()
    setup_times: list[float] = []

    def set_up():
        start = perf_counter()
        workload.setup()
        stream = workload.ops(seed)
        setup_times.append(perf_counter() - start)
        return stream

    ops = set_up()  # later set-ups leave this stream running

    report_dir.mkdir(parents=True, exist_ok=True)
    stem = report_dir / f"{name}-seed{seed}-trace{int(trace)}"
    tracer = Tracer() if trace else None
    if trace and workload.in_process:
        tracer.startup_s.append(workload.import_s)
    elif trace:
        workload.trace_dir = report_dir / f"{stem.name}-children"
        workload.trace_dir.mkdir(exist_ok=True)
    records, busy, twins = drive(workload, ops, seconds, expected, set_up,
                                 (setup_reps or workload.setup_reps) - 1, tracer, max_ops)
    report = summarize(workload, seed, seconds, records, busy, setup_times, trace)
    probes = [run_op(workload, op, -1, expected) for op in workload.probes]
    report["known_defect_probes"] = [
        {"request": r.op.key[:40] + ("..." if len(r.op.key) > 40 else ""),
         "listed": r.op.key in expected.known_defects, "still_fails": not r.ok,
         "observed": r.observed, "expected": r.expected}
        for r in probes
    ]
    # a probe may crash (the defect) or print the right value (fixed), never a wrong one
    report["correct"] = report["correct"] and all(r.ok or r.loud for r in probes)
    if not trace:
        metrics = {k: v for k, v in report["end_to_end"].items() if k != "error_rate"}
    else:
        untraced = sum(r.seconds for r in twins)
        report["correct"] = report["correct"] and all(r.ok for r in twins)
        report["untraced_failed"] = sum(not r.ok for r in twins)
        report["traced_s"], report["untraced_s"] = busy, untraced
        metrics = report["per_layer"] = tracer.layer_metrics(busy - untraced)
        if name == "library-warm":
            report["degree_buckets"] = degree_buckets(tracer, records)
        tracer.dump(f"{stem}.spans.jsonl", {"workload": name, "seed": seed})
        report["spans_file"] = f"{stem.name}.spans.jsonl"
        if not workload.in_process:
            workload.trace_dir.rmdir()
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    report["metrics"] = metrics
    report["report_file"] = f"{stem}.json"
    return report


def print_report(report: dict) -> None:
    e2e = report["end_to_end"]
    print(f"{report['workload']} seed {report['seed']} trace {int(report['trace'])}: "
          f"{report['attempted']} ops, {report['failed']} failed, "
          f"{report['timed_s']:.2f} s timed; Python {report['python']}, nproc {report['nproc']}")
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{report['tail_percentile']:.1f} of {report['tail_samples']} samples, "
                     f"{report['tail_samples_beyond']} beyond)")
        print(f"  {name:18s} {value:14.6g} {unit}{extra}")
    for probe in report["known_defect_probes"]:
        state = "still fails" if probe["still_fails"] else "now passes"
        print(f"  known defect, untimed: {probe['request']} {state} ({probe['observed']})")
    if report["failed_ops"]:
        print(f"  failed: {', '.join(k[:60] for k in report['failed_ops'][:8])}"
              + (" ..." if len(report["failed_ops"]) > 8 else ""))
    for name, (value, unit) in report.get("per_layer", {}).items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  report: {os.path.relpath(report['report_file'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
