"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Asserts that no workload's request stream holds a request listed as failing
by a known defect, and that cli-cold's untimed probes of that defect are
listed and reported. Runs each workload at a tiny size with checking on,
untraced and traced, and asserts that no operation fails, that both metric
sets are complete, and that the trace sanity checks hold. Then it corrupts
one expected outcome, once its digest and once its exit code, and asserts
each time that the checker reports that operation as failed and the run as
not correct.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys

from common import OUT_DIR, ROOT, Expected, load_expected
from run import run
from workloads import WORKLOADS

SEED = 3
TINY = {"cli-cold": 6, "library-warm": 10, "verify-sweep": 12}


def tiny(name: str, trace: bool, expected: Expected) -> dict:
    return run(name, SEED, math.inf, trace, expected=expected, max_ops=TINY[name],
               setup_reps=1, report_dir=OUT_DIR / "selftest")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    expected = load_expected()
    for name in TINY:
        drawn = {op.key for seed in (1, 2, 3) for op in itertools.islice(WORKLOADS[name]().ops(seed), 3000)}
        check(drawn <= expected.outcomes.keys() and not drawn & expected.known_defects,
              f"{name}: every request of the stream has an expected outcome and none is a known defect")

        report = tiny(name, False, expected)
        check(report["correct"] and report["attempted"] == TINY[name], f"{name}: {TINY[name]} ops run and checked")
        check(report["failed"] == 0, f"{name}: no operation fails {report['failed_ops']}")
        probes = report["known_defect_probes"]
        check(all(p["listed"] for p in probes) and len(probes) == len(WORKLOADS[name].probes),
              f"{name}: {len(probes)} known-defect probes listed and reported")
        check(set(report["metrics"]) == end_to_end and all(v > 0 for v, _ in report["metrics"].values()),
              f"{name}: every end-to-end metric reported and nonzero")

        traced = tiny(name, True, expected)
        check(traced["correct"] and traced["failed"] == report["failed"], f"{name}: traced run checks the same")
        check(set(traced["metrics"]) == per_layer, f"{name}: every per-layer metric reported")
        layers = {k: v for k, (v, _) in traced["metrics"].items()}
        if name == "library-warm":
            check(layers["bernoulli.hit_ratio"] == 1.0 and layers["bernoulli.fill_indices"] == 0,
                  f"{name}: Bernoulli table is warm (hit ratio 1, no fill)")
        if name == "cli-cold":
            check(layers["bernoulli.fill_indices"] > 0, f"{name}: every process fills its Bernoulli table")

        first = report["ops"][0][0]
        code, _, value = expected.outcomes[first].partition(":")
        for what, wrong in (
            ("result", f"{code}:{'0' * len(value) if value != '0' * len(value) else '1' * len(value)}"),
            ("exit code", f"{3 if code != '3' else 4}:{value}"),
        ):
            corrupted = dataclasses.replace(expected, outcomes={**expected.outcomes, first: wrong})
            bad = tiny(name, False, corrupted)
            check(bad["failed_ops"] == [first] and not bad["correct"],
                  f"{name}: a corrupted expected {what} is reported as a failed operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
