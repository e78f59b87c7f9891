"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload W [--workload W ...] --seeds 1-10 [--seconds 20]

Runs `run.py` once per seed, one run at a time, and reports for each metric
the median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the bound in BENCHMARK.json. Results are written
to perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter

from common import HERE, OUT_DIR, ROOT


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    OUT_DIR.mkdir(exist_ok=True)
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": perf_counter() - start, **result})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        print(f"{workload}: {len(args.seeds)} seeds, {seconds:g} s each")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:18s} median {median:12.6g}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
        failed = [r["failed"] for r in runs]
        print(f"  failed per run {failed}, correct {all(r['correct'] for r in runs)}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        (OUT_DIR / f"spread-{workload}.json").write_text(json.dumps(
            {"workload": workload, "seconds": seconds, "seeds": args.seeds, "metrics": summary, "runs": runs},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
