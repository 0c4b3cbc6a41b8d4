"""Run a workload once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload bianchi --seeds 1-10

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median, next to the bound fixed in BENCHMARK.json.  Runs go
one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True,
        )
        details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output ({result['failed']} of "
                  f"{result['attempted']} verdicts failed)", file=sys.stderr)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items() if k in bounds}
        raw = {k: round(v, 4) for k, v in details["uncorrected"].items()}
        print(f"seed {seed}: {shown} uncorrected {raw} "
              f"run took {time.perf_counter() - start:.1f} s", flush=True)
    for key, vals in values.items():
        if key not in bounds or len(vals) < 2:
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{key}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {spread:.3f} bound {bounds[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
