"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every workload at its smallest size (``--smoke``), untraced and
   traced, and checks that each metric named in BENCHMARK.json is printed
   with its unit and a finite value.  Whether the verdicts pass is not
   checked here.
2. Checks that the tracer sees every call: on paper_all (seed 1), the call
   count of every wrapped function must equal cProfile's ncalls.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import subprocess
import sys

import run
import workloads
from tracer import Tracer

# Call counts on paper_all that the coverage check prints; the check itself
# compares every wrapped function.
LISTED = (
    "generators.family_from_connection", "geometry.curvature", "geometry.normal1",
    "geometry.ext_cov_deriv_endo", "geometry.ext_cov_deriv_vector",
    "generators.apply_scheme", "tensor.permute_covariant", "tensor.is_antisymmetric",
    "exactla.in_span",
)


def check_metrics(bench: dict) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600,
            )
            if out.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace {trace}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in bench[section]}
            got = result["metrics"]
            if sorted(got) != sorted(expected):
                problems.append(
                    f"{name} trace {trace}: missing {sorted(set(expected) - set(got))}, "
                    f"extra {sorted(set(got) - set(expected))}"
                )
            for key, unit in expected.items():
                metric = got.get(key)
                if metric is None:
                    continue
                if metric.get("unit") != unit:
                    problems.append(f"{name} {key}: unit {metric.get('unit')!r}, expected {unit!r}")
                if not isinstance(metric.get("value"), (int, float)) or not math.isfinite(metric["value"]):
                    problems.append(f"{name} {key}: value {metric.get('value')!r} is not finite")
            print(f"metrics ok-so-far: {name} trace {trace}", file=sys.stderr)
    return problems


def check_coverage() -> list[str]:
    sys.path.insert(0, run.SRC)
    argv = workloads.setup("paper_all", 1, False, run.WORKDIR)
    tracer = Tracer()
    with tracer:
        run.call(argv)
    profile = cProfile.Profile()
    profile.runcall(run.call, argv)
    profile.create_stats()
    by_code = {
        (filename, line, func): ncalls
        for (filename, line, func), (_, ncalls, _, _, _) in profile.stats.items()
    }
    problems = []
    for key, fn in sorted(tracer.originals.items()):
        traced = tracer.calls.get(key, 0)
        code = fn.__code__
        profiled = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if traced != profiled:
            problems.append(f"{key}: traced {traced} calls, cProfile {profiled}")
    for key in LISTED:
        print(f"coverage: {key} traced {tracer.calls.get(key, 0)}", file=sys.stderr)
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    problems = check_metrics(bench) + check_coverage()
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
