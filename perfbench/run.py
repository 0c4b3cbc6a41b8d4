"""Run one natforms benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 30 --trace 0

Run from the root of a natforms checkout; the library is imported from its
``src`` directory.  The workload's command is repeated in one single-threaded
process, each call starting after the previous one ended, until ``--seconds``
would be exceeded (at least one call).  Every report is checked: each verdict
must PASS and the report's sha256 must equal the digest recorded in
``digests.json`` for that workload and seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced calls, prints the per-layer metrics, checks that the traced report
is byte-identical to the plain one, and writes the spans of the last traced
call to ``.bench_build/perfbench/``.  The last line of standard output is the
result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 11

sys.path[:0] = [HERE]
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smallest input sizes and no digest check; used by selfcheck.py",
    )
    return parser.parse_args(argv)


# -- environment -------------------------------------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "natforms")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "natforms_commit": git_commit(),
        "natforms_source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": workloads.size(args.workload, args.seed, args.smoke),
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- set-up ---------------------------------------------------------------------------

PROBE = """
import sys, time
sys.path[:0] = [{here!r}, {src!r}]
import hostspeed, workloads
before = hostspeed.kernel_seconds()
start = time.perf_counter()
workloads.setup({name!r}, {seed!r}, {smoke!r}, {workdir!r})
took = time.perf_counter() - start
print(took, before, hostspeed.kernel_seconds())
"""


def setup_seconds(args: argparse.Namespace) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: import plus connection.

    Returns (corrected, raw) medians; see hostspeed.
    """
    code = PROBE.format(
        here=HERE, src=SRC, name=args.workload, seed=args.seed, smoke=args.smoke, workdir=WORKDIR
    )
    corrected, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        took, before, after = map(float, out.stdout.split())
        raw.append(took)
        corrected.append(hostspeed.corrected(took, before, after))
    return statistics.median(corrected), statistics.median(raw)


# -- one call ---------------------------------------------------------------------------

def call(argv: list[str]) -> tuple[float, str | None, str | None]:
    """Time one CLI call; returns (seconds, report, error)."""
    from natforms import cli

    gc.collect()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a raising verdict is a failed verdict, not a crash
        return time.perf_counter() - start, None, traceback.format_exc()
    took = time.perf_counter() - start
    if code == 2:
        return took, None, "natforms exited with status 2"
    return took, out.getvalue(), None


def failed_verdicts(name: str, report: str | None, expected_digest: str | None) -> int:
    """Verdicts of one report that FAIL, are missing, or whose bytes differ."""
    total = workloads.VERDICTS[name]
    if report is None:
        return total
    if expected_digest is not None:
        if hashlib.sha256(report.encode()).hexdigest() != expected_digest:
            return total
    try:
        verdicts = json.loads(report)
    except json.JSONDecodeError:
        return total
    passed = sum(1 for v in verdicts if v.get("pass") is True)
    return total - min(passed, total)


def recorded_digest(name: str, seed: int, size: dict) -> str | None:
    """The sha256 recorded for this workload and seed, if one was recorded."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        table = json.load(handle)[name]
    if table["size"] != workloads.report_size(name, size):
        raise SystemExit(f"digests.json was recorded for another {name} size; re-record it")
    return table["any_seed"] or table["by_seed"].get(str(seed))


# -- the run ------------------------------------------------------------------------

def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Returns the result object and the raw (uncorrected) medians."""
    setup_s, raw_setup_s = setup_seconds(args)
    size = workloads.size(args.workload, args.seed, args.smoke)
    digest = None if args.smoke else recorded_digest(args.workload, args.seed, size)
    if digest is None and not args.smoke:
        print(f"perfbench: no recorded digest for {args.workload} seed {args.seed}; "
              "checking verdicts and run-to-run identity only", file=sys.stderr)
    sys.path.insert(0, SRC)
    argv = workloads.setup(args.workload, args.seed, args.smoke, WORKDIR)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    deadline = time.perf_counter() + args.seconds
    plain, traced, raw, kernels, reports = [], [], [], [], set()
    attempted = failed = 0
    traced_metrics: list[dict] = []
    last_trace = None
    kernel_before = hostspeed.kernel_seconds()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        if use_tracer:
            tracer.reset()
            with tracer:
                origin = time.perf_counter()
                took, report, error = call(argv)
            last_trace = tracer.dump(origin)
        else:
            took, report, error = call(argv)
        kernel_after = hostspeed.kernel_seconds()
        factor = hostspeed.corrected(1.0, kernel_before, kernel_after)
        kernels.append(kernel_after)
        kernel_before = kernel_after
        if use_tracer:
            traced.append(took * factor)
            traced_metrics.append({
                k: v * factor if per_layer_unit(k) == "s" else v
                for k, v in tracer.metrics().items()
            })
        else:
            plain.append(took * factor)
            raw.append(took)
        if error:
            print(f"perfbench: {args.workload} call failed: {error}", file=sys.stderr)
        attempted += workloads.VERDICTS[args.workload]
        failed += failed_verdicts(args.workload, report, digest)
        reports.add(report)
        done = len(plain) >= 1 and (tracer is None or len(traced) >= 1)
        typical = statistics.median(raw) * 1.1
        if done and time.perf_counter() + typical > deadline:
            break
    if len(reports) > 1:
        print("perfbench: reports differ between calls (traced or not)", file=sys.stderr)
        failed = attempted

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        # Counts repeat exactly from call to call; times are medians.
        metrics = {
            key: (
                statistics.median(m[key] for m in traced_metrics)
                if per_layer_unit(key) == "s" else traced_metrics[0][key],
                per_layer_unit(key),
            )
            for key in traced_metrics[0]
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio"
        )
        os.makedirs(WORKDIR, exist_ok=True)
        path = os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"environment": environment(args), **last_trace}, handle)
    for key, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"metric {key} is not finite: {value}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    uncorrected = {
        "calls": len(raw) + len(traced),
        "wall_s_median": statistics.median(raw),
        "setup_s_median": raw_setup_s,
        "kernel_s_median": statistics.median(kernels),
    }
    return result, uncorrected


def per_layer_unit(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "natforms", "cli.py")):
        print(f"perfbench: no natforms sources under {SRC}; run from a natforms checkout",
              file=sys.stderr)
        return 2
    result, uncorrected = run(args)
    print(json.dumps({"environment": environment(args), "uncorrected": uncorrected}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
