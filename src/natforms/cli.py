"""Command-line interface: compute tensors, take exact ranks, run verdicts.

Every run logs the tool version, the input digest and the seed to stderr;
reports themselves stay byte-deterministic for identical inputs.  Exit
status: 0 when every requested verdict passes, 1 when a verdict fails,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

from . import __version__
from .exactla import echelon, echelon_kernel
from .generators import build_T_list
from .geometry import (
    Connection,
    Invariants,
    connection_to_json_obj,
    load_connection,
    reference_connection,
)
from .tensor import dumps as tensor_dumps
from .tensor import loads as tensor_loads
from .verify import (
    CLAIMS,
    RandomConnectionSpec,
    aggregate_pass,
    report_json,
    report_text,
    verify_all,
    verify_bianchi,
    verify_claim,
)

log = logging.getLogger("natforms")

# Each compute target and what it reads from the connection's Invariants.
COMPUTE_TARGETS = {
    "torsion": lambda q: q.torsion.tensor,
    "curvature": lambda q: q.curvature.tensor,
    "normal0": lambda q: q.normal0,
    "normal1": lambda q: q.normal1,
    "generators": lambda q: build_T_list(q.normal0, q.normal1),
    "dtor": lambda q: q.d_torsion.tensor,
    "dR": lambda q: q.d_curvature.tensor,
}


def _digest(path: str | None) -> str:
    if path is None:
        canonical = json.dumps(connection_to_json_obj(reference_connection()))
        return hashlib.sha256(canonical.encode()).hexdigest()
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load_connection_arg(path: str | None) -> Connection:
    if path is None:
        return reference_connection()
    return load_connection(path)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_compute(args: argparse.Namespace) -> int:
    conn = _load_connection_arg(args.connection)
    log.info("input digest sha256:%s", _digest(args.connection))
    what = args.what
    result = COMPUTE_TARGETS[what](Invariants(conn))
    if what == "generators":
        os.makedirs(args.out, exist_ok=True)
        manifest = {
            "tool": "natforms",
            "version": __version__,
            "connection_digest": _digest(args.connection),
            "entries": [],
        }
        for entry in result.entries:
            filename = f"{entry.label}.json"
            _write(os.path.join(args.out, filename), tensor_dumps(entry.form.tensor) + "\n")
            manifest["entries"].append(
                {
                    "label": entry.label,
                    "file": filename,
                    "base": entry.base,
                    "pattern": entry.pattern,
                }
            )
        _write(os.path.join(args.out, "manifest.json"), json.dumps(manifest, indent=2) + "\n")
        print(f"wrote 19 generator files and manifest.json to {args.out}")
        return 0
    _write(args.out, tensor_dumps(result) + "\n")
    print(f"wrote {what} to {args.out}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    paths = list(args.paths) + list(args.tensors or [])
    if not paths:
        raise ValueError("no tensor files given")
    fields = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            fields.append(tensor_loads(handle.read()))
    matrix = echelon(fields)
    observed = matrix.rank
    kernel = echelon_kernel(matrix) if args.kernel else None
    if args.format == "json":
        payload = {"files": paths, "rank": observed}
        if kernel is not None:
            payload["kernel"] = [[str(v) for v in vec] for vec in kernel]
        print(json.dumps(payload, indent=2))
    else:
        print(f"rank {observed} ({matrix.rows} coefficient rows, {matrix.cols} tensors)")
        if kernel is not None:
            if kernel:
                for index, vec in enumerate(kernel, start=1):
                    rendered = ", ".join(str(v) for v in vec)
                    print(f"kernel vector {index}: [{rendered}]")
            else:
                print("kernel is trivial")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.count < 1:
        # zero connections would make the bianchi verdict a vacuous PASS
        raise ValueError(f"--count must be at least 1, got {args.count}")
    spec = RandomConnectionSpec(seed=args.seed)
    log.info("seed %d", args.seed)
    target = args.target
    if target == "bianchi":
        if args.connection is not None:
            log.warning("the bianchi suite draws its own connections; --connection ignored")
        verdicts = [verify_bianchi(spec, args.count)]
    else:
        conn = _load_connection_arg(args.connection)
        log.info("input digest sha256:%s", _digest(args.connection))
        if target == "all":
            verdicts = verify_all(conn, spec, args.count)
        else:
            verdicts = verify_claim(target, conn)
    report = report_json(verdicts) if args.format == "json" else report_text(verdicts)
    sys.stdout.write(report if report.endswith("\n") else report + "\n")
    return 0 if aggregate_pass(verdicts) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natforms",
        description=(
            "Exact tensor calculus for affine connections with polynomial "
            "Christoffel symbols, with a built-in verification suite."
        ),
    )
    parser.add_argument("--version", action="version", version=f"natforms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute a tensor and write it as JSON")
    compute.add_argument("what", choices=COMPUTE_TARGETS)
    compute.add_argument("--connection", help="connection JSON file (default: bundled example)")
    compute.add_argument("--out", required=True, help="output file, or directory for generators")
    compute.set_defaults(func=cmd_compute)

    rank_cmd = sub.add_parser("rank", help="exact rank of flattened tensor files")
    rank_cmd.add_argument("paths", nargs="*", help="tensor JSON files")
    rank_cmd.add_argument("--tensors", nargs="+", help="additional tensor JSON files")
    rank_cmd.add_argument("--kernel", action="store_true", help="also print a kernel basis")
    rank_cmd.add_argument("--format", choices=("json", "text"), default="text")
    rank_cmd.set_defaults(func=cmd_rank)

    verify_cmd = sub.add_parser("verify", help="run machine-checked verdicts")
    verify_cmd.add_argument("target", choices=("all", *CLAIMS, "bianchi"))
    verify_cmd.add_argument("--connection", help="connection JSON file (default: bundled example)")
    verify_cmd.add_argument("--seed", type=int, default=1, help="seed for randomized suites")
    verify_cmd.add_argument("--count", type=int, default=20, help="number of random connections")
    verify_cmd.add_argument("--format", choices=("json", "text"), default="text")
    verify_cmd.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="natforms: %(message)s")
    log.info("version %s", __version__)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
