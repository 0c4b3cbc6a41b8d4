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
from .generators import RECIPE, build_T_list
from .geometry import (
    Connection,
    Invariants,
    connection_loads,
    connection_to_json_obj,
    reference_connection,
)
from .tensor import dumps as tensor_dumps
from .tensor import loads as tensor_loads
from .verify import (
    TARGETS,
    RandomConnectionSpec,
    aggregate_pass,
    report_json,
    report_text,
    verify_target,
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


def _load_connection_arg(path: str | None) -> tuple[Connection, str]:
    """The connection at path (default: the bundled one) and the sha256 of
    its document, logged.  The file is read once, so a pipe is digested as
    it was parsed."""
    if path is None:
        conn = reference_connection()
        data = json.dumps(connection_to_json_obj(conn)).encode()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
        conn = connection_loads(data.decode("utf-8"))
    digest = hashlib.sha256(data).hexdigest()
    log.info("input digest sha256:%s", digest)
    return conn, digest


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_compute(args: argparse.Namespace) -> int:
    conn, digest = _load_connection_arg(args.connection)
    what = args.what
    result = COMPUTE_TARGETS[what](Invariants(conn))
    if what == "generators":
        os.makedirs(args.out, exist_ok=True)
        manifest = {
            "tool": "natforms",
            "version": __version__,
            "connection_digest": digest,
            "entries": [],
        }
        for label, field in result.tensors.items():
            filename = f"{label}.json"
            _write(os.path.join(args.out, filename), tensor_dumps(field) + "\n")
            base, pattern = RECIPE[label]
            manifest["entries"].append(
                {"label": label, "file": filename, "base": base, "pattern": pattern}
            )
        _write(os.path.join(args.out, "manifest.json"), json.dumps(manifest, indent=2) + "\n")
        print(f"wrote 19 generator files and manifest.json to {args.out}")
        return 0
    _write(args.out, tensor_dumps(result) + "\n")
    print(f"wrote {what} to {args.out}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    paths = args.paths
    if not paths:
        raise ValueError("no tensor files given")
    fields = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                fields.append(tensor_loads(handle.read()))
        except ValueError as exc:
            # rank reads several files, so say which one is at fault
            raise ValueError(f"{path}: {exc}") from exc
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
    log.info("seed %d", args.seed)
    conn = None
    if args.target != "bianchi":
        conn, _ = _load_connection_arg(args.connection)
    elif args.connection is not None:
        log.warning("the bianchi suite draws its own connections; --connection ignored")
    verdicts = verify_target(args.target, conn, RandomConnectionSpec(seed=args.seed), args.count)
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
    rank_cmd.add_argument("--kernel", action="store_true", help="also print a kernel basis")
    rank_cmd.add_argument("--format", choices=("json", "text"), default="text")
    rank_cmd.set_defaults(func=cmd_rank)

    verify_cmd = sub.add_parser("verify", help="run machine-checked verdicts")
    verify_cmd.add_argument("target", choices=TARGETS)
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
