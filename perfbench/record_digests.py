"""Record the sha256 of each workload's report for a range of seeds.

    python3 perfbench/record_digests.py --first 0 --last 99

Run from the root of a natforms checkout whose reports are known good (every
verdict PASSes).  Writes ``perfbench/digests.json``.  A dense_thm32 report is
the same for every seed, which the script checks on the seeds it records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import run
import workloads

# dense_thm32 has one digest for all seeds; it is recorded on this many
# seeds, which must agree.
DENSE_SEEDS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=99)
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    table = {}
    for name in workloads.WORKLOADS:
        seeds = range(args.first, args.last + 1)
        if name == "dense_thm32":
            seeds = seeds[:DENSE_SEEDS]
        by_seed = {}
        for seed in seeds:
            argv = workloads.setup(name, seed, False, run.WORKDIR)
            _, report, error = run.call(argv)
            if error or run.failed_verdicts(name, report, None):
                raise SystemExit(f"{name} seed {seed}: not every verdict passes ({error})")
            by_seed[str(seed)] = hashlib.sha256(report.encode()).hexdigest()
            print(name, seed, by_seed[str(seed)], file=sys.stderr, flush=True)
        size = workloads.report_size(name, workloads.size(name, seeds[0], False))
        if name == "dense_thm32":
            if len(set(by_seed.values())) != 1:
                raise SystemExit("dense_thm32 reports differ between coordinate changes")
            table[name] = {"size": size, "any_seed": by_seed[str(seeds[0])], "by_seed": {}}
        else:
            table[name] = {"size": size, "any_seed": None, "by_seed": by_seed}
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
