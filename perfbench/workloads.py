"""The benchmark's workloads: inputs drawn from a seed and the CLI call timed.

Each workload is one ``natforms`` command line, run in-process through
``natforms.cli.main``.  ``setup`` is the work a user pays before that call:
importing natforms and loading or drawing the connection.  It imports
natforms itself, so that the set-up probe can time the import.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("paper_all", "bianchi", "dense_thm32")

# Verdicts in one report of each workload.
VERDICTS = {"paper_all": 9, "bianchi": 1, "dense_thm32": 2}

# Connections per `verify bianchi` call.  One connection's cost varies by
# about 24% (coefficient of variation) from draw to draw; 40 of them bring
# the seed-to-seed spread of a call to about 4%.
BIANCHI_COUNT = 40

# The dense connection every dense_thm32 input is a relabelling of.  Of the
# dense n=4 draws measured to reach the generic ranks (seeds 1-3), seed 2 is
# the cheapest: about 10 s against 17 s and 28 s.
DENSE_BASE = {"seed": 2, "dimension": 4, "density": 20}


def size(name: str, seed: int, smoke: bool) -> dict:
    """What the workload's input is made of, for the record kept with a result."""
    if name == "paper_all":
        return {"connection": "bundled", "dimension": 4, "bianchi_count": 1 if smoke else 20}
    if name == "bianchi":
        return {"dimension": 4, "density": 6, "count": 1 if smoke else BIANCHI_COUNT}
    perm, signs = coordinate_change(seed, DENSE_BASE["dimension"])
    base = dict(DENSE_BASE, density=6) if smoke else DENSE_BASE
    return {"base": base, "coordinate_permutation": perm, "coordinate_signs": signs}


def report_size(name: str, info: dict) -> dict:
    """The part of a workload's size that its report bytes depend on.

    A dense_thm32 report does not depend on the coordinate change, so one
    digest covers every seed.
    """
    if name == "dense_thm32":
        return {"base": info["base"]}
    return info


def coordinate_change(seed: int, n: int) -> tuple[list[int], list[int]]:
    """A signed permutation of the coordinates, drawn from the seed."""
    rng = random.Random(seed)
    perm = rng.sample(range(1, n + 1), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return perm, signs


def relabel(conn, perm: list[int], signs: list[int]):
    """The connection in the coordinates y with x_perm[k] = signs[k] * y_k.

    A linear change of coordinates turns the Christoffel symbols into
    Gamma'^l_ij(y) = s_i s_j s_l Gamma^perm(l)_perm(i)perm(j)(x(y)).  Every
    quantity natforms derives is natural, so the verdicts, ranks, kernels and
    certificates of the relabelled connection equal the original's, while
    each component and polynomial moves to a new place.
    """
    from natforms.geometry import connection_from_entries
    from natforms.poly import Polynomial

    n = conn.dimension
    entries = {}
    for l in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                poly = conn.gamma(perm[l - 1], perm[i - 1], perm[j - 1])
                if poly.is_zero:
                    continue
                sign = signs[l - 1] * signs[i - 1] * signs[j - 1]
                terms = {}
                for mono, coeff in poly.terms.items():
                    new_mono = tuple(mono[p - 1] for p in perm)
                    mono_sign = 1
                    for k in range(n):
                        if signs[k] < 0 and new_mono[k] % 2:
                            mono_sign = -mono_sign
                    terms[new_mono] = coeff * sign * mono_sign
                entries[(l, i, j)] = Polynomial(n, terms)
    return connection_from_entries(n, entries)


def setup(name: str, seed: int, smoke: bool, workdir: str) -> list[str]:
    """Import natforms and load or draw the connection; return the argv to time."""
    from natforms import cli  # noqa: F401  (the import is part of set-up)
    from natforms.geometry import connection_to_json_obj, reference_connection
    from natforms.verify import RandomConnectionSpec, random_connections

    info = size(name, seed, smoke)
    if name == "paper_all":
        reference_connection()
        argv = ["verify", "all", "--format", "json", "--seed", str(seed)]
        return argv + (["--count", "1"] if smoke else [])
    if name == "bianchi":
        random_connections(RandomConnectionSpec(seed=seed), info["count"])
        return [
            "verify", "bianchi", "--format", "json", "--seed", str(seed),
            "--count", str(info["count"]),
        ]
    if name == "dense_thm32":
        spec = RandomConnectionSpec(**info["base"])
        base = random_connections(spec, 1)[0]
        conn = relabel(base, info["coordinate_permutation"], info["coordinate_signs"])
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, f"dense_thm32-{seed}{'-smoke' if smoke else ''}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(connection_to_json_obj(conn), handle)
        return ["verify", "thm-3.2", "--format", "json", "--connection", path]
    raise ValueError(f"unknown workload {name!r}")
