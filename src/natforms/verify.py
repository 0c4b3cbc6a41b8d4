"""Machine-checked verdicts for the library's headline claims.

Each claim is reproduced as a named Verdict carrying exact certificates
(ranks, kernel vectors, combination coefficients), which are re-checked
independently before the verdict is emitted: kernel vectors are multiplied
back into every row of the matrix and memberships are re-substituted (both
by :mod:`natforms.exactla`, in integers), and the closed combinations are
re-differentiated on the tensor fields themselves.  Each matrix is
eliminated once, by :func:`natforms.exactla.echelon`, and every rank,
kernel and membership of that matrix reads the one echelon.

Every quantity that two or more verdicts read is derived once per
connection by :class:`Derived`, which extends
:class:`natforms.geometry.Invariants` (torsion, curvature, the normal
tensors and both structure differentials) with the claim quantities, and
:data:`CLAIMS` is the one ordered list of the claims that take a
connection.  Claims about the 19-generator family require dimension >= 4
and are refused below that rather than reporting a misleading failure;
the shared derivation itself takes any dimension.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactla import echelon, echelon_kernel, echelon_members, span_equal
from .generators import (
    GeneratorFamily,
    apply_scheme,
    build_T_list,
    doubled_d5_variant,
    dropped_c3_generator,
    enumerate_schemes,
    vanishing_d3_pattern,
)
from .geometry import (
    Connection,
    EndValuedForm,
    Invariants,
    VectorValuedForm,
    connection_from_entries,
    connection_to_json_obj,
    ext_cov_deriv_endo,
    ext_cov_deriv_vector,
    exterior_derivative,
    identity_oneform,
    tensor_identity,
    wedge_endo_identity,
    wedge_oneform_identity,
)
from .poly import Polynomial
from .tensor import (
    TensorField,
    TensorShape,
    antisymmetrize_pair,
    contract,
    equal,
    is_antisymmetric,
    permute_covariant,
    tensor_product,
    zero,
)


@dataclass(frozen=True)
class Verdict:
    claim_id: str
    expected: str
    observed: str
    passed: bool
    certificate: dict


def _plain(value):
    """Render certificate data with exact rationals as strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def verdict_to_json_obj(verdict: Verdict) -> dict:
    return {
        "claim_id": verdict.claim_id,
        "expected": verdict.expected,
        "observed": verdict.observed,
        "pass": verdict.passed,
        "certificate": _plain(verdict.certificate),
    }


def report_json(verdicts: list[Verdict]) -> str:
    return json.dumps([verdict_to_json_obj(v) for v in verdicts], indent=2)


def report_text(verdicts: list[Verdict]) -> str:
    lines = []
    for v in verdicts:
        lines.append(f"claim {v.claim_id}: {'PASS' if v.passed else 'FAIL'}")
        lines.append(f"  expected: {v.expected}")
        lines.append(f"  observed: {v.observed}")
    passed = sum(1 for v in verdicts if v.passed)
    status = "PASS" if passed == len(verdicts) else "FAIL"
    lines.append(f"aggregate: {status} ({passed}/{len(verdicts)} claims)")
    return "\n".join(lines) + "\n"


def aggregate_pass(verdicts: list[Verdict]) -> bool:
    return all(v.passed for v in verdicts)


class Derived(Invariants):
    """The invariants of one connection plus the claim quantities that two
    or more verdicts read.

    Each is computed on first use and kept for the next verdict, so verdicts
    read these values and never modify them.  A connection of dimension
    below 4 is refused here, before any verdict runs.
    """

    def __init__(self, conn: Connection) -> None:
        if conn.dimension < 4:
            raise ValueError(
                f"this claim requires dimension >= 4, got {conn.dimension}"
            )
        super().__init__(conn)

    @cached_property
    def torsion_trace(self) -> TensorField:
        return contract(self.torsion.tensor, 1, 1)

    @cached_property
    def family(self) -> GeneratorFamily:
        return build_T_list(self.normal0, self.normal1)

    @cached_property
    def closed_combinations(self) -> dict[str, TensorField]:
        """T2-T13, T4 and T7: the combinations the thm-3.2 kernel names."""
        family = self.family
        return {
            "T2-T13": family["T2"].form.tensor - family["T13"].form.tensor,
            "T4": family["T4"].form.tensor,
            "T7": family["T7"].form.tensor,
        }

    @cached_property
    def trace_wedge(self) -> VectorValuedForm:
        """H = (tr Tor)^I."""
        return wedge_oneform_identity(self.torsion_trace)

    @cached_property
    def curvature_trace_identity(self) -> EndValuedForm:
        """(tr R) x I."""
        return tensor_identity(contract(self.curvature.tensor, 3, 1))

    @cached_property
    def d_torsion_trace_identity(self) -> EndValuedForm:
        """(d tr Tor) x I."""
        return tensor_identity(exterior_derivative(self.torsion_trace))

    @cached_property
    def three_forms(self) -> dict[str, TensorField]:
        """The four derived vector-valued 3-forms of lemma 3.4."""
        return {
            "R^I": wedge_endo_identity(self.curvature).tensor,
            "(trR xI)^I": wedge_endo_identity(self.curvature_trace_identity).tensor,
            "(d trTor xI)^I": wedge_endo_identity(self.d_torsion_trace_identity).tensor,
            "dH": ext_cov_deriv_vector(self.conn, self.trace_wedge).tensor,
        }


# -- randomized connections ------------------------------------------------------

@dataclass(frozen=True)
class RandomConnectionSpec:
    """Deterministic sampler parameters; identical specs yield identical draws.

    The sampler walks a single ``random.Random(seed)`` stream.  For each
    connection it picks ``density`` distinct Christoffel positions
    (``rng.sample`` over all (upper, i, j) triples in lexicographic order),
    then fills each with a polynomial of 1..3 terms: every term gets a
    nonzero integer coefficient in [-coefficient_bound, coefficient_bound]
    and a monomial built from ``degree`` uniform variable draws with
    degree in 0..max_degree.  Entries that cancel to zero are redrawn.
    """

    seed: int = 1
    dimension: int = 4
    max_degree: int = 2
    coefficient_bound: int = 3
    density: int = 6


def _random_polynomial(rng: random.Random, spec: RandomConnectionSpec) -> Polynomial:
    n = spec.dimension
    bound = spec.coefficient_bound
    nonzero = [c for c in range(-bound, bound + 1) if c != 0]
    while True:
        terms: dict[tuple[int, ...], Fraction] = {}
        for _ in range(rng.randint(1, 3)):
            coeff = rng.choice(nonzero)
            exps = [0] * n
            for _ in range(rng.randint(0, spec.max_degree)):
                exps[rng.randrange(n)] += 1
            mono = tuple(exps)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        poly = Polynomial(n, terms)
        if not poly.is_zero:
            return poly


def random_connections(spec: RandomConnectionSpec, count: int) -> list[Connection]:
    rng = random.Random(spec.seed)
    n = spec.dimension
    triples = list(itertools.product(range(1, n + 1), repeat=3))
    out = []
    for _ in range(count):
        chosen = rng.sample(triples, spec.density)
        entries = {key: _random_polynomial(rng, spec) for key in chosen}
        out.append(connection_from_entries(n, entries))
    return out


# -- individual claims -------------------------------------------------------------

def verify_lemma_3_1(d: Derived) -> Verdict:
    """The 19 flattened generators are linearly independent (rank 19)."""
    family = d.family
    fields = family.fields()
    matrix = echelon(fields)
    observed_rank = matrix.rank
    n0 = d.normal0
    doubled = doubled_d5_variant(n0)
    certificate = {
        "labels": family.labels(),
        "matrix_rows": matrix.rows,
        "rank": observed_rank,
        "t19_variants": {
            "family_uses": "(jki)-(ikj) pattern on D5",
            "doubled_d5_is_antisymmetric": is_antisymmetric(doubled, 1, 2),
            "rank_with_doubled_d5": echelon(fields[:18] + [doubled]).rank,
        },
        "t16_variants": {
            "family_uses": "(ijk)-(jik) pattern on D3",
            "printed_jki_pattern_is_identically_zero": vanishing_d3_pattern(n0).is_zero,
        },
    }
    return Verdict(
        claim_id="lemma-3.1",
        expected="flattened generators T1..T19 have rank 19",
        observed=f"rank {observed_rank}",
        passed=observed_rank == 19,
        certificate=certificate,
    )


def verify_dropped_generator(d: Derived) -> Verdict:
    """The removed C3 pattern is a combination of T5, T6, T8, T9, T11."""
    family = d.family
    dropped = dropped_c3_generator(d.normal1)
    keep = ["T5", "T6", "T8", "T9", "T11"]
    fields = [family[label].form.tensor for label in keep] + [dropped]
    [(member, coeffs)] = echelon_members(echelon(fields), len(keep))
    certificate = {
        "basis": keep,
        "member": member,
        "coefficients": dict(zip(keep, coeffs)) if member else None,
    }
    return Verdict(
        claim_id="lemma-3.1-dropped-generator",
        expected="the removed C3 pattern lies in span{T5, T6, T8, T9, T11}",
        observed="member with exact coefficients" if member else "not a member",
        passed=member,
        certificate=certificate,
    )


def _expected_kernel_vectors() -> list[tuple[Fraction, ...]]:
    def unit(*pairs):
        vec = [Fraction(0)] * 19
        for index, value in pairs:
            vec[index - 1] = Fraction(value)
        return tuple(vec)

    return [unit((2, 1), (13, -1)), unit((4, 1)), unit((7, 1))]


def verify_thm_3_2(d: Derived) -> Verdict:
    """The closed subspace has dimension 3: kernel = span{e2-e13, e4, e7}."""
    # the 19 differentials are read only here, so they are not kept on d
    differentials = [ext_cov_deriv_endo(d.conn, e.form).tensor for e in d.family.entries]
    matrix = echelon(differentials)
    kernel = echelon_kernel(matrix)
    expected = _expected_kernel_vectors()
    spans_equal, spans = span_equal(kernel, expected)
    # re-check closedness directly on the tensor fields, upstream of flattening
    closed_recheck = {
        label: ext_cov_deriv_endo(d.conn, EndValuedForm(2, fld)).tensor.is_zero
        for label, fld in d.closed_combinations.items()
    }
    certificate = {
        "matrix_rows": matrix.rows,
        "kernel_dimension": len(kernel),
        "kernel_vectors": [list(v) for v in kernel],
        "expected_vectors": [list(v) for v in expected],
        "kernel_in_expected_span": [m[0] for m in spans["a_in_b"]],
        "expected_in_kernel_span": [m[0] for m in spans["b_in_a"]],
        "closed_recheck_on_fields": closed_recheck,
    }
    passed = spans_equal and all(closed_recheck.values())
    return Verdict(
        claim_id="thm-3.2",
        expected="differentials have a 3-dimensional kernel equal to span{e2-e13, e4, e7}",
        observed=(
            f"kernel dimension {len(kernel)}, spans {'equal' if spans_equal else 'different'}"
        ),
        passed=passed,
        certificate=certificate,
    )


def _closed_form_fields(d: Derived) -> dict[str, TensorField]:
    """The three reference closed 2-forms: R, -d(tr Tor)xI - (tr R)xI, -(tr R)xI."""
    trace_identity = d.curvature_trace_identity.tensor
    return {
        "R": d.curvature.tensor,
        "-d(trTor)xI-(trR)xI": d.d_torsion_trace_identity.tensor.scale(-1) - trace_identity,
        "-(trR)xI": trace_identity.scale(-1),
    }


def verify_closed_forms(d: Derived) -> Verdict:
    """span{T2-T13, T4, T7} equals the span of the three reference closed
    forms; exact per-pair equalities are reported but only the span equality
    is the pass condition."""
    combos = d.closed_combinations
    references = _closed_form_fields(d)
    spans_equal, spans = span_equal(list(combos.values()), list(references.values()))
    pairings = {}
    for (label, fld), ref_label in zip(combos.items(), references):
        ref_field = references[ref_label]
        exact = equal(fld, ref_field)
        [(member, coeffs)] = echelon_members(echelon([ref_field, fld]), 1)
        pairings[f"{label} vs {ref_label}"] = {
            "exactly_equal": exact,
            "proportional": member,
            "scale": coeffs[0] if member else None,
        }
    certificate = {
        "rank_combinations": spans["rank_a"],
        "rank_references": spans["rank_b"],
        "combinations_in_reference_span": [m[0] for m in spans["a_in_b"]],
        "references_in_combination_span": [m[0] for m in spans["b_in_a"]],
        "pairwise_identification": pairings,
    }
    return Verdict(
        claim_id="thm-3.2-closed-forms",
        expected="span{T2-T13, T4, T7} equals span of the three reference closed forms",
        observed="spans equal" if spans_equal else "spans differ",
        passed=spans_equal,
        certificate=certificate,
    )


def verify_lemma_3_4(d: Derived) -> Verdict:
    """The four derived vector-valued 3-forms are linearly independent."""
    forms = d.three_forms
    matrix = echelon(list(forms.values()))
    observed_rank = matrix.rank
    return Verdict(
        claim_id="lemma-3.4",
        expected="the four 3-forms have rank 4",
        observed=f"rank {observed_rank}",
        passed=observed_rank == 4,
        certificate={"labels": list(forms), "matrix_rows": matrix.rows, "rank": observed_rank},
    )


def verify_lemma_3_5_partial(d: Derived) -> Verdict:
    """Torsion and the trace-wedge 2-form are independent (rank 2).

    Only independence is checked here; that the pair spans all natural
    vector-valued 2-forms rests on prior classification work and is out
    of scope, so this claim is deliberately partial.
    """
    tor = d.torsion.tensor
    h = d.trace_wedge.tensor
    matrix = echelon([tor, h])
    observed_rank = matrix.rank
    return Verdict(
        claim_id="lemma-3.5",
        expected="Tor and H = (tr Tor)^I have rank 2",
        observed=f"rank {observed_rank}",
        passed=observed_rank == 2,
        certificate={
            "matrix_rows": matrix.rows,
            "rank": observed_rank,
            "h_is_zero": h.is_zero,
        },
    )


def verify_thm_3_5(d: Derived) -> Verdict:
    """Uniqueness system: d(la*Tor + mu*H) = (l1*R + l2*trR xI + l3*d trTor xI)^I
    and closedness of the second form admit only (la, mu, l1, l2, l3)
    proportional to (1, 0, 1, 0, 0)."""
    wedges = d.three_forms
    first = [
        d.d_torsion.tensor,
        wedges["dH"],
        wedges["R^I"].scale(-1),
        wedges["(trR xI)^I"].scale(-1),
        wedges["(d trTor xI)^I"].scale(-1),
    ]
    betas = (d.curvature_trace_identity, d.d_torsion_trace_identity)
    beta_diffs = [d.d_curvature.tensor] + [ext_cov_deriv_endo(d.conn, b).tensor for b in betas]
    # the closedness rows do not involve lambda and mu: two zero columns
    absent = zero(beta_diffs[0].shape)
    system = echelon(first, [absent, absent, *beta_diffs])
    solutions = echelon_kernel(system)
    expected = (Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    passed = solutions == [expected]
    beta_block_kernel = echelon_kernel(echelon(beta_diffs))
    certificate = {
        "unknowns": ["lambda", "mu", "lambda1", "lambda2", "lambda3"],
        "system_rows": system.rows,
        "solution_basis": [list(v) for v in solutions],
        "expected_solution": list(expected),
        "beta_block_kernel_dimension": len(beta_block_kernel),
    }
    return Verdict(
        claim_id="thm-3.5",
        expected="solution space is 1-dimensional, spanned by (1, 0, 1, 0, 0)",
        observed=f"solution space dimension {len(solutions)}",
        passed=passed,
        certificate=certificate,
    )


def verify_bianchi(spec: RandomConnectionSpec, count: int = 20) -> Verdict:
    """Both structure identities, the differential of the identity 1-form,
    and the normal-tensor symmetrization, on seeded random connections."""
    if count < 1:
        # zero connections would make the verdict a vacuous PASS
        raise ValueError(f"count must be at least 1, got {count}")
    connections = random_connections(spec, count)
    runs = []
    all_ok = True
    for index, conn in enumerate(connections):
        # one connection's invariants at a time: rebinding q frees the last
        q = Invariants(conn)
        first = equal(q.d_torsion.tensor, wedge_endo_identity(q.curvature).tensor)
        second = q.d_curvature.tensor.is_zero
        d_identity = equal(
            ext_cov_deriv_vector(conn, identity_oneform(conn.dimension)).tensor,
            q.torsion.tensor,
        )
        n1 = q.normal1
        pieces = [permute_covariant(n1, perm) for perm in itertools.permutations((1, 2, 3))]
        symmetrization_zero = sum(pieces[1:], pieces[0]).is_zero
        ok = first and second and d_identity and symmetrization_zero
        all_ok = all_ok and ok
        runs.append(
            {
                "index": index,
                "connection": connection_to_json_obj(conn),
                "first_identity": first,
                "second_identity": second,
                "d_of_identity_is_torsion": d_identity,
                "normal1_symmetrization_zero": symmetrization_zero,
            }
        )
    certificate = {
        "seed": spec.seed,
        "count": count,
        "spec": {
            "dimension": spec.dimension,
            "max_degree": spec.max_degree,
            "coefficient_bound": spec.coefficient_bound,
            "density": spec.density,
        },
        "runs": runs,
    }
    return Verdict(
        claim_id="bianchi",
        expected=f"both structure identities hold exactly on {count} seeded connections",
        observed="all identities hold" if all_ok else "at least one identity failed",
        passed=all_ok,
        certificate=certificate,
    )


def verify_schemes(d: Derived) -> Verdict:
    """Scheme enumeration counts and containment of the hand-built family
    in the projected scheme spans."""
    n = d.conn.dimension
    shape31 = TensorShape(3, 1, n)
    shape42 = TensorShape(4, 2, n)
    schemes31 = enumerate_schemes(shape31, shape31)
    schemes42 = enumerate_schemes(shape42, shape31)
    schemes_mismatch = enumerate_schemes(TensorShape(2, 1, n), shape31)
    counts_ok = (
        len(schemes31) == 24 and len(schemes42) == 120 and schemes_mismatch == []
    )
    family = d.family
    projected31 = [
        antisymmetrize_pair(apply_scheme(s, d.normal1), 1, 2) for s in schemes31
    ]
    n0_squared = tensor_product(d.normal0, d.normal0)
    projected42 = [
        antisymmetrize_pair(apply_scheme(s, n0_squared), 1, 2) for s in schemes42
    ]

    def containment(projected, labels):
        matrix = echelon(projected + [family[label].form.tensor for label in labels])
        memberships = {}
        for label, (member, coeffs) in zip(labels, echelon_members(matrix, len(projected))):
            memberships[label] = {
                "member": member,
                "coefficients": (
                    {str(i): c for i, c in enumerate(coeffs) if c != 0}
                    if member
                    else None
                ),
            }
        return matrix.rank_of_first(len(projected)), memberships

    rank31, members31 = containment(projected31, [f"T{i}" for i in range(1, 12)])
    rank42, members42 = containment(projected42, [f"T{i}" for i in range(12, 20)])
    containment_ok = all(m["member"] for m in members31.values()) and all(
        m["member"] for m in members42.values()
    )
    certificate = {
        "count_31_to_31": len(schemes31),
        "count_42_to_31": len(schemes42),
        "count_mismatched": len(schemes_mismatch),
        "projected_span_rank_31": rank31,
        "projected_span_rank_42": rank42,
        "memberships_c_part": members31,
        "memberships_d_part": members42,
    }
    passed = counts_ok and containment_ok
    return Verdict(
        claim_id="schemes",
        expected=(
            "24 schemes for (3,1)->(3,1), 120 for (4,2)->(3,1), none for mismatched "
            "types; projected scheme spans contain the generator family"
        ),
        observed=(
            f"counts ({len(schemes31)}, {len(schemes42)}, {len(schemes_mismatch)}), "
            f"containment {'holds' if containment_ok else 'fails'}"
        ),
        passed=passed,
        certificate=certificate,
    )


# Each CLI target that takes a connection, mapped to the verdicts it emits,
# in report order.  The lambdas look each verdict function up by name when
# called, so a wrapper bound to that name after import sees every call.
CLAIMS = {
    "lemma-3.1": (lambda d: verify_lemma_3_1(d), lambda d: verify_dropped_generator(d)),
    "thm-3.2": (lambda d: verify_thm_3_2(d), lambda d: verify_closed_forms(d)),
    "lemma-3.4": (lambda d: verify_lemma_3_4(d),),
    "lemma-3.5": (lambda d: verify_lemma_3_5_partial(d),),
    "thm-3.5": (lambda d: verify_thm_3_5(d),),
    "schemes": (lambda d: verify_schemes(d),),
}


def verify_claim(target: str, conn: Connection) -> list[Verdict]:
    """The verdicts of one CLAIMS target on conn."""
    d = Derived(conn)
    return [claim(d) for claim in CLAIMS[target]]


def verify_all(conn: Connection, spec: RandomConnectionSpec, count: int = 20) -> list[Verdict]:
    """Every CLAIMS verdict in registry order, then the bianchi suite;
    aggregate passes iff all pass.  Both refusals (dimension, count) come
    before any claim runs."""
    d = Derived(conn)
    bianchi = verify_bianchi(spec, count)
    verdicts = [claim(d) for claims in CLAIMS.values() for claim in claims]
    return verdicts + [bianchi]
