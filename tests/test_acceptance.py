"""Acceptance suite: the eleven headline criteria, all at zero tolerance.

Every check is exact rational arithmetic; there are no approximate
comparisons anywhere.  Each test prints one PASS line with its runtime
(run with ``pytest -v -s tests/test_acceptance.py`` to see them).
"""

import itertools
import time

import pytest

from natforms.generators import (
    dropped_c3_generator,
    enumerate_schemes,
)
from natforms.geometry import (
    Invariants,
    connection_from_entries,
    ext_cov_deriv_vector,
    identity_oneform,
    load_connection,
    torsion,
    wedge_endo_identity,
    wedge_oneform_identity,
)
from natforms.poly import parse
from natforms.tensor import TensorShape, contract, equal
from natforms.verify import (
    Derived,
    RandomConnectionSpec,
    random_connections,
    verify_closed_forms,
    verify_lemma_3_4,
    verify_schemes,
    verify_thm_3_2,
    verify_thm_3_5,
)
from reference_loops import (
    flatten_loop,
    in_span_bareiss,
    rank_bareiss,
    symmetrization_is_zero,
    transpose,
)

SEEDED = RandomConnectionSpec(seed=1, dimension=4, density=6)


@pytest.fixture(scope="module")
def paper_conn():
    return load_connection("testdata/paper_connection.json")


@pytest.fixture(scope="module")
def paper_family(paper_conn):
    return Derived(paper_conn).family


@pytest.fixture(scope="module")
def seeded_connections():
    return random_connections(SEEDED, 20)


def report(number, name, started, detail):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({detail}; {elapsed:.2f}s)")


def test_c01_generator_family_rank_19(paper_conn, paper_family):
    started = time.time()
    fields = list(paper_family.tensors.values())
    observed = rank_bareiss(flatten_loop(fields), len(fields))
    assert observed == 19
    report(1, "generator family has rank 19", started, f"rank {observed}")


def test_c02_closed_subspace_kernel(paper_conn):
    started = time.time()
    verdict = verify_thm_3_2(Derived(paper_conn))
    cert = verdict.certificate
    assert cert["kernel_dimension"] == 3
    assert all(cert["kernel_in_expected_span"])
    assert all(cert["expected_in_kernel_span"])
    assert verdict.passed
    report(2, "differential kernel is span{e2-e13, e4, e7}", started, "dimension 3, spans equal")


def test_c03_closed_form_identification(paper_conn):
    started = time.time()
    verdict = verify_closed_forms(Derived(paper_conn))
    assert verdict.passed  # pass condition: span equality with certificates
    # exact per-combination equality is reported, not required
    exact = {
        key: pairing["exactly_equal"]
        for key, pairing in verdict.certificate["pairwise_identification"].items()
    }
    report(
        3,
        "kernel combinations identified with reference closed forms",
        started,
        f"spans equal, exact equalities {exact}",
    )


def test_c04_three_form_independence(paper_conn):
    started = time.time()
    verdict = verify_lemma_3_4(Derived(paper_conn))
    assert verdict.passed and verdict.certificate["rank"] == 4
    report(4, "four derived 3-forms have rank 4", started, "rank 4")


def test_c05_uniqueness_linear_system(paper_conn):
    started = time.time()
    verdict = verify_thm_3_5(Derived(paper_conn))
    assert verdict.passed
    assert verdict.certificate["solution_basis"] == [[1, 0, 1, 0, 0]]
    report(5, "uniqueness system has solution span {(1,0,1,0,0)}", started, "dimension 1")


def test_c06_bianchi_identities_on_seeded_connections(seeded_connections):
    started = time.time()
    from natforms.geometry import curvature, ext_cov_deriv_endo

    for conn in seeded_connections:
        tor = torsion(conn)
        r = curvature(conn)
        lhs = ext_cov_deriv_vector(conn, tor).tensor
        rhs = wedge_endo_identity(r).tensor
        assert equal(lhs, rhs)
        assert ext_cov_deriv_endo(conn, r).tensor.is_zero
    report(6, "both structure identities on 20 seeded connections", started, "exact, 20/20")


def torsion_by_substitution(conn):
    """Independent torsion evaluation straight from the Christoffel symbols."""
    n = conn.dimension
    return {
        (l, i, j): conn.gamma(l, i, j) - conn.gamma(l, j, i)
        for l, i, j in itertools.product(range(1, n + 1), repeat=3)
    }


def test_c07_normal_tensor_properties(seeded_connections):
    started = time.time()
    for conn in seeded_connections:
        n0 = Invariants(conn).normal0
        oracle = torsion_by_substitution(conn)
        for (l, i, j), tor_value in oracle.items():
            assert n0.get((i, j), (l,)).scale(2) == tor_value
        assert symmetrization_is_zero(Invariants(conn).normal1)
    report(7, "normal tensors: half-torsion and symmetrization-zero", started, "exact, 20/20")


def test_c08_dropped_generator_dependency(paper_family):
    started = time.time()
    dropped = dropped_c3_generator(paper_family)
    keep = ["T5", "T6", "T8", "T9", "T11"]
    fields = [paper_family.tensors[label] for label in keep] + [dropped]
    columns = transpose(flatten_loop(fields))
    member, coeffs = in_span_bareiss(columns[-1], columns[:-1])
    assert member
    emitted = {label: str(c) for label, c in zip(keep, coeffs)}
    report(8, "removed generator is dependent", started, f"coefficients {emitted}")


def test_c09_identity_form_differential(seeded_connections, paper_conn):
    started = time.time()
    for conn in [paper_conn] + seeded_connections:
        d_id = ext_cov_deriv_vector(conn, identity_oneform(conn.dimension))
        assert equal(d_id.tensor, torsion(conn).tensor)
    report(9, "differential of the identity 1-form is the torsion", started, "exact, 21/21")


def test_c10_scheme_enumeration_and_span(paper_conn):
    started = time.time()
    n = paper_conn.dimension
    assert len(enumerate_schemes(TensorShape(3, 1, n), TensorShape(3, 1, n))) == 24
    assert len(enumerate_schemes(TensorShape(4, 2, n), TensorShape(3, 1, n))) == 120
    assert enumerate_schemes(TensorShape(2, 1, n), TensorShape(3, 1, n)) == []
    verdict = verify_schemes(Derived(paper_conn))
    assert verdict.passed
    cert = verdict.certificate
    assert all(m["member"] for m in cert["memberships_c_part"].values())
    assert all(m["member"] for m in cert["memberships_d_part"].values())
    report(
        10,
        "scheme counts 24/120/0 and projected spans contain the family",
        started,
        f"span ranks {cert['projected_span_rank_31']}/{cert['projected_span_rank_42']}",
    )


def test_c11_torsion_trace_wedge_rank(paper_conn):
    started = time.time()
    tor = torsion(paper_conn).tensor
    h = wedge_oneform_identity(contract(tor, 1, 1)).tensor
    assert rank_bareiss(flatten_loop([tor, h]), 2) == 2
    # degenerate case: traceless torsion forces H = 0 and rank 1
    traceless = connection_from_entries(4, {(1, 2, 3): parse("x1", 4)})
    tor2 = torsion(traceless).tensor
    h2 = wedge_oneform_identity(contract(tor2, 1, 1)).tensor
    assert h2.is_zero
    assert rank_bareiss(flatten_loop([tor2, h2]), 2) == 1
    report(11, "torsion and trace-wedge rank 2; traceless case rank 1", started, "exact")
