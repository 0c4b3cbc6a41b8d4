"""Verdicts: pass on the reference connection, documented degenerate behavior
elsewhere, deterministic sampling and reports."""

import sys

import pytest

from natforms import geometry
from natforms.geometry import connection_from_entries, reference_connection
from natforms.poly import parse
from natforms.verify import (
    Derived,
    RandomConnectionSpec,
    aggregate_pass,
    random_connections,
    report_json,
    report_text,
    verdict_to_json_obj,
    verify_bianchi,
    verify_closed_forms,
    verify_dropped_generator,
    verify_lemma_3_1,
    verify_lemma_3_4,
    verify_lemma_3_5_partial,
    verify_thm_3_2,
    verify_target,
    verify_thm_3_5,
)
from reference_loops import flatten_loop, rank_bareiss


@pytest.fixture(scope="module")
def traceless_conn():
    # single entry whose torsion has zero trace: H vanishes
    return connection_from_entries(4, {(1, 2, 3): parse("x1", 4)})


# -- dimension guard ----------------------------------------------------------

def test_small_dimension_is_refused():
    conn = connection_from_entries(3, {})
    with pytest.raises(ValueError, match="dimension >= 4"):
        verify_lemma_3_1(Derived(conn))
    with pytest.raises(ValueError, match="dimension >= 4"):
        verify_thm_3_2(Derived(conn))


# -- lemma 3.1 -------------------------------------------------------------------

def test_lemma_3_1_passes_on_reference(ref_conn):
    verdict = verify_lemma_3_1(Derived(ref_conn))
    assert verdict.passed
    assert verdict.certificate["rank"] == 19
    assert verdict.certificate["t16_variants"]["printed_jki_pattern_is_identically_zero"]
    assert verdict.certificate["t19_variants"]["doubled_d5_is_antisymmetric"] is False


def test_lemma_3_1_fails_on_flat(flat_conn):
    verdict = verify_lemma_3_1(Derived(flat_conn))
    assert not verdict.passed
    assert verdict.observed == "rank 0"


def test_symmetric_connection_rank_bounded(symmetric_conn):
    family = Derived(symmetric_conn).family
    fields = list(family.tensors.values())
    observed = rank_bareiss(flatten_loop(fields), len(fields))
    assert observed <= 11
    for field in fields[11:]:
        assert field.is_zero


def test_dropped_generator_certificate(ref_conn):
    verdict = verify_dropped_generator(Derived(ref_conn))
    assert verdict.passed
    coeffs = verdict.certificate["coefficients"]
    assert set(coeffs) == {"T5", "T6", "T8", "T9", "T11"}


# -- theorem 3.2 --------------------------------------------------------------------

def test_thm_3_2_passes_on_reference(ref_conn):
    verdict = verify_thm_3_2(Derived(ref_conn))
    assert verdict.passed
    cert = verdict.certificate
    assert cert["kernel_dimension"] == 3
    assert all(cert["closed_recheck_on_fields"].values())


def test_thm_3_2_degenerate_on_flat(flat_conn):
    verdict = verify_thm_3_2(Derived(flat_conn))
    assert not verdict.passed
    assert verdict.certificate["kernel_dimension"] == 19


def test_closed_forms_identification_is_exact(ref_conn):
    verdict = verify_closed_forms(Derived(ref_conn))
    assert verdict.passed
    for pairing in verdict.certificate["pairwise_identification"].values():
        assert pairing["exactly_equal"] is True
        assert pairing["scale"] == 1


# -- lemmas 3.4 / 3.5 ------------------------------------------------------------------

def test_lemma_3_4_passes_on_reference(ref_conn):
    verdict = verify_lemma_3_4(Derived(ref_conn))
    assert verdict.passed and verdict.certificate["rank"] == 4


def test_lemma_3_4_flat_rank_zero(flat_conn):
    verdict = verify_lemma_3_4(Derived(flat_conn))
    assert not verdict.passed
    assert verdict.certificate["rank"] == 0


def test_lemma_3_4_torsion_free_rank_bounded(symmetric_conn):
    verdict = verify_lemma_3_4(Derived(symmetric_conn))
    assert verdict.certificate["rank"] <= 2


def test_lemma_3_5_passes_on_reference(ref_conn):
    verdict = verify_lemma_3_5_partial(Derived(ref_conn))
    assert verdict.passed and verdict.certificate["rank"] == 2


def test_lemma_3_5_traceless_torsion_degenerates(traceless_conn):
    verdict = verify_lemma_3_5_partial(Derived(traceless_conn))
    assert not verdict.passed
    assert verdict.certificate["h_is_zero"] is True
    assert verdict.certificate["rank"] == 1


# -- theorem 3.5 -------------------------------------------------------------------------

def test_thm_3_5_passes_on_reference(ref_conn):
    verdict = verify_thm_3_5(Derived(ref_conn))
    assert verdict.passed
    assert verdict.certificate["solution_basis"] == [[1, 0, 1, 0, 0]]
    assert verdict.certificate["beta_block_kernel_dimension"] == 3


def test_thm_3_5_solutions_are_rechecked(ref_conn, wrong_null_vector):
    with pytest.raises(AssertionError, match="kernel certificate"):
        verify_thm_3_5(Derived(ref_conn))


def test_thm_3_5_flat_is_degenerate(flat_conn):
    verdict = verify_thm_3_5(Derived(flat_conn))
    assert not verdict.passed
    assert len(verdict.certificate["solution_basis"]) == 5


# -- bianchi suite -------------------------------------------------------------------------

def test_random_connections_are_reproducible():
    spec = RandomConnectionSpec(seed=7)
    first = random_connections(spec, 3)
    second = random_connections(spec, 3)
    assert first == second
    other = random_connections(RandomConnectionSpec(seed=8), 3)
    assert first != other


def test_random_connections_respect_spec():
    spec = RandomConnectionSpec(seed=5, density=6)
    for conn in random_connections(spec, 4):
        nonzero = [g for g in conn.christoffel if not g.is_zero]
        assert len(nonzero) == 6
        for poly in nonzero:
            assert len(poly.terms) <= 3
            for mono, coeff in poly.terms.items():
                assert sum(mono) <= 2
                assert coeff.denominator == 1


def test_bianchi_suite_small_run():
    verdict = verify_bianchi(RandomConnectionSpec(seed=1), count=3)
    assert verdict.passed
    assert len(verdict.certificate["runs"]) == 3
    for run in verdict.certificate["runs"]:
        assert run["first_identity"] and run["second_identity"]
        assert run["d_of_identity_is_torsion"] and run["normal1_symmetrization_zero"]


@pytest.mark.parametrize("count", [0, -1])
def test_bianchi_suite_rejects_count_below_one(count, monkeypatch):
    def no_draw(spec, count):
        raise AssertionError("connections drawn before the count was checked")

    monkeypatch.setattr("natforms.verify.random_connections", no_draw)
    with pytest.raises(ValueError, match="count must be at least 1"):
        verify_bianchi(RandomConnectionSpec(seed=1), count)


@pytest.mark.parametrize("count", [0, -1])
def test_verify_all_refuses_count_before_any_claim(ref_conn, count, monkeypatch):
    def no_claim(d):
        raise AssertionError("a claim ran before the count was checked")

    monkeypatch.setattr("natforms.verify.verify_lemma_3_1", no_claim)
    with pytest.raises(ValueError, match="count must be at least 1"):
        verify_target("all", ref_conn, RandomConnectionSpec(seed=1), count)


def test_verify_target_refuses_an_unknown_target(ref_conn):
    # an empty list of verdicts would aggregate to a vacuous PASS
    with pytest.raises(ValueError, match="unknown verify target 'no-such'"):
        verify_target("no-such", ref_conn, RandomConnectionSpec(seed=1), 20)


# -- one derivation per connection -----------------------------------------------------

@pytest.fixture
def derivations(monkeypatch):
    """Count torsion and curvature evaluations, wrapping each function in
    every natforms namespace that binds it."""
    counts = {"torsion": 0, "curvature": 0}
    for name in counts:
        original = getattr(geometry, name)

        def counted(conn, name=name, original=original):
            counts[name] += 1
            return original(conn)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "natforms" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_verify_all_derives_once_per_connection(ref_conn, derivations):
    # the bundled connection plus the 20 bianchi draws
    verify_target("all", ref_conn, RandomConnectionSpec(seed=1), 20)
    assert derivations == {"torsion": 21, "curvature": 21}


def test_verify_all_builds_gamma_tables_once_per_connection(table_builds):
    # a fresh bundled connection plus the 20 bianchi draws
    verify_target("all", reference_connection(), RandomConnectionSpec(seed=1), 20)
    assert len(table_builds) == len(set(map(id, table_builds))) == 21


@pytest.mark.parametrize("count", [1, 4])
def test_bianchi_derives_once_per_connection(count, derivations):
    verify_bianchi(RandomConnectionSpec(seed=1), count)
    assert derivations == {"torsion": count, "curvature": count}


# -- reports ----------------------------------------------------------------------------------

def test_report_rendering_is_deterministic(ref_conn):
    verdicts = [verify_lemma_3_4(Derived(ref_conn)), verify_lemma_3_5_partial(Derived(ref_conn))]
    again = [verify_lemma_3_4(Derived(ref_conn)), verify_lemma_3_5_partial(Derived(ref_conn))]
    assert report_json(verdicts) == report_json(again)
    assert report_text(verdicts) == report_text(again)
    assert aggregate_pass(verdicts)


def test_verdict_json_uses_pass_key_and_string_rationals(ref_conn):
    verdict = verify_dropped_generator(Derived(ref_conn))
    obj = verdict_to_json_obj(verdict)
    assert set(obj) == {"claim_id", "expected", "observed", "pass", "certificate"}
    coeffs = obj["certificate"]["coefficients"]
    for value in coeffs.values():
        assert isinstance(value, str)


def test_report_text_mentions_every_claim(ref_conn, flat_conn):
    verdicts = [verify_lemma_3_4(Derived(ref_conn)), verify_lemma_3_4(Derived(flat_conn))]
    text = report_text(verdicts)
    assert text.count("claim lemma-3.4") == 2
    assert "aggregate: FAIL (1/2 claims)" in text
