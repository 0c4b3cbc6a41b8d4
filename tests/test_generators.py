"""Generator family construction and contraction-scheme enumeration."""

import itertools
import math

import pytest

from natforms.exactla import flatten, rank
from natforms.generators import (
    ContractionScheme,
    apply_scheme,
    build_C_family,
    build_D_family,
    build_T_list,
    doubled_d5_variant,
    dropped_c3_generator,
    enumerate_schemes,
)
from natforms.geometry import Invariants
from natforms.poly import Polynomial
from natforms.tensor import (
    TensorField,
    TensorShape,
    contract,
    equal,
    is_antisymmetric,
    permute_covariant,
    zero,
)
from natforms.verify import Derived

N = 4


@pytest.fixture(scope="module")
def ref_n0(ref_conn):
    return Invariants(ref_conn).normal0


@pytest.fixture(scope="module")
def ref_n1(ref_conn):
    return Invariants(ref_conn).normal1


# -- C and D families ------------------------------------------------------------

def test_c_family_of_zero_input():
    for c in build_C_family(zero(TensorShape(3, 1, N))):
        assert c.is_zero


def test_c0_is_input_verbatim(ref_n1):
    assert equal(build_C_family(ref_n1)[0], ref_n1)


def test_c1_full_trace_scales_trace_of_input(ref_n1):
    c1 = build_C_family(ref_n1)[1]
    assert equal(contract(c1, 3, 1), contract(ref_n1, 1, 1).scale(N))


def test_c_family_delta_slot_structure(ref_n1):
    # C2_{ijk}^l = (trace over middle slot)_{ij} * delta_k^l
    c2 = build_C_family(ref_n1)[2]
    traced = contract(ref_n1, 2, 1)
    for i, j, k, l in itertools.product(range(1, N + 1), repeat=4):
        want = traced.get((i, j), ()) if k == l else Polynomial.zero(N)
        assert c2.get((i, j, k), (l,)) == want


def test_d_family_of_zero_input():
    for d in build_D_family(zero(TensorShape(2, 1, N))):
        assert d.is_zero


def test_d_family_requires_antisymmetric_input(ref_n1):
    bad = zero(TensorShape(2, 1, N))
    bad = TensorField(bad.shape, tuple(Polynomial.variable(N, 1) for _ in bad.components))
    with pytest.raises(ValueError, match="antisymmetric"):
        build_D_family(bad)


def test_d1_antisymmetric_d5_symmetric(ref_n0):
    ds = build_D_family(ref_n0)
    assert is_antisymmetric(ds[0], 1, 2)
    d5 = ds[4]
    assert equal(permute_covariant(d5, (2, 1, 3)), d5)


def test_d_component_formulas(ref_n0):
    d1, d2, d3, d4, d5 = build_D_family(ref_n0)
    theta = contract(ref_n0, 1, 1)
    psi = contract(ref_n0, 2, 1)
    for i, j, k, l in itertools.product(range(1, N + 1), repeat=4):
        want1 = Polynomial.zero(N)
        for m in range(1, N + 1):
            want1 = want1 + ref_n0.get((i, j), (m,)) * ref_n0.get((m, k), (l,))
        assert d1.get((i, j, k), (l,)) == want1
        assert d2.get((i, j, k), (l,)) == ref_n0.get((i, j), (l,)) * theta.get((k,), ())
        want3 = Polynomial.zero(N)
        if j == l:
            for m in range(1, N + 1):
                for s in range(1, N + 1):
                    want3 = want3 + ref_n0.get((s, i), (m,)) * ref_n0.get((m, k), (s,))
        assert d3.get((i, j, k), (l,)) == want3
        want4 = Polynomial.zero(N)
        if k == l:
            for m in range(1, N + 1):
                want4 = want4 + ref_n0.get((i, j), (m,)) * psi.get((m,), ())
        assert d4.get((i, j, k), (l,)) == want4
        want5 = theta.get((i,), ()) * theta.get((j,), ()) if k == l else Polynomial.zero(N)
        assert d5.get((i, j, k), (l,)) == want5


# -- the T family -----------------------------------------------------------------

def test_family_on_flat_connection_is_zero(flat_conn):
    family = Derived(flat_conn).family
    assert all(entry.form.tensor.is_zero for entry in family.entries)


def test_family_labels_and_provenance(ref_conn):
    family = Derived(ref_conn).family
    assert family.labels() == [f"T{i}" for i in range(1, 20)]
    assert family["T1"].base == "C0"
    assert family["T12"].base == "D1"
    assert family["T19"].base == "D5"
    assert family["T19"].pattern == "(jki)-(ikj)"
    assert family["T16"].pattern == "(ijk)-(jik)"


def test_family_entries_are_two_forms(ref_conn):
    family = Derived(ref_conn).family
    for entry in family.entries:
        assert is_antisymmetric(entry.form.tensor, 1, 2), entry.label


def test_doubling_patterns_agree(ref_n0, ref_n1):
    # for antisymmetric bases the identity-slot skew equals doubling
    family = build_T_list(ref_n0, ref_n1)
    d1, d2, _, d4, _ = build_D_family(ref_n0)
    assert equal(family["T12"].form.tensor, d1.scale(2))
    assert equal(family["T14"].form.tensor, d2.scale(2))
    assert equal(family["T17"].form.tensor, d4.scale(2))


def test_doubled_d5_is_not_a_two_form(ref_n0):
    doubled = doubled_d5_variant(ref_n0)
    assert not doubled.is_zero
    assert not is_antisymmetric(doubled, 1, 2)


def test_d3_jki_pattern_vanishes_identically(ref_n0, crooked_conn):
    from natforms.generators import vanishing_d3_pattern

    assert vanishing_d3_pattern(ref_n0).is_zero
    assert vanishing_d3_pattern(Invariants(crooked_conn).normal0).is_zero


def test_torsion_free_connection_kills_d_part(symmetric_conn):
    family = Derived(symmetric_conn).family
    for entry in family.entries[11:]:
        assert entry.form.tensor.is_zero, entry.label
    assert any(not entry.form.tensor.is_zero for entry in family.entries[:11])


def test_family_rank_is_19_on_reference(ref_family):
    _, matrix = flatten([entry.form.tensor for entry in ref_family.entries])
    assert rank(matrix) == 19


def test_dropped_generator_is_dependent(ref_conn, ref_family, ref_n1):
    from natforms.exactla import in_span

    dropped = dropped_c3_generator(ref_n1)
    keep = ["T5", "T6", "T8", "T9", "T11"]
    fields = [ref_family[label].form.tensor for label in keep] + [dropped]
    _, matrix = flatten(fields)
    columns = [matrix.column(c) for c in range(matrix.cols)]
    ok, coeffs = in_span(columns[-1], columns[:-1])
    assert ok
    assert len(coeffs) == 5


# -- contraction schemes -------------------------------------------------------------

def test_scheme_count_31_to_31():
    schemes = enumerate_schemes(TensorShape(3, 1, N), TensorShape(3, 1, N))
    assert len(schemes) == 24 == math.factorial(4)
    no_contraction = [s for s in schemes if not s.contracted_pairs]
    one_contraction = [s for s in schemes if len(s.contracted_pairs) == 1]
    assert len(no_contraction) == 6
    assert len(one_contraction) == 18


def test_scheme_count_42_to_31():
    schemes = enumerate_schemes(TensorShape(4, 2, N), TensorShape(3, 1, N))
    assert len(schemes) == 120 == math.factorial(5)


def test_scheme_count_mismatched_types_is_zero():
    assert enumerate_schemes(TensorShape(2, 1, N), TensorShape(3, 1, N)) == []


def test_scheme_count_is_factorial_generally():
    for (p, q), (pbar, qbar) in [((2, 2), (2, 2)), ((3, 0), (1, 0)), ((2, 0), (0, 0))]:
        schemes = enumerate_schemes(TensorShape(p, q, 2), TensorShape(pbar, qbar, 2))
        if p - pbar != q - qbar:
            assert schemes == []
        else:
            assert len(schemes) == math.factorial(p + qbar)


def test_identity_scheme_returns_input(ref_n1):
    shape = TensorShape(3, 1, N)
    identity = ContractionScheme(
        source=shape,
        target=shape,
        contracted_pairs=(),
        cov_assignment=((1, 1), (2, 2), (3, 3)),
        contra_assignment=((1, 1),),
        delta_fills=(),
    )
    assert equal(apply_scheme(identity, ref_n1), ref_n1)


def test_scheme_validation_rejects_double_use():
    shape = TensorShape(3, 1, N)
    with pytest.raises(ValueError, match="not used exactly once"):
        ContractionScheme(
            source=shape,
            target=shape,
            contracted_pairs=((1, 1),),
            cov_assignment=((1, 1), (2, 2), (3, 3)),
            contra_assignment=((1, 1),),
            delta_fills=(),
        )


def test_scheme_realizing_first_trace_pattern(ref_n1):
    # contract source slot 1 with the source output, shift the surviving
    # slots left, and fill target slot 3 with the delta: that is C1
    shape = TensorShape(3, 1, N)
    schemes = enumerate_schemes(shape, shape)
    wanted = [
        s
        for s in schemes
        if s.contracted_pairs == ((1, 1),)
        and s.cov_assignment == ((2, 1), (3, 2))
        and s.delta_fills == ((3, 1),)
    ]
    assert len(wanted) == 1
    c1 = build_C_family(ref_n1)[1]
    assert equal(apply_scheme(wanted[0], ref_n1), c1)


def test_apply_scheme_shape_mismatch(ref_n0):
    shape = TensorShape(3, 1, N)
    scheme = enumerate_schemes(shape, shape)[0]
    with pytest.raises(ValueError, match="does not match"):
        apply_scheme(scheme, ref_n0)
