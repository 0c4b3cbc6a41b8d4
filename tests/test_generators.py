"""Generator family construction and contraction-scheme enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings

from natforms.generators import (
    PATTERN_ID,
    PATTERN_JKI,
    PATTERN_KIJ,
    RECIPE,
    ContractionScheme,
    apply_pattern,
    apply_scheme,
    build_C_family,
    build_D_family,
    build_T_list,
    doubled_d5_variant,
    dropped_c3_generator,
    enumerate_schemes,
    vanishing_d3_pattern,
)
from natforms.geometry import Invariants
from natforms.poly import Polynomial
from natforms.tensor import (
    TensorField,
    TensorShape,
    antisymmetrize_pair,
    combine,
    contract,
    equal,
    is_antisymmetric,
    permute_covariant,
    zero,
)
from natforms.verify import Derived, RandomConnectionSpec, random_connections
from reference_loops import (
    combine_terms_loop,
    flatten_loop,
    in_span_bareiss,
    rank_bareiss,
    swap_perm,
    transpose,
)
from test_tensor import sparse_fields

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
    # the sparse N0 of the bundled connection and that of a dense draw
    dense = random_connections(RandomConnectionSpec(seed=2, dimension=N, density=20), 1)[0]
    for n0 in (ref_n0, Invariants(dense).normal0):
        assert_d_component_formulas(n0)


def assert_d_component_formulas(n0):
    d1, d2, d3, d4, d5 = build_D_family(n0)
    theta = contract(n0, 1, 1)
    psi = contract(n0, 2, 1)
    for i, j, k, l in itertools.product(range(1, N + 1), repeat=4):
        want1 = Polynomial.zero(N)
        for m in range(1, N + 1):
            want1 = want1 + n0.get((i, j), (m,)) * n0.get((m, k), (l,))
        assert d1.get((i, j, k), (l,)) == want1
        assert d2.get((i, j, k), (l,)) == n0.get((i, j), (l,)) * theta.get((k,), ())
        want3 = Polynomial.zero(N)
        if j == l:
            for m in range(1, N + 1):
                for s in range(1, N + 1):
                    want3 = want3 + n0.get((s, i), (m,)) * n0.get((m, k), (s,))
        assert d3.get((i, j, k), (l,)) == want3
        want4 = Polynomial.zero(N)
        if k == l:
            for m in range(1, N + 1):
                want4 = want4 + n0.get((i, j), (m,)) * psi.get((m,), ())
        assert d4.get((i, j, k), (l,)) == want4
        want5 = theta.get((i,), ()) * theta.get((j,), ()) if k == l else Polynomial.zero(N)
        assert d5.get((i, j, k), (l,)) == want5


# -- the T family -----------------------------------------------------------------

def test_family_on_flat_connection_is_zero(flat_conn):
    family = Derived(flat_conn).family
    assert all(field.is_zero for field in family.tensors.values())


def test_family_labels_and_provenance(ref_conn):
    family = Derived(ref_conn).family
    assert list(family.tensors) == [f"T{i}" for i in range(1, 20)]
    assert list(RECIPE) == [f"T{i}" for i in range(1, 20)]
    assert RECIPE["T1"][0] == "C0"
    assert RECIPE["T12"][0] == "D1"
    assert RECIPE["T19"][0] == "D5"
    assert RECIPE["T19"][1] == "(jki)-(ikj)"
    assert RECIPE["T16"][1] == "(ijk)-(jik)"


def test_family_entries_are_two_forms(ref_conn):
    family = Derived(ref_conn).family
    for label, field in family.tensors.items():
        assert is_antisymmetric(field, 1, 2), label


def pattern_loop(base, pattern):
    """The skew pattern read from its label: "(jki)-(ikj)" is base_{jki}
    minus base_{ikj} at (i, j, k), each a loop permutation of the base."""
    words = pattern[1:-1].split(")-(")
    plus, minus = (tuple("ijk".index(ch) + 1 for ch in word) for word in words)
    return combine_terms_loop(base.shape, [(1, base, plus), (-1, base, minus)])


def assert_patterns_match_loop(base):
    for pattern in (PATTERN_ID, PATTERN_JKI, PATTERN_KIJ):
        got = [c.terms for c in apply_pattern(base, pattern).components]
        assert got == pattern_loop(base, pattern), pattern


def test_patterns_on_every_base_match_the_loop_reference(ref_family):
    for base in ref_family.bases.values():
        assert_patterns_match_loop(base)


@given(sparse_fields([(3, 1)]))
@settings(max_examples=40)
def test_patterns_on_sparse_fields_match_the_loop_reference(base):
    assert_patterns_match_loop(base)


def test_doubling_patterns_agree(ref_n0, ref_n1):
    # for antisymmetric bases the identity-slot skew equals doubling
    family = build_T_list(ref_n0, ref_n1)
    d1, d2, _, d4, _ = build_D_family(ref_n0)
    assert equal(family.tensors["T12"], d1.scale(2))
    assert equal(family.tensors["T14"], d2.scale(2))
    assert equal(family.tensors["T17"], d4.scale(2))


def test_doubled_d5_is_not_a_two_form(ref_n0, ref_family):
    doubled = doubled_d5_variant(ref_family)
    assert equal(doubled, build_D_family(ref_n0)[4].scale(2))
    assert not doubled.is_zero
    assert not is_antisymmetric(doubled, 1, 2)


def test_d3_jki_pattern_vanishes_identically(ref_family, crooked_conn):
    crooked = Invariants(crooked_conn)
    assert vanishing_d3_pattern(ref_family).is_zero
    assert vanishing_d3_pattern(build_T_list(crooked.normal0, crooked.normal1)).is_zero


def test_torsion_free_connection_kills_d_part(symmetric_conn):
    family = Derived(symmetric_conn).family
    labels = list(family.tensors)
    for label in labels[11:]:
        assert family.tensors[label].is_zero, label
    assert any(not family.tensors[label].is_zero for label in labels[:11])


def test_family_rank_is_19_on_reference(ref_family):
    fields = list(ref_family.tensors.values())
    assert rank_bareiss(flatten_loop(fields), len(fields)) == 19


def test_dropped_generator_is_dependent(ref_family):
    dropped = dropped_c3_generator(ref_family)
    keep = ["T5", "T6", "T8", "T9", "T11"]
    fields = [ref_family.tensors[label] for label in keep] + [dropped]
    columns = transpose(flatten_loop(fields))
    ok, coeffs = in_span_bareiss(columns[-1], columns[:-1])
    assert ok
    assert len(coeffs) == 5


# -- one antisymmetric half evaluated ---------------------------------------------

def two_term_combine(base, plus, minus):
    """base read through plus minus base read through minus, as the two-term
    ``combine`` that sums every position."""
    return combine(base.shape, [(1, base, plus), (-1, base, minus)])


def pattern_perms(pattern):
    words = pattern[1:-1].split(")-(")
    return (tuple("ijk".index(ch) + 1 for ch in word) for word in words)


def assert_one_half_negated(field, s1, s2):
    """Where the slot-s1 index is above the slot-s2 one, each component is
    the recorded negation of its slot-swapped partner, or zero where that is
    zero; equal indices hold zero."""
    n, slots = field.shape.n, field.shape.p + field.shape.q
    s1, s2 = sorted((s1, s2))
    stride1, stride2 = n ** (slots - s1), n ** (slots - s2)
    comps = field.components
    for pos, value in enumerate(comps):
        i, j = pos // stride1 % n, pos // stride2 % n
        if i == j:
            assert not value.numerators
        elif i < j:
            partner = comps[pos + (j - i) * (stride1 - stride2)]
            if value.numerators:
                assert partner._negated is value
            else:
                assert not partner.numerators


@pytest.mark.parametrize("dense", [False, True], ids=["bundled", "dense-n4"])
def test_patterns_evaluate_one_half_and_negate_it(dense, ref_conn):
    conn = ref_conn
    if dense:
        conn = random_connections(RandomConnectionSpec(seed=2, dimension=4, density=20), 1)[0]
    family = Derived(conn).family
    for label, (base, pattern) in RECIPE.items():
        got = family.tensors[label]
        assert equal(got, two_term_combine(family.bases[base], *pattern_perms(pattern))), label
        assert_one_half_negated(got, 1, 2)
    dropped = dropped_c3_generator(family)
    assert equal(dropped, two_term_combine(family.bases["C3"], *pattern_perms(PATTERN_KIJ)))
    assert_one_half_negated(dropped, 1, 2)
    assert vanishing_d3_pattern(family).is_zero
    assert two_term_combine(family.bases["D3"], *pattern_perms(PATTERN_JKI)).is_zero
    for base in family.bases.values():
        for s1, s2 in itertools.permutations((1, 2, 3), 2):
            got = antisymmetrize_pair(base, s1, s2)
            assert equal(got, two_term_combine(base, (1, 2, 3), swap_perm(3, s1, s2))), (s1, s2)
            assert_one_half_negated(got, s1, s2)


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
