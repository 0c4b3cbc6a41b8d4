"""The one scatter kernel behind contract, permute_covariant, tensor_product,
apply_scheme and combine, and the constructions built from it, checked
exactly against loops that read one 1-based component at a time."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from natforms import tensor
from natforms.generators import apply_scheme, build_D_family, enumerate_schemes, project_schemes
from natforms.geometry import (
    Invariants,
    curvature,
    exterior_derivative,
    tensor_identity,
    torsion,
    wedge_endo_identity,
    wedge_oneform_identity,
)
from natforms.poly import parse
from natforms.tensor import (
    TensorShape,
    antisymmetrize_pair,
    contract,
    delta,
    permute_covariant,
    tensor_product,
)
from natforms.verify import RandomConnectionSpec, random_connections
from reference_loops import (
    apply_scheme_loop,
    contract_loop,
    normal1_loop,
    permute_covariant_loop,
    tensor_identity_loop,
    tensor_product_loop,
    wedge_endo_identity_loop,
    wedge_oneform_identity_loop,
)
from test_geometry import SEEDED_CONNECTIONS, random_field, random_form
from test_tensor import field_from, sparse_fields


def seeded_connection(n, density, seed):
    return random_connections(RandomConnectionSpec(seed=seed, dimension=n, density=density), 1)[0]


def assert_same(got, want):
    assert got.shape == want.shape
    for pos, (a, b) in enumerate(zip(got.components, want.components)):
        assert a == b, pos


@SEEDED_CONNECTIONS
def test_normal1_matches_loop(n, density, seed):
    conn = seeded_connection(n, density, seed)
    got = Invariants(conn).normal1
    assert_same(got, normal1_loop(conn))
    assert not got.is_zero


@SEEDED_CONNECTIONS
def test_identity_constructions_match_loops(n, density, seed):
    """On the connection's own forms and on a random one, which comes last
    and must give a nonzero result."""
    conn = seeded_connection(n, density, seed)
    rng = random.Random(seed)
    for beta in (curvature(conn), random_form(rng, n, 2, 1)):
        got = wedge_endo_identity(beta)
        assert got.degree == 3
        assert_same(got.tensor, wedge_endo_identity_loop(beta).tensor)
    assert not got.tensor.is_zero
    theta = contract(torsion(conn).tensor, 1, 1)
    for one_form in (theta, random_field(rng, n, 1, 0)):
        got = wedge_oneform_identity(one_form)
        assert got.degree == 2
        assert_same(got.tensor, wedge_oneform_identity_loop(one_form).tensor)
    assert not got.tensor.is_zero
    two_forms = [contract(curvature(conn).tensor, 3, 1), exterior_derivative(theta)]
    two_forms.append(antisymmetrize_pair(random_field(rng, n, 2, 0), 1, 2))
    for two_form in two_forms:
        got = tensor_identity(two_form)
        assert got.degree == 2
        assert_same(got.tensor, tensor_identity_loop(two_form).tensor)
    assert not got.tensor.is_zero


@SEEDED_CONNECTIONS
def test_contract_every_slot_pair_matches_loop(n, density, seed):
    conn = seeded_connection(n, density, seed)
    rng = random.Random(seed)
    fields = [torsion(conn).tensor, curvature(conn).tensor]
    fields += [random_field(rng, n, p, q) for p, q in [(1, 1), (3, 1), (2, 2), (4, 2)]]
    for field in fields:
        for ci, ki in itertools.product(range(1, field.shape.p + 1), range(1, field.shape.q + 1)):
            got = contract(field, ci, ki)
            assert_same(got, contract_loop(field, ci, ki))
        assert not contract(field, 1, 1).is_zero


@SEEDED_CONNECTIONS
def test_permute_every_covariant_permutation_matches_loop(n, density, seed):
    conn = seeded_connection(n, density, seed)
    rng = random.Random(seed)
    fields = [curvature(conn).tensor, random_field(rng, n, 2, 2), random_field(rng, n, 4, 1)]
    for field in fields:
        for perm in itertools.permutations(range(1, field.shape.p + 1)):
            got = permute_covariant(field, perm)
            assert_same(got, permute_covariant_loop(field, perm))
            assert not got.is_zero


def test_schemes_42_to_31_with_delta_fills_count():
    schemes = enumerate_schemes(TensorShape(4, 2, 3), TensorShape(3, 1, 3))
    assert len(schemes) == 120
    assert sum(1 for s in schemes if s.delta_fills) == 72


@pytest.mark.parametrize(
    "n, density, seed", [(4, 6, 11), (4, 20, 2)], ids=["sparse-n4", "dense-n4"]
)
def test_every_scheme_matches_loop_on_normal_tensors(n, density, seed):
    conn = seeded_connection(n, density, seed)
    shape31 = TensorShape(3, 1, n)
    n1 = Invariants(conn).normal1
    for scheme in enumerate_schemes(shape31, shape31):
        assert_same(apply_scheme(scheme, n1), apply_scheme_loop(scheme, n1))
    n0 = Invariants(conn).normal0
    n0_squared = tensor_product(n0, n0)
    assert_same(n0_squared, tensor_product_loop(n0, n0))
    nonzero = 0
    for scheme in enumerate_schemes(TensorShape(4, 2, n), shape31):
        got = apply_scheme(scheme, n0_squared)
        assert_same(got, apply_scheme_loop(scheme, n0_squared))
        nonzero += not got.is_zero
    assert nonzero == 120


@pytest.mark.parametrize("seed", [3, 4])
def test_every_scheme_matches_loop_on_random_fields(seed):
    rng = random.Random(seed)
    n = 3
    shape31 = TensorShape(3, 1, n)
    for source in (shape31, TensorShape(4, 2, n)):
        field = random_field(rng, n, source.p, source.q)
        for scheme in enumerate_schemes(source, shape31):
            assert_same(apply_scheme(scheme, field), apply_scheme_loop(scheme, field))


# -- sparse fields: the scatter reads only the support -----------------------------


@given(sparse_fields())
@settings(max_examples=60, deadline=None)
def test_contract_and_permute_on_sparse_fields_match_loops(field):
    p, q = field.shape.p, field.shape.q
    for ci, ki in itertools.product(range(1, p + 1), range(1, q + 1)):
        assert_same(contract(field, ci, ki), contract_loop(field, ci, ki))
    for perm in itertools.permutations(range(1, p + 1)):
        assert_same(permute_covariant(field, perm), permute_covariant_loop(field, perm))


@given(sparse_fields([(3, 1), (4, 2)]))
@settings(max_examples=20, deadline=None)
def test_every_scheme_on_sparse_fields_matches_loop(field):
    for scheme in enumerate_schemes(field.shape, TensorShape(3, 1, field.shape.n)):
        assert_same(apply_scheme(scheme, field), apply_scheme_loop(scheme, field))


def test_lone_contribution_is_the_source_component_itself():
    field = field_from({((3, 1), (3,)): "x1 - 2"}, 2, 1, n=3)
    source = field.get((3, 1), (3,))
    assert contract(field, 1, 1).get((1,), ()) is source  # sums (m,1;m) over m
    swapped = permute_covariant(field, (2, 1))
    assert swapped.get((1, 3), (3,)) is source
    assert len(swapped.support) == 1
    # a scheme that only transports slots: the swap of the two covariant slots
    (transport,) = [
        s
        for s in enumerate_schemes(field.shape, field.shape)
        if not s.contracted_pairs and not s.delta_fills and s.cov_assignment == ((1, 2), (2, 1))
    ]
    moved = apply_scheme(transport, field)
    assert moved.get((1, 3), (3,)) is source
    assert len(moved.support) == 1


def test_contraction_adds_fractions_over_their_common_denominator():
    field = field_from({((1,), (1,)): "1/2*x1", ((2,), (2,)): "1/3*x1"}, 1, 1, n=2)
    trace = contract(field, 1, 1).components[0]
    assert trace == parse("5/6*x1", 2)
    assert trace.denominator == 6


def test_scheme_on_a_one_component_field_at_the_largest_dimension_stays_small():
    """The landing maps are filled only where the support visits: a (4,2)
    field at n = 8 has 262,144 positions, and one nonzero component must
    not make any scheme read or store a table of them."""
    n = 8
    source, target = TensorShape(4, 2, n), TensorShape(3, 1, n)
    field = field_from({((1, 2, 1, 3), (1, 2)): "x1 + x8"}, 4, 2, n=n)
    assert len(field.support) == 1
    schemes = enumerate_schemes(source, target)
    tracemalloc.start()
    try:
        nonzero = sum(not apply_scheme(s, field).is_zero for s in schemes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nonzero > 0
    assert peak < 1 << 20


def test_pair_reads_of_a_two_component_factor_at_the_largest_dimension_stay_small():
    """N0 (x) N0 is read as the pair (N0, N0) and never built: at n = 8 it
    would have 262,144 positions, and the D family and every (4,2) scheme
    value of a two-component N0 must stay far below a table of them."""
    n = 8
    n0 = field_from({((1, 2), (1,)): "x1 + x8", ((2, 1), (1,)): "-x1 - x8"}, 2, 1, n=n)
    assert len(n0.support) == 2
    source, target = TensorShape(4, 2, n), TensorShape(3, 1, n)
    for build in (lambda: project_schemes(source, target, n0), lambda: build_D_family(n0)):
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@given(st.data())
@settings(max_examples=40)
def test_pair_term_with_a_cross_contraction_and_a_fill_matches_the_loops(data):
    """One pair term (a, b) that contracts a covariant slot of one factor
    with a contravariant slot of the other and ties a new last covariant
    slot to a new last contravariant one equals the loops' contraction of
    a (x) b, times the Kronecker delta."""
    shapes = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
    a = data.draw(sparse_fields(shapes))
    b = data.draw(sparse_fields(shapes).filter(lambda f: f.n == a.n))
    (pa, qa), (pb, qb) = (a.shape.p, a.shape.q), (b.shape.p, b.shape.q)
    p, q = pa + pb, qa + qb
    # product slots: a's covariant, b's covariant, a's contravariant, b's contravariant
    crossing = [(ci, ki) for ci in range(pa) for ki in range(p + qa, p + q)]
    crossing += [(ci, ki) for ci in range(pa, p) for ki in range(p, p + qa)]
    assume(crossing)
    ci, ki = data.draw(st.sampled_from(crossing))
    # the contracted product keeps its slots in order; the fill takes the
    # last covariant slot p - 1 and the last contravariant slot p + q - 1
    feeds = [s - (s > ci) if s < p else s - (s > ki) for s in range(p + q)]
    feeds[ci] = feeds[ki] = p + q
    pair_feeds = tuple(feeds[s] for s in tensor._product(a.shape, b.shape)[1])
    got = tensor._scatter(
        TensorShape(p, q, a.n), [(1, (a, b), pair_feeds, ((p - 1, p + q - 1),))]
    )
    contracted = contract_loop(tensor_product_loop(a, b), ci + 1, ki - p + 1)
    assert_same(got, tensor_product_loop(contracted, delta(a.n)))
