"""The index gather behind contract, permute_covariant and apply_scheme, and
the constructions built from it, checked exactly against loops that read
one 1-based component at a time."""

import itertools
import random

import pytest

from natforms.generators import apply_scheme, enumerate_schemes
from natforms.geometry import (
    Invariants,
    curvature,
    exterior_derivative,
    tensor_identity,
    torsion,
    wedge_endo_identity,
    wedge_oneform_identity,
)
from natforms.tensor import (
    TensorShape,
    antisymmetrize_pair,
    contract,
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
    wedge_endo_identity_loop,
    wedge_oneform_identity_loop,
)
from test_geometry import SEEDED_CONNECTIONS, random_field, random_form


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
