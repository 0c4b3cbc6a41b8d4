"""Contraction schemes evaluated once per orbit.

The orbit table is checked from the scheme slots alone; ``project_schemes``
is checked column by column against ``project_schemes_all``, which evaluates
and antisymmetrizes every scheme on its own, on the bundled connection and
on seeded n=3 and n=4 draws.
"""

import random

import pytest

from natforms import generators
from natforms.generators import (
    N0_SQUARED_SYMMETRIES,
    N1_SYMMETRIES,
    _orbit_table,
    _relabel,
    enumerate_schemes,
    project_schemes,
)
from natforms.geometry import Invariants, reference_connection
from natforms.tensor import TensorShape, equal, tensor_product
from natforms.verify import RandomConnectionSpec, random_connections
from reference_loops import project_schemes_all
from test_geometry import random_field
from test_tensor import field_from


def tables(n):
    shape31 = TensorShape(3, 1, n)
    return (
        _orbit_table(shape31, shape31, N1_SYMMETRIES),
        _orbit_table(TensorShape(4, 2, n), shape31, N0_SQUARED_SYMMETRIES),
    )


def orbits(table, nonzero):
    return {rep for rep, sign in table if bool(sign) == nonzero}


# -- the orbit table, from the scheme slots alone ------------------------------------


def test_orbit_counts():
    (schemes31, table31), (schemes42, table42) = tables(4)
    assert len(table31) == len(schemes31) == 24
    assert len(orbits(table31, True)) == 12
    assert not orbits(table31, False)
    assert len(table42) == len(schemes42) == 120
    assert len(orbits(table42, True)) == 8
    assert len(orbits(table42, False)) == 2
    assert sum(1 for _, sign in table42 if sign == 0) == 16


def test_representative_is_first_of_its_orbit_with_sign_one():
    for schemes, table in tables(4):
        for k, (rep, sign) in enumerate(table):
            assert rep <= k
            assert table[rep] == (rep, 1 if sign else 0)


def test_each_generator_keeps_the_representative_and_multiplies_signs():
    for symmetries, (schemes, table) in zip((N1_SYMMETRIES, N0_SQUARED_SYMMETRIES), tables(4)):
        source, target = schemes[0].source, schemes[0].target
        same_target = tuple(range(1, target.p + 1))
        generators_ = [(cov, contra, same_target, sign) for cov, contra, sign in symmetries]
        generators_.append(
            (tuple(range(1, source.p + 1)), tuple(range(1, source.q + 1)), (2, 1, 3), -1)
        )
        position = {scheme: k for k, scheme in enumerate(schemes)}
        for k, scheme in enumerate(schemes):
            rep, sign = table[k]
            for cov, contra, target_cov, generator_sign in generators_:
                image = position[_relabel(scheme, cov, contra, target_cov)]
                assert table[image] == (rep, sign * generator_sign)


def test_table_is_the_same_in_every_dimension():
    by_dimension = [[table for _, table in tables(n)] for n in (3, 4, 5)]
    assert by_dimension[0] == by_dimension[1] == by_dimension[2]


# -- projection against the all-schemes oracle ---------------------------------------


def seeded_connection(n, density, seed):
    return random_connections(RandomConnectionSpec(seed=seed, dimension=n, density=density), 1)[0]


CONNECTIONS = pytest.mark.parametrize(
    "make",
    [
        reference_connection,
        lambda: seeded_connection(3, 6, 1),
        lambda: seeded_connection(3, 6, 4),
        lambda: seeded_connection(4, 6, 4),
        lambda: seeded_connection(4, 10, 2),
    ],
    ids=["bundled", "sparse-n3-s1", "sparse-n3-s4", "sparse-n4-s4", "sparse-n4-s2"],
)


@pytest.fixture
def scheme_calls(monkeypatch):
    """Schemes evaluated through the module-global ``apply_scheme``."""
    calls = []
    evaluate = generators.apply_scheme

    def counted(scheme, field):
        calls.append(scheme)
        return evaluate(scheme, field)

    monkeypatch.setattr(generators, "apply_scheme", counted)
    return calls


def assert_orbits_share_columns(columns, table):
    negations, shared_zero = {}, None
    for column, (rep, sign) in zip(columns, table):
        if sign == 1:
            assert column is columns[rep]
        elif sign == -1:
            assert column is negations.setdefault(rep, column)
            assert column is not columns[rep]
            assert equal(column, -columns[rep])
        else:
            if shared_zero is None:
                shared_zero = column
            assert column is shared_zero
            assert column.is_zero


@CONNECTIONS
def test_orbit_projection_matches_every_scheme(make, scheme_calls):
    q = Invariants(make())
    n = q.conn.dimension
    shape31 = TensorShape(3, 1, n)
    shape42 = TensorShape(4, 2, n)
    cases = [
        (shape31, N1_SYMMETRIES, q.normal1, q.normal1, 12),
        (shape42, N0_SQUARED_SYMMETRIES, q.normal0, tensor_product(q.normal0, q.normal0), 8),
    ]
    for source_shape, symmetries, field, source, representatives in cases:
        schemes = enumerate_schemes(source_shape, shape31)
        del scheme_calls[:]
        got = project_schemes(schemes, field)
        want = project_schemes_all(schemes, source)
        assert len(got) == len(want)
        for k, (column, expected) in enumerate(zip(got, want)):
            assert column.shape == expected.shape
            assert column.components == expected.components, k
        # once per orbit: a missing symmetry would evaluate more schemes
        assert len(scheme_calls) == representatives
        _, table = _orbit_table(source_shape, shape31, symmetries)
        assert_orbits_share_columns(got, table)
        # every representative's value is nonzero, so a wrong sign shows
        assert all(not got[rep].is_zero for rep in orbits(table, True))


def test_a_field_passed_as_the_source_assumes_no_symmetry():
    rng = random.Random(5)
    n = 2
    field = random_field(rng, n, 4, 2)
    schemes = enumerate_schemes(field.shape, TensorShape(3, 1, n))
    got = project_schemes(schemes, field)
    for column, expected in zip(got, project_schemes_all(schemes, field)):
        assert column.components == expected.components


# -- refusals ---------------------------------------------------------------------------


def test_factor_without_antisymmetry_is_refused(scheme_calls):
    n = 3
    # N^1_{12} = x1 with no (2,1) partner: not antisymmetric
    lopsided = field_from({((1, 2), (1,)): "x1", ((2, 3), (2,)): "x2", ((3, 2), (2,)): "-x2"}, 2, 1, n)
    schemes = enumerate_schemes(TensorShape(4, 2, n), TensorShape(3, 1, n))
    with pytest.raises(ValueError, match="antisymmetric"):
        project_schemes(schemes, lopsided)
    assert scheme_calls == []


def test_schemes_out_of_enumeration_order_are_refused():
    q = Invariants(reference_connection())
    shape31 = TensorShape(3, 1, 4)
    schemes = enumerate_schemes(shape31, shape31)
    for wrong in (schemes[1:], schemes[::-1]):
        with pytest.raises(ValueError, match="enumeration order"):
            project_schemes(wrong, q.normal1)


def test_no_schemes_project_to_no_columns():
    assert project_schemes([], Invariants(reference_connection()).normal1) == []
