"""Contraction schemes evaluated once per orbit.

The orbit table is checked from the scheme slots alone.  Against
``project_schemes_all``, which evaluates and antisymmetrizes every scheme
on its own, each of the 144 values is checked to be its representative's
value from ``project_schemes`` times the table's sign, or zero on a
vanishing orbit, on the bundled connection and on seeded n=3 and n=4
draws.  The ``schemes`` certificate is checked against
``schemes_certificate_all``, which eliminates all 144 values.
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
from natforms.tensor import TensorShape
from natforms.verify import Derived, RandomConnectionSpec, random_connections, verify_schemes
from reference_loops import project_schemes_all, schemes_certificate_all, tensor_product_loop
from test_generators import assert_one_half_negated
from test_geometry import random_field
from test_tensor import field_from


def tables(n):
    shape31 = TensorShape(3, 1, n)
    shape42 = TensorShape(4, 2, n)
    return (
        (enumerate_schemes(shape31, shape31), _orbit_table(shape31, shape31, N1_SYMMETRIES)),
        (
            enumerate_schemes(shape42, shape31),
            _orbit_table(shape42, shape31, N0_SQUARED_SYMMETRIES),
        ),
    )


def slots(scheme):
    return scheme.contracted_pairs, scheme.cov_assignment, scheme.contra_assignment, scheme.delta_fills


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
        position = {slots(scheme): k for k, scheme in enumerate(schemes)}
        for k, scheme in enumerate(schemes):
            rep, sign = table[k]
            for cov, contra, target_cov, generator_sign in generators_:
                image = position[_relabel(slots(scheme), cov, contra, target_cov)]
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
    """Scheme values computed, one module-global ``_scatter`` call of
    ``generators`` each."""
    calls = []
    scatter = generators._scatter

    def counted(shape, terms, **options):
        calls.append(terms)
        return scatter(shape, terms, **options)

    monkeypatch.setattr(generators, "_scatter", counted)
    return calls


def assert_matches_every_scheme(got, want, table):
    """``got`` holds the nonzero representatives; every scheme's value in
    ``want`` is its representative's times the table's sign, or zero."""
    assert list(got) == sorted(orbits(table, True))
    assert len(want) == len(table)
    for k, (expected, (rep, sign)) in enumerate(zip(want, table)):
        if sign:
            column = got[rep] if sign == 1 else -got[rep]
            assert column.shape == expected.shape
            assert column.components == expected.components, k
        else:
            assert expected.is_zero, k


@CONNECTIONS
def test_orbit_projection_matches_every_scheme(make, scheme_calls):
    q = Invariants(make())
    n = q.conn.dimension
    shape31 = TensorShape(3, 1, n)
    shape42 = TensorShape(4, 2, n)
    cases = [
        (shape31, N1_SYMMETRIES, q.normal1, q.normal1, 12),
        (shape42, N0_SQUARED_SYMMETRIES, q.normal0, tensor_product_loop(q.normal0, q.normal0), 8),
    ]
    for source_shape, symmetries, field, source, representatives in cases:
        del scheme_calls[:]
        got = project_schemes(source_shape, shape31, field)
        # once per orbit: a missing symmetry would evaluate more schemes
        assert len(scheme_calls) == representatives
        want = project_schemes_all(enumerate_schemes(source_shape, shape31), source)
        assert_matches_every_scheme(got, want, _orbit_table(source_shape, shape31, symmetries))
        # every representative's value is nonzero, so a wrong sign shows
        assert not any(column.is_zero for column in got.values())
        # its (j, i) half holds the recorded negations of its (i, j) half
        for column in got.values():
            assert_one_half_negated(column, 1, 2)


def test_a_field_passed_as_the_source_assumes_no_symmetry():
    rng = random.Random(5)
    n = 2
    field = random_field(rng, n, 4, 2)
    target = TensorShape(3, 1, n)
    got = project_schemes(field.shape, target, field)
    want = project_schemes_all(enumerate_schemes(field.shape, target), field)
    assert_matches_every_scheme(got, want, _orbit_table(field.shape, target, N1_SYMMETRIES))


# -- the certificate against all 144 columns ------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        reference_connection,
        lambda: seeded_connection(4, 6, 3),
        lambda: seeded_connection(4, 6, 4),
        lambda: seeded_connection(4, 10, 5),
    ],
    ids=["bundled", "sparse-n4-s3", "sparse-n4-s4", "sparse-n4-s5"],
)
def test_certificate_equals_the_all_schemes_certificate(make):
    # the draws at seeds 3 and 5 give certificates that differ from the
    # generic one, so a wrong orbit or position shows in one of them
    d = Derived(make())
    assert verify_schemes(d).certificate == schemes_certificate_all(d)


# -- refusals ---------------------------------------------------------------------------


def test_factor_without_antisymmetry_is_refused(scheme_calls):
    n = 3
    # N^1_{12} = x1 with no (2,1) partner: not antisymmetric
    lopsided = field_from({((1, 2), (1,)): "x1", ((2, 3), (2,)): "x2", ((3, 2), (2,)): "-x2"}, 2, 1, n)
    with pytest.raises(ValueError, match="antisymmetric"):
        project_schemes(TensorShape(4, 2, n), TensorShape(3, 1, n), lopsided)
    assert scheme_calls == []
