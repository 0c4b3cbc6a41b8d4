"""Torsion, curvature and d-nabla Tor against an independent sympy computation.

The reference side parses each Christoffel entry's text with sympy and
evaluates the formulas of the ``natforms.geometry`` module docstring and of
``ext_cov_deriv_vector``'s docstring in sympy expressions; no natforms
function runs on it.  Each component is compared exactly, as a map from
exponent tuple to ``Fraction``: ``Polynomial.terms`` on the library side,
``sympy.Poly(...).as_dict()`` on the reference side.  Internal identities
such as the Bianchi identities can all pass with one sign error running
through every function; this comparison cannot.
"""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from natforms.geometry import (  # noqa: E402
    connection_from_entries,
    curvature,
    ext_cov_deriv_vector,
    torsion,
)
from natforms.poly import parse  # noqa: E402

# The bundled connection, as in testdata/paper_connection.json.
BUNDLED = {(1, 1, 2): "x3", (3, 3, 1): "x2*x4", (3, 4, 3): "x1*x4"}

# Symmetric in the lower pair, so torsion-free.
SYMMETRIC = {
    (1, 1, 2): "x3",
    (1, 2, 1): "x3",
    (3, 2, 4): "x1*x4",
    (3, 4, 2): "x1*x4",
    (2, 3, 3): "x2^2 - 1/3*x1",
}


def dense_entries(n, seed):
    """Every Christoffel entry nonzero: two or three terms of degree at most
    two with small rational coefficients, so the connection has torsion."""
    rng = random.Random(seed)
    entries = {}
    for key in itertools.product(range(1, n + 1), repeat=3):
        terms = []
        for _ in range(rng.randint(2, 3)):
            coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
            factors = [f"x{rng.randint(1, n)}" for _ in range(rng.randint(0, 2))]
            terms.append("*".join([f"({coeff})"] + factors))
        entries[key] = " + ".join(terms)
    return entries


CONNECTIONS = {
    "bundled": (4, BUNDLED),
    "symmetric": (4, SYMMETRIC),
    "dense": (3, dense_entries(3, seed=5)),
}


def sympy_invariants(n, entries):
    """Tor^l_{ij}, R^l_{ijk} and (d Tor)^l_{i0 i1 i2}, keyed by (l, lower
    indices), all 1-based, as sympy expressions."""
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {str(x): x for x in xs}
    gamma = {
        key: sympy.parse_expr(text.replace("^", "**"), local_dict=names)
        for key, text in entries.items()
    }
    idx = range(1, n + 1)

    def g(l, i, j):
        return gamma.get((l, i, j), sympy.Integer(0))

    def d(expr, i):
        return sympy.diff(expr, xs[i - 1])

    tor = {(l, i, j): g(l, i, j) - g(l, j, i) for l, i, j in itertools.product(idx, repeat=3)}
    curv = {}
    for l, i, j, k in itertools.product(idx, repeat=4):
        curv[l, i, j, k] = (
            d(g(l, j, k), i)
            - d(g(l, i, k), j)
            + sum(g(m, j, k) * g(l, i, m) - g(m, i, k) * g(l, j, m) for m in idx)
        )
    d_tor = {}
    for l, *directions in itertools.product(idx, repeat=4):
        total = sympy.Integer(0)
        for r, i_r in enumerate(directions):
            rest = tuple(directions[:r] + directions[r + 1 :])
            total += (-1) ** r * (
                d(tor[(l, *rest)], i_r) + sum(g(l, i_r, m) * tor[(m, *rest)] for m in idx)
            )
        d_tor[(l, *directions)] = total
    return xs, tor, curv, d_tor


def sympy_terms(expr, xs):
    poly = sympy.Poly(sympy.expand(expr), *xs)
    return {
        tuple(int(e) for e in mono): Fraction(int(c.p), int(c.q))
        for mono, c in poly.as_dict().items()
    }


def natforms_terms(poly):
    return {mono: Fraction(c) for mono, c in poly.terms.items()}


@pytest.fixture(scope="module", params=sorted(CONNECTIONS))
def both_sides(request):
    """The connection's name, the library's connection and the reference side."""
    n, entries = CONNECTIONS[request.param]
    conn = connection_from_entries(n, {k: parse(t, n) for k, t in entries.items()})
    return request.param, conn, sympy_invariants(n, entries)


def assert_components_agree(field, reference, xs):
    for (l, *lower), expr in reference.items():
        got = natforms_terms(field.get(tuple(lower), (l,)))
        assert got == sympy_terms(expr, xs), (l, *lower)


def test_torsion_matches_sympy(both_sides):
    _, conn, (xs, tor, _, _) = both_sides
    assert_components_agree(torsion(conn).tensor, tor, xs)


def test_curvature_matches_sympy(both_sides):
    _, conn, (xs, _, curv, _) = both_sides
    assert_components_agree(curvature(conn).tensor, curv, xs)


def test_d_torsion_matches_sympy(both_sides):
    _, conn, (xs, _, _, d_tor) = both_sides
    assert_components_agree(ext_cov_deriv_vector(conn, torsion(conn)).tensor, d_tor, xs)


def test_the_oracle_sees_nonzero_quantities(both_sides):
    # a comparison of zeros alone would show nothing: every connection here
    # is curved, and all but the symmetric one have torsion and d Tor
    name, _, (_, tor, curv, d_tor) = both_sides
    assert any(sympy.expand(e) != 0 for e in curv.values())
    for quantity in (tor, d_tor):
        assert any(sympy.expand(e) != 0 for e in quantity.values()) == (name != "symmetric")
