"""The connection calculus against an independent sympy computation.

Torsion, curvature, the covariant derivative of the torsion, d-nabla Tor,
d-nabla R, d-nabla of the endomorphism-valued 2-form dGamma (the part of R
linear in Gamma, which is not closed) and the normal tensor N1.  The
reference side parses each Christoffel entry's text with sympy and
evaluates the formulas of the ``natforms.geometry`` docstrings in sympy
polynomials over the rationals, N1 in its original -1/6 form and every
ordering of the form directions directly; no natforms function runs on it.
Three fixed connections are checked on every quantity, and hypothesis
draws sparse dimension-3 connections for the quantities the claims read.
Each component is compared exactly, as a map from exponent tuple to
``Fraction``: ``Polynomial.terms`` on the library side,
``sympy.Poly.as_dict()`` on the reference side.  Internal identities
such as the Bianchi identities can all pass with one sign error running
through every function; this comparison cannot.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from natforms.geometry import (  # noqa: E402
    EndValuedForm,
    Invariants,
    _differential_sums,
    _exterior_differential,
    connection_from_entries,
    curvature,
    ext_cov_deriv_endo,
    ext_cov_deriv_vector,
    torsion,
)
from natforms.poly import parse  # noqa: E402
from natforms.tensor import TensorField, TensorShape, _flat  # noqa: E402

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
    """The reference quantities as ``sympy.Poly`` values, keyed by (l, lower
    indices), all 1-based: Tor^l_{ij}, R^l_{ijk}, (D Tor)^l_{ijk} with the
    direction k last, (d Tor)^l_{i0 i1 i2}, (d R)^l_{i0 i1 i2 a}, dGamma^l_{ij a}
    = d_i Gamma^l_{ja} - d_j Gamma^l_{ia}, (d dGamma)^l_{i0 i1 i2 a} and
    N^l_{ijk}."""
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {str(x): x for x in xs}
    gamma = {
        key: sympy.Poly(
            sympy.parse_expr(text.replace("^", "**"), local_dict=names), *xs, domain="QQ"
        )
        for key, text in entries.items()
    }
    zero = sympy.Poly(0, *xs, domain="QQ")
    idx = range(1, n + 1)

    def g(l, i, j):
        return gamma.get((l, i, j), zero)

    def d(poly, i):
        return poly.diff(xs[i - 1])

    def times(a, b):
        return zero if a.is_zero or b.is_zero else a * b

    def total(polys):
        return sum((p for p in polys if not p.is_zero), zero)

    def d_nabla_endo(beta):
        """d-nabla of an endomorphism-valued 2-form keyed (l, i, j, a)."""
        out = {}
        for l, *directions, a in itertools.product(idx, repeat=5):
            terms = []
            for r, i_r in enumerate(directions):
                rest = tuple(directions[:r] + directions[r + 1 :])
                term = (
                    d(beta[(l, *rest, a)], i_r)
                    + total(times(g(l, i_r, m), beta[(m, *rest, a)]) for m in idx)
                    - total(times(g(m, i_r, a), beta[(l, *rest, m)]) for m in idx)
                )
                terms.append(-term if r % 2 else term)
            out[(l, *directions, a)] = total(terms)
        return out

    tor = {(l, i, j): g(l, i, j) - g(l, j, i) for l, i, j in itertools.product(idx, repeat=3)}
    curv = {}
    for l, i, j, k in itertools.product(idx, repeat=4):
        curv[l, i, j, k] = (
            d(g(l, j, k), i)
            - d(g(l, i, k), j)
            + total(times(g(m, j, k), g(l, i, m)) - times(g(m, i, k), g(l, j, m)) for m in idx)
        )
    cov_tor = {}
    for l, i, j, k in itertools.product(idx, repeat=4):
        cov_tor[l, i, j, k] = d(tor[l, i, j], k) + total(
            times(g(l, k, m), tor[m, i, j])
            - times(g(m, k, i), tor[l, m, j])
            - times(g(m, k, j), tor[l, i, m])
            for m in idx
        )
    d_tor = {}
    for l, *directions in itertools.product(idx, repeat=4):
        terms = []
        for r, i_r in enumerate(directions):
            rest = tuple(directions[:r] + directions[r + 1 :])
            term = d(tor[(l, *rest)], i_r) + total(
                times(g(l, i_r, m), tor[(m, *rest)]) for m in idx
            )
            terms.append(-term if r % 2 else term)
        d_tor[(l, *directions)] = total(terms)
    d_gamma = {
        (l, i, j, a): d(g(l, j, a), i) - d(g(l, i, a), j)
        for l, i, j, a in itertools.product(idx, repeat=4)
    }
    normal1 = {}
    for l, i, j, k in itertools.product(idx, repeat=4):
        normal1[l, i, j, k] = (
            -3 * curv[l, k, i, j]
            + curv[l, j, k, i]
            - curv[l, i, j, k]
            - 2 * cov_tor[l, i, j, k]
            - 2 * cov_tor[l, k, j, i]
            + total(times(tor[m, k, j], tor[l, m, i]) for m in idx)
            + total(times(tor[m, i, j], tor[l, k, m]) for m in idx) * sympy.Rational(1, 2)
        ) * sympy.Rational(-1, 6)
    return {
        "torsion": tor,
        "curvature": curv,
        "cov_torsion": cov_tor,
        "d_torsion": d_tor,
        "d_curvature": d_nabla_endo(curv),
        "d_gamma": d_gamma,
        "d_d_gamma": d_nabla_endo(d_gamma),
        "normal1": normal1,
    }


def sympy_terms(poly):
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


def assert_components_agree(field, reference):
    for (l, *lower), poly in reference.items():
        got = natforms_terms(field.get(tuple(lower), (l,)))
        assert got == sympy_terms(poly), (l, *lower)


def d_gamma_form(conn):
    """dGamma^l_{ij a} = d_i Gamma^l_{ja} - d_j Gamma^l_{ia}, built by hand."""
    n = conn.dimension
    comps = []
    for i, j, a, l in itertools.product(range(1, n + 1), repeat=4):
        comps.append(
            conn.gamma(l, j, a).partial_derivative(i) - conn.gamma(l, i, a).partial_derivative(j)
        )
    return EndValuedForm(2, TensorField(TensorShape(3, 1, n), tuple(comps)))


def test_torsion_matches_sympy(both_sides):
    _, conn, reference = both_sides
    assert_components_agree(torsion(conn).tensor, reference["torsion"])


def test_curvature_matches_sympy(both_sides):
    _, conn, reference = both_sides
    assert_components_agree(curvature(conn).tensor, reference["curvature"])


def test_d_torsion_matches_sympy(both_sides):
    _, conn, reference = both_sides
    d_tor = ext_cov_deriv_vector(conn, torsion(conn)).tensor
    assert_components_agree(d_tor, reference["d_torsion"])


def direction_first(cov_tor):
    """The reference (D Tor)^l_{ijk} keyed (l, k, i, j), as the library stores it."""
    return {(l, k, i, j): poly for (l, i, j, k), poly in cov_tor.items()}


def assert_nabla_torsion_agrees(conn, cov_tor):
    """D Tor, the full degree-0 differential with its direction first, and
    the sums N1 reads, summed only where the Tor pair (slots 2 and 3)
    increases, against the reference at every index."""
    tor = torsion(conn).tensor
    assert_components_agree(
        _exterior_differential(conn._gamma_tables, tor, 0), direction_first(cov_tor)
    )
    sums, den = _differential_sums(conn._gamma_tables, tor, 0, pair=(2, 3))
    half = dict(sums.polynomials(den))
    for (l, i, j, k), poly in cov_tor.items():
        if i < j:
            got = half.pop(_flat(conn.dimension, (k - 1, i - 1, j - 1, l - 1)), None)
            assert (natforms_terms(got) if got else {}) == sympy_terms(poly), (l, i, j, k)
    assert not half  # no sum where the pair does not increase


def test_covariant_derivative_of_torsion_matches_sympy(both_sides):
    _, conn, reference = both_sides
    assert_nabla_torsion_agrees(conn, reference["cov_torsion"])


def test_d_curvature_matches_sympy(both_sides):
    _, conn, reference = both_sides
    d_curv = ext_cov_deriv_endo(conn, curvature(conn)).tensor
    assert_components_agree(d_curv, reference["d_curvature"])


def test_d_of_an_unclosed_endomorphism_form_matches_sympy(both_sides):
    _, conn, reference = both_sides
    form = d_gamma_form(conn)
    assert_components_agree(form.tensor, reference["d_gamma"])
    assert_components_agree(ext_cov_deriv_endo(conn, form).tensor, reference["d_d_gamma"])


def test_normal1_matches_sympy(both_sides):
    _, conn, reference = both_sides
    assert_components_agree(Invariants(conn).normal1, reference["normal1"])


def test_the_oracle_sees_nonzero_quantities(both_sides):
    # a comparison of zeros alone would show nothing: every connection here
    # is curved and has a non-closed dGamma, and all but the symmetric one
    # have torsion, D Tor and d Tor; d R vanishes on every one of them
    name, _, reference = both_sides

    def nonzero(quantity):
        return any(not poly.is_zero for poly in reference[quantity].values())

    for quantity in ("curvature", "d_gamma", "d_d_gamma", "normal1"):
        assert nonzero(quantity), quantity
    for quantity in ("torsion", "cov_torsion", "d_torsion"):
        assert nonzero(quantity) == (name != "symmetric"), quantity
    assert not nonzero("d_curvature")


# -- drawn connections -------------------------------------------------------------------

coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
# a term is a coefficient times the variables of a monomial of degree at most two
terms = st.tuples(coefficients, st.lists(st.integers(1, 3), max_size=2))
entry_texts = st.lists(terms, min_size=1, max_size=3).map(
    lambda drawn: " + ".join(
        "*".join([f"({coeff})"] + [f"x{v}" for v in variables]) for coeff, variables in drawn
    )
)
sparse_n3_entries = st.dictionaries(
    st.tuples(*[st.integers(1, 3)] * 3), entry_texts, min_size=1, max_size=4
)


# the drawn connections are small already, and shrinking one through the
# sympy side takes minutes, so a failure reports the example as drawn
@settings(
    max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)
@given(sparse_n3_entries)
def test_invariants_of_drawn_sparse_connections_match_sympy(entries):
    conn = connection_from_entries(3, {k: parse(t, 3) for k, t in entries.items()})
    reference = sympy_invariants(3, entries)
    tor, curv = torsion(conn), curvature(conn)
    assert_components_agree(tor.tensor, reference["torsion"])
    assert_components_agree(curv.tensor, reference["curvature"])
    assert_nabla_torsion_agrees(conn, reference["cov_torsion"])
    assert_components_agree(ext_cov_deriv_vector(conn, tor).tensor, reference["d_torsion"])
    assert_components_agree(ext_cov_deriv_endo(conn, curv).tensor, reference["d_curvature"])
    assert_components_agree(Invariants(conn).normal1, reference["normal1"])
