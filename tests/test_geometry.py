"""Connection calculus: hand-frozen values, independent formula oracles,
and the differential identities that pin every sign convention."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natforms.geometry import (
    EndValuedForm,
    Invariants,
    VectorValuedForm,
    _exterior_differential,
    connection_from_entries,
    connection_from_json_obj,
    connection_to_json_obj,
    curvature,
    ext_cov_deriv_endo,
    ext_cov_deriv_vector,
    exterior_derivative,
    identity_oneform,
    load_connection,
    reference_connection,
    tensor_identity,
    torsion,
    wedge_endo_identity,
    wedge_oneform_identity,
)
from natforms.poly import Polynomial, _Sums, parse
from natforms.tensor import (
    TensorField,
    TensorShape,
    _flat,
    contract,
    equal,
    is_antisymmetric,
    permute_covariant,
)
from natforms.verify import Derived, RandomConnectionSpec, random_connections
from reference_loops import (
    covariant_derivative_loop,
    ext_cov_deriv_endo_all_orderings,
    ext_cov_deriv_vector_all_orderings,
    exterior_derivative_loop,
    normal1_loop,
    torsion_loop,
    wedge_endo_identity_loop,
)
from test_tensor import nonzero_polys

N = 4


def pp(text):
    return parse(text, N)


# -- independent oracles, written against the displayed coordinate formulas -----

def curvature_by_formula(conn):
    """Direct evaluation of the curvature components, term by term."""
    n = conn.dimension
    values = {}
    for l, i, j, k in itertools.product(range(1, n + 1), repeat=4):
        val = conn.gamma(l, j, k).partial_derivative(i)
        val = val - conn.gamma(l, i, k).partial_derivative(j)
        for m in range(1, n + 1):
            val = val + conn.gamma(m, j, k) * conn.gamma(l, i, m)
            val = val - conn.gamma(m, i, k) * conn.gamma(l, j, m)
        values[(l, i, j, k)] = val
    return values


def nabla_21_by_formula(conn, t):
    """Covariant derivative of a (2,1) field via the four-term formula,
    keyed (l, i, j, k) with the direction k last."""
    n = conn.dimension
    values = {}
    for l, i, j, k in itertools.product(range(1, n + 1), repeat=4):
        val = t.get((i, j), (l,)).partial_derivative(k)
        for m in range(1, n + 1):
            val = val - conn.gamma(m, k, i) * t.get((m, j), (l,))
            val = val - conn.gamma(m, k, j) * t.get((i, m), (l,))
            val = val + conn.gamma(l, k, m) * t.get((i, j), (m,))
        values[(l, i, j, k)] = val
    return values


def d_of_2form(omega):
    """(d w)_{ijk} = d_i w_{jk} - d_j w_{ik} + d_k w_{ij}."""
    n = omega.shape.n
    comps = []
    for i, j, k in itertools.product(range(1, n + 1), repeat=3):
        comps.append(
            omega.get((j, k), ()).partial_derivative(i)
            - omega.get((i, k), ()).partial_derivative(j)
            + omega.get((i, j), ()).partial_derivative(k)
        )
    return TensorField(TensorShape(3, 0, n), tuple(comps))


# -- connection construction and file format -------------------------------------

def test_reference_connection_matches_shipped_file():
    loaded = load_connection("testdata/paper_connection.json")
    ref = reference_connection()
    assert loaded.dimension == 4
    assert all(
        loaded.gamma(l, i, j) == ref.gamma(l, i, j)
        for l, i, j in itertools.product(range(1, 5), repeat=3)
    )


def test_connection_json_round_trip(crooked_conn):
    obj = connection_to_json_obj(crooked_conn)
    again = connection_from_json_obj(obj)
    assert again == crooked_conn


def test_connection_rejects_duplicates():
    obj = {
        "dim": 4,
        "christoffel": [
            {"upper": 1, "lower": [1, 2], "poly": "x3"},
            {"upper": 1, "lower": [1, 2], "poly": "x4"},
        ],
    }
    with pytest.raises(ValueError, match="duplicate"):
        connection_from_json_obj(obj)


def test_connection_rejects_small_dimension():
    with pytest.raises(ValueError, match="n >= 2"):
        connection_from_json_obj({"dim": 1, "christoffel": []})


def test_connection_rejects_bad_polynomial():
    obj = {"dim": 4, "christoffel": [{"upper": 1, "lower": [1, 2], "poly": "x9"}]}
    with pytest.raises(ValueError, match="invalid polynomial"):
        connection_from_json_obj(obj)


# -- torsion ------------------------------------------------------------------------

def test_torsion_flat_is_zero(flat_conn):
    assert torsion(flat_conn).tensor.is_zero


def test_torsion_reference_values(ref_conn):
    tor = torsion(ref_conn).tensor
    # direct substitution into Tor^l_ij = Gamma^l_ij - Gamma^l_ji
    expected = {
        ((1, 2), 1): "x3",
        ((2, 1), 1): "-x3",
        ((4, 3), 3): "x1*x4",
        ((3, 4), 3): "-x1*x4",
        ((3, 1), 3): "x2*x4",
        ((1, 3), 3): "-x2*x4",
    }
    for i, j, l in itertools.product(range(1, 5), repeat=3):
        want = pp(expected.get(((i, j), l), "0"))
        assert tor.get((i, j), (l,)) == want, (i, j, l)


def test_torsion_symmetric_connection_vanishes(symmetric_conn):
    assert torsion(symmetric_conn).tensor.is_zero


# -- curvature ------------------------------------------------------------------------

def test_curvature_flat_is_zero(flat_conn):
    assert curvature(flat_conn).tensor.is_zero


def test_curvature_reference_spot_values(ref_conn):
    r = curvature(ref_conn).tensor
    # hand-evaluated components of the displayed formula
    assert r.get((3, 1, 2), (1,)) == pp("1")
    assert r.get((2, 3, 1), (3,)) == pp("x4")
    assert r.get((4, 3, 1), (3,)) == pp("x2 + x1*x2*x4^2")
    assert r.get((1, 4, 3), (3,)) == pp("x4")


def test_curvature_matches_formula_oracle(ref_conn, crooked_conn):
    # over Gamma denominators 2 and 3 every term is summed over 36 and every
    # output must come back in lowest terms
    mixed = mixed_denominator_connection()
    for conn in (ref_conn, crooked_conn, mixed):
        r = curvature(conn).tensor
        oracle = curvature_by_formula(conn)
        for (l, i, j, k), want in oracle.items():
            assert r.get((i, j, k), (l,)) == want, (l, i, j, k)
        assert_lowest_terms(r)
    assert {2, 3} <= {comp.denominator for comp in r.components}


def test_curvature_constant_christoffel_keeps_products():
    # constant symbols: derivative terms vanish, Gamma*Gamma terms survive
    conn = connection_from_json_obj(
        {"dim": 4, "christoffel": [{"upper": 2, "lower": [1, 1], "poly": "1"},
                                   {"upper": 3, "lower": [2, 2], "poly": "1"}]}
    )
    r = curvature(conn).tensor
    # R^3_{122} = Gamma^m_{22}Gamma^3_{1m} - Gamma^m_{12}Gamma^3_{2m} = 0
    assert r.get((1, 2, 2), (3,)).is_zero
    # R^3_{211} = Gamma^m_{11}Gamma^3_{2m} - Gamma^m_{21}Gamma^3_{1m} = 1 (m=2)
    assert r.get((2, 1, 1), (3,)) == pp("1")


# -- covariant derivative: the differential in degree 0, direction first ----------------

def nabla(conn, field):
    """(D field)_{k, ...} = D_k field_{...}."""
    return _exterior_differential(conn._gamma_tables, field, 0)


def test_covariant_derivative_of_constant_scalar(ref_conn):
    f = TensorField(TensorShape(0, 0, N), (Polynomial.constant(N, 7),))
    assert nabla(ref_conn, f).is_zero


def test_covariant_derivative_flat_is_plain_partials(flat_conn):
    t = torsion(reference_connection()).tensor
    grad = nabla(flat_conn, t)
    for i, j, k, l in itertools.product(range(1, 5), repeat=4):
        assert grad.get((k, i, j), (l,)) == t.get((i, j), (l,)).partial_derivative(k)


def test_covariant_derivative_matches_term_oracle(ref_conn, crooked_conn):
    for conn in (ref_conn, crooked_conn):
        t = torsion(conn).tensor
        grad = nabla(conn, t)
        oracle = nabla_21_by_formula(conn, t)
        for (l, i, j, k), want in oracle.items():
            assert grad.get((k, i, j), (l,)) == want, (l, i, j, k)


def test_covariant_derivative_reference_spot_values(ref_conn):
    grad = nabla(ref_conn, torsion(ref_conn).tensor)
    assert grad.get((3, 1, 2), (1,)) == pp("1")  # D_3 Tor^1_{12}
    assert grad.get((4, 3, 1), (3,)) == pp("x2")  # D_4 Tor^3_{31}


# -- exterior covariant differential ------------------------------------------------------

def test_gamma_tables_are_built_once_per_connection(table_builds):
    conn = reference_connection()
    invariants = Invariants(conn)
    for _ in range(2):
        nabla(conn, invariants.torsion.tensor)
        ext_cov_deriv_vector(conn, invariants.torsion)
        ext_cov_deriv_endo(conn, curvature(conn))
    assert equal(invariants.d_torsion.tensor, wedge_endo_identity(invariants.curvature).tensor)
    assert invariants.d_curvature.tensor.is_zero
    assert equal(invariants.d_identity.tensor, invariants.torsion.tensor)
    assert not invariants.normal1.is_zero
    assert len(table_builds) == 1 and table_builds[0] is conn


def test_differential_of_identity_is_torsion(ref_conn, crooked_conn, symmetric_conn):
    for conn in (ref_conn, crooked_conn, symmetric_conn):
        d_id = ext_cov_deriv_vector(conn, identity_oneform(conn.dimension))
        assert equal(d_id.tensor, torsion(conn).tensor)


def test_first_bianchi_on_reference(ref_conn):
    lhs = ext_cov_deriv_vector(ref_conn, torsion(ref_conn))
    rhs = wedge_endo_identity(curvature(ref_conn))
    assert equal(lhs.tensor, rhs.tensor)


def test_first_bianchi_on_crooked(crooked_conn):
    lhs = ext_cov_deriv_vector(crooked_conn, torsion(crooked_conn))
    rhs = wedge_endo_identity(curvature(crooked_conn))
    assert equal(lhs.tensor, rhs.tensor)


def test_second_bianchi_on_reference(ref_conn):
    assert ext_cov_deriv_endo(ref_conn, curvature(ref_conn)).tensor.is_zero


def test_second_bianchi_on_crooked(crooked_conn):
    assert ext_cov_deriv_endo(crooked_conn, curvature(crooked_conn)).tensor.is_zero


def test_first_bianchi_symmetric_reduces_to_cyclic_identity(symmetric_conn):
    # without torsion both sides vanish separately: the cyclic curvature sum is zero
    assert ext_cov_deriv_vector(symmetric_conn, torsion(symmetric_conn)).tensor.is_zero
    assert wedge_endo_identity(curvature(symmetric_conn)).tensor.is_zero


def test_differential_of_zero_forms(ref_conn):
    zero2 = VectorValuedForm(2, TensorField(TensorShape(2, 1, N), (Polynomial.zero(N),) * 64))
    assert ext_cov_deriv_vector(ref_conn, zero2).tensor.is_zero
    zero_endo = EndValuedForm(2, TensorField(TensorShape(3, 1, N), (Polynomial.zero(N),) * 256))
    assert ext_cov_deriv_endo(ref_conn, zero_endo).tensor.is_zero


def test_differential_of_identity_tensor_form(ref_conn, crooked_conn):
    # d of (w tensor I) equals (dw) tensor I: the two Gamma corrections cancel
    omega_entries = {(1, 2): "x1*x3", (3, 4): "x2^2", (1, 4): "-x4"}
    comps = []
    for i, j in itertools.product(range(1, 5), repeat=2):
        text = omega_entries.get((i, j))
        anti = omega_entries.get((j, i))
        if text is not None:
            comps.append(pp(text))
        elif anti is not None:
            comps.append(-pp(anti))
        else:
            comps.append(Polynomial.zero(N))
    omega = TensorField(TensorShape(2, 0, N), tuple(comps))
    d_omega = d_of_2form(omega)
    for conn in (ref_conn, crooked_conn):
        lhs = ext_cov_deriv_endo(conn, tensor_identity(omega)).tensor
        for i, j, k, a, l in itertools.product(range(1, 5), repeat=5):
            want = d_omega.get((i, j, k), ()) if a == l else Polynomial.zero(N)
            assert lhs.get((i, j, k, a), (l,)) == want, (i, j, k, a, l)


def test_closed_two_form_times_identity_is_closed(ref_conn):
    # constant-coefficient antisymmetric 2-form is closed
    comps = []
    for i, j in itertools.product(range(1, 5), repeat=2):
        if (i, j) == (1, 2):
            comps.append(pp("3"))
        elif (i, j) == (2, 1):
            comps.append(pp("-3"))
        else:
            comps.append(Polynomial.zero(N))
    omega = TensorField(TensorShape(2, 0, N), tuple(comps))
    assert ext_cov_deriv_endo(ref_conn, tensor_identity(omega)).tensor.is_zero


# -- differentials against the all-orderings reference loops --------------------------------

def random_poly(rng, n):
    """0 to 2 terms of degree <= 2, coefficients from {+-1, +-2, +-1/2}."""
    terms = {}
    for _ in range(rng.randint(0, 2)):
        exps = [0] * n
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rng.choice((1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)))
    return Polynomial(n, terms)


def random_form(rng, n, degree, input_slots):
    """A (degree + input_slots, 1) field with up to 2n random components,
    alternated over its first ``degree`` slots.  The components sit at
    strictly increasing form indices, so the alternation keeps each one."""
    p = degree + input_slots
    comps = [Polynomial.zero(n)] * n ** (p + 1)
    increasing = increasing_positions(n, degree, p)
    for pos in rng.sample(increasing, min(2 * n, len(increasing))):
        comps[pos] = random_poly(rng, n) + Polynomial.constant(n, 1)
    return alternated_form(TensorField(TensorShape(p, 1, n), tuple(comps)), degree)


def increasing_positions(n, degree, p):
    """Positions of a (p, 1) field whose first ``degree`` indices strictly increase."""
    return [
        pos
        for pos, idx in enumerate(itertools.product(range(n), repeat=p + 1))
        if all(a < b for a, b in zip(idx[:degree], idx[1:degree]))
    ]


def alternated_form(raw, degree):
    """The form that alternates raw over its first ``degree`` slots: a
    vector-valued form for a (degree, 1) field, else endomorphism-valued."""
    p = raw.shape.p
    total = None
    for perm in itertools.permutations(range(1, degree + 1)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        piece = permute_covariant(raw, perm + tuple(range(degree + 1, p + 1)))
        piece = -piece if inversions % 2 else piece
        total = piece if total is None else total + piece
    wrap = EndValuedForm if p > degree else VectorValuedForm
    return wrap(degree, total)


def assert_matches_reference(conn, form):
    """The differential equals the reference's, component by component;
    returns it."""
    if isinstance(form, EndValuedForm):
        got = ext_cov_deriv_endo(conn, form)
        want = ext_cov_deriv_endo_all_orderings(conn, form)
    else:
        got = ext_cov_deriv_vector(conn, form)
        want = ext_cov_deriv_vector_all_orderings(conn, form)
    assert got.degree == want.degree == form.degree + 1
    assert got.tensor.shape == want.tensor.shape
    for pos, (a, b) in enumerate(zip(got.tensor.components, want.tensor.components)):
        assert a == b, pos
    return got


SEEDED_CONNECTIONS = pytest.mark.parametrize(
    "n, density, seed",
    [(4, 6, 11), (4, 20, 2), (5, 8, 5), (5, 30, 7)],
    ids=["sparse-n4", "dense-n4", "sparse-n5", "dense-n5"],
)


@SEEDED_CONNECTIONS
def test_differentials_match_all_orderings_reference(n, density, seed):
    conn = random_connections(RandomConnectionSpec(seed=seed, dimension=n, density=density), 1)[0]
    rng = random.Random(seed)
    for form in (identity_oneform(n), torsion(conn), curvature(conn)):
        assert_matches_reference(conn, form)
    for degree, input_slots in itertools.product(range(4), (0, 1)):
        form = random_form(rng, n, degree, input_slots)
        assert not assert_matches_reference(conn, form).tensor.is_zero


@SEEDED_CONNECTIONS
def test_torsion_matches_the_loop_reference(n, density, seed):
    conn = random_connections(RandomConnectionSpec(seed=seed, dimension=n, density=density), 1)[0]
    tor = torsion(conn).tensor
    assert tor.components == torsion_loop(conn).tensor.components
    assert not tor.is_zero
    # (j, i) holds the recorded negation of (i, j), and i = j is zero
    assert_orderings_share(tor, 2)


def random_field(rng, n, p, q):
    """A (p, q) field with up to 4n nonconstant random components."""
    comps = [Polynomial.zero(n)] * n ** (p + q)
    for pos in rng.sample(range(len(comps)), min(4 * n, len(comps))):
        x = Polynomial.variable(n, rng.randint(1, n))
        comps[pos] = random_poly(rng, n) + x * x
    return TensorField(TensorShape(p, q, n), tuple(comps))


@SEEDED_CONNECTIONS
def test_derivatives_match_loop_reference(n, density, seed):
    conn = random_connections(RandomConnectionSpec(seed=seed, dimension=n, density=density), 1)[0]
    rng = random.Random(seed)
    for p, q in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 1), (1, 2)]:
        field = random_field(rng, n, p, q)
        got = nabla(conn, field)
        assert equal(got, covariant_derivative_loop(conn, field)), (p, q)
        assert not got.is_zero
        if (p, q) == (1, 0):
            d = exterior_derivative(field)
            assert equal(d, exterior_derivative_loop(field)) and not d.is_zero


def mixed_poly(rng, n):
    """1 to 3 terms of degree <= 2 with coefficients of denominators 1 to 6."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * n
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = Fraction(rng.choice((1, -1, 2, -5)), rng.randint(1, 6))
    return Polynomial(n, terms)


def assert_lowest_terms(field):
    for comp in field.components:
        den, nums = comp.denominator, comp.numerators
        assert den >= 1 and all(nums.values())
        assert math.gcd(den, *nums.values()) == 1


def mixed_denominator_connection():
    """A connection on R^4 whose Christoffel symbols have denominators 2 and 3."""
    return connection_from_entries(
        N,
        {
            (1, 1, 2): pp("1/2*x3"),
            (3, 4, 3): pp("1/3*x1*x4 - 1/2"),
            (3, 3, 1): pp("2/3*x2*x4 + 1/6*x1"),
            (2, 2, 4): pp("3*x4^2"),
            (4, 1, 1): pp("-1/2*x2 + 1/3*x3"),
        },
    )


def test_differentials_over_mixed_denominators_match_reference_in_lowest_terms():
    # Gamma has denominators 2 and 3, so every output is summed over a common
    # denominator of 6 times the sources' and must come back in lowest terms
    n = 4
    conn = mixed_denominator_connection()
    rng = random.Random(23)
    forms = [torsion(conn), curvature(conn)]
    for degree, input_slots in itertools.product(range(3), (0, 1)):
        p = degree + input_slots
        comps = [Polynomial.zero(n)] * n ** (p + 1)
        positions = increasing_positions(n, degree, p)
        for pos in rng.sample(positions, min(2 * n, len(positions))):
            comps[pos] = mixed_poly(rng, n)
        forms.append(alternated_form(TensorField(TensorShape(p, 1, n), tuple(comps)), degree))
    denominators = set()
    for form in forms:
        got = assert_matches_reference(conn, form).tensor
        assert_lowest_terms(got)
        denominators |= {comp.denominator for comp in got.components}
    assert {2, 3, 6} <= denominators
    for p, q in [(1, 0), (2, 1), (1, 2)]:
        comps = [mixed_poly(rng, n) if rng.random() < 0.3 else Polynomial.zero(n)
                 for _ in range(n ** (p + q))]
        field = TensorField(TensorShape(p, q, n), tuple(comps))
        got = nabla(conn, field)
        assert equal(got, covariant_derivative_loop(conn, field)), (p, q)
        assert_lowest_terms(got)
        if (p, q) == (1, 0):
            d = exterior_derivative(field)
            assert equal(d, exterior_derivative_loop(field))
            assert_lowest_terms(d)


def test_torsion_over_mixed_denominators_and_dense_matches_the_loop():
    dense = random_connections(RandomConnectionSpec(seed=2, dimension=4, density=20), 1)[0]
    for conn in (mixed_denominator_connection(), dense):
        tor = torsion(conn).tensor
        assert tor.components == torsion_loop(conn).tensor.components
        assert_lowest_terms(tor)
        # (j, i) holds the recorded negation of (i, j); a zero difference is
        # skipped, so every zero component is the one shared zero
        assert_orderings_share(tor, 2)
        assert len({id(c) for c in tor.components if not c.numerators}) == 1


def test_differentials_keep_the_product_exponent_guard_and_term_bound():
    # Gamma^1_{11} = x1^(2^30) times a component x1^(2^30) reaches 2^31
    half = 2**30
    conn = connection_from_entries(2, {(1, 1, 1): parse(f"x1^{half}", 2)})

    def vector(text):
        comps = (parse(text, 2), Polynomial.zero(2))
        return VectorValuedForm(0, TensorField(TensorShape(0, 1, 2), comps))

    def covector(text):
        comps = (parse(text, 2), Polynomial.zero(2))
        return TensorField(TensorShape(1, 0, 2), comps)

    with pytest.raises(ValueError, match="exponent"):
        ext_cov_deriv_vector(conn, vector(f"x1^{half}"))
    with pytest.raises(ValueError, match="exponent"):
        nabla(conn, covector(f"x1^{half} + x2"))
    # one below the bound is a valid product
    got = ext_cov_deriv_vector(conn, vector(f"x1^{half - 1}")).tensor
    assert got.get((1,), (1,)) == parse(f"{half - 1}*x1^{half - 2} + x1^{2 * half - 1}", 2)
    # 1001 Gamma terms times 1000 component terms exceed the term-pair bound
    many = " + ".join(f"x1^{e}" for e in range(1001))
    conn = connection_from_entries(2, {(1, 1, 1): parse(many, 2)})
    with pytest.raises(ValueError, match="term pairs"):
        ext_cov_deriv_vector(conn, vector(" + ".join(f"x2^{e}" for e in range(1000))))


def test_differentials_of_named_forms_match_reference(ref_conn, crooked_conn, ref_family):
    forms = [
        identity_oneform(N),
        torsion(crooked_conn),
        ext_cov_deriv_vector(crooked_conn, torsion(crooked_conn)),
        curvature(crooked_conn),
    ]
    for form in forms:
        assert_matches_reference(crooked_conn, form)
    for label in ("T1", "T2", "T13", "T19"):
        assert_matches_reference(ref_conn, EndValuedForm(2, ref_family.tensors[label]))


def test_differentials_above_the_dimension_are_zero():
    # at n=2 every form of degree 3 or more vanishes
    rng = random.Random(3)
    conn = connection_from_entries(
        2, {key: random_poly(rng, 2) for key in itertools.product((1, 2), repeat=3)}
    )
    assert not torsion(conn).tensor.is_zero and not curvature(conn).tensor.is_zero
    forms = [torsion(conn), curvature(conn), random_form(rng, 2, 3, 0), random_form(rng, 2, 3, 1)]
    for form in forms:
        assert_matches_reference(conn, form)
        if isinstance(form, EndValuedForm):
            assert ext_cov_deriv_endo(conn, form).tensor.is_zero
        else:
            assert ext_cov_deriv_vector(conn, form).tensor.is_zero


# -- the scatter: sparse sources, and one object per alternation class ---------------

def assert_orderings_share(tensor, degree):
    """Every even ordering of the first ``degree`` slots holds the one object
    at strictly increasing indices, and every odd ordering its one recorded
    negation; repeated indices hold zero."""
    n = tensor.shape.n
    block = n ** (tensor.shape.p + tensor.shape.q - degree)
    comps = tensor.components
    signed = []
    for perm in itertools.permutations(range(degree)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        signed.append((perm, inversions % 2))
    for head in itertools.product(range(n), repeat=degree):
        if len(set(head)) < degree:
            start = _flat(n, head) * block
            assert all(not c.numerators for c in comps[start : start + block])
    for directions in itertools.combinations(range(n), degree):
        for offset in range(block):
            value = comps[_flat(n, directions) * block + offset]
            odd_held = set()
            for perm, odd in signed:
                comp = comps[_flat(n, [directions[i] for i in perm]) * block + offset]
                if not value.numerators:
                    assert not comp.numerators
                elif odd:
                    assert comp._negated is value
                    odd_held.add(id(comp))
                else:
                    assert comp is value
            assert len(odd_held) <= 1


@st.composite
def sparse_connections_and_forms(draw):
    """A connection in dimension 3 or 4 with up to 4 nonzero Christoffel
    symbols, and a form on it alternated from 0 to 3 components at strictly
    increasing form indices (of degree at most 3 at n = 3, 2 at n = 4)."""
    n = draw(st.sampled_from((3, 4)))
    keys = draw(st.lists(st.tuples(*[st.integers(1, n)] * 3), max_size=4, unique=True))
    conn = connection_from_entries(n, {key: draw(nonzero_polys(n)) for key in keys})
    degree = draw(st.integers(0, 3 if n == 3 else 2))
    p = degree + draw(st.integers(0, 1))
    comps = [Polynomial.zero(n)] * n ** (p + 1)
    positions = increasing_positions(n, degree, p)
    for pos in draw(st.lists(st.sampled_from(positions), max_size=3, unique=True)):
        comps[pos] = draw(nonzero_polys(n))
    return conn, alternated_form(TensorField(TensorShape(p, 1, n), tuple(comps)), degree)


@given(sparse_connections_and_forms())
@settings(max_examples=40, deadline=None)
def test_scatter_matches_all_orderings_reference_on_sparse_sources(drawn):
    conn, form = drawn
    got = assert_matches_reference(conn, form)
    assert_orderings_share(got.tensor, got.degree)
    field = form.tensor
    assert equal(nabla(conn, field), covariant_derivative_loop(conn, field))


def test_scatter_of_a_single_component_reaches_only_its_outputs():
    # one component of a vector field at x1^2 e_2 and one Christoffel symbol
    conn = connection_from_entries(3, {(3, 1, 2): parse("x2", 3)})
    comps = [Polynomial.zero(3)] * 3
    comps[1] = parse("x1^2", 3)
    form = VectorValuedForm(0, TensorField(TensorShape(0, 1, 3), tuple(comps)))
    got = assert_matches_reference(conn, form).tensor
    # D_1 of it: d_1 x1^2 at (1; 2) and Gamma^3_{12} x1^2 at (1; 3)
    assert got.support == (_flat(3, (0, 1)), _flat(3, (0, 2)))
    assert got.get((1,), (2,)) == parse("2*x1", 3) and got.get((1,), (3,)) == parse("x1^2*x2", 3)


def test_differentials_share_one_object_per_alternation_class(ref_conn, crooked_conn, ref_family):
    for conn in (ref_conn, crooked_conn):
        q = Invariants(conn)
        assert_orderings_share(q.curvature.tensor, 2)
        assert_orderings_share(q.d_torsion.tensor, 3)
        assert_orderings_share(q.d_curvature.tensor, 3)
        assert_orderings_share(q.d_identity.tensor, 2)
    for label in ("T1", "T2", "T13", "T19"):
        form = EndValuedForm(2, ref_family.tensors[label])
        assert_orderings_share(ext_cov_deriv_endo(ref_conn, form).tensor, 3)


def test_curvature_computes_one_of_each_antisymmetric_pair(monkeypatch):
    # a dense draw: the (j, i) partners and i = j would double the outputs
    conn = random_connections(RandomConnectionSpec(seed=2, dimension=4, density=20), 1)[0]
    outputs = []
    polynomials = _Sums.polynomials

    def counted(self, denominator):
        outputs.extend(self)  # one key per output summed
        return polynomials(self, denominator)

    monkeypatch.setattr(_Sums, "polynomials", counted)
    r = curvature(conn).tensor
    monkeypatch.undo()
    assert 0 < len(outputs) <= 6 * 16  # the pairs i < j of 1..4, times (k, l)
    assert all(key // 4**3 < key // 4**2 % 4 for key in outputs)
    assert_orderings_share(r, 2)
    values = curvature_by_formula(conn)
    indices = itertools.product(range(1, 5), repeat=4)
    assert r.components == tuple(values[(l, i, j, k)] for i, j, k, l in indices)


def kernel_connections(ref_conn, crooked_conn):
    """The bundled, the crooked and a dense n=4 connection (seed 2, density 20)."""
    dense = random_connections(RandomConnectionSpec(seed=2, dimension=4, density=20), 1)[0]
    return [ref_conn, crooked_conn, dense]


def test_wedge_with_identity_sums_one_ordering_per_class(ref_conn, crooked_conn):
    # R^I and its trace variants are summed at i < j < k only, and every
    # other ordering holds that object or its recorded negation
    for conn in kernel_connections(ref_conn, crooked_conn):
        d = Derived(conn)
        for beta in (d.curvature, d.curvature_trace_identity, d.d_torsion_trace_identity):
            got = wedge_endo_identity(beta).tensor
            assert equal(got, wedge_endo_identity_loop(beta).tensor)
            assert_orderings_share(got, 3)


def test_normal1_with_half_of_nabla_torsion_matches_the_loop(ref_conn, crooked_conn):
    # N1 reads the differential of Tor summed at increasing Tor pairs only,
    # the swapped pairs holding the recorded negations
    for conn in [*kernel_connections(ref_conn, crooked_conn), mixed_denominator_connection()]:
        assert equal(Invariants(conn).normal1, normal1_loop(conn))


# -- the form wrappers' refusals ------------------------------------------------------------
# d-nabla fills every ordering of its output by alternation, which is only
# right because the wrappers refuse a source that does not alternate.

def field_from(entries, p, q=1):
    """The (p, q) field at N with the given (cov, contra) -> text entries, zero elsewhere."""
    table = {cov + contra: pp(text) for (cov, contra), text in entries.items()}
    comps = [
        table.get(idx, Polynomial.zero(N))
        for idx in itertools.product(range(1, N + 1), repeat=p + q)
    ]
    return TensorField(TensorShape(p, q, N), tuple(comps))


# alternating in covariant slots (1,2) but not in (2,3)
FIRST_PAIR_ONLY = {((1, 2, 3), (1,)): "x1", ((2, 1, 3), (1,)): "-x1"}


@pytest.mark.parametrize(
    "form, degree, shape",
    [
        (VectorValuedForm, 2, (3, 1)),
        (VectorValuedForm, 2, (2, 0)),
        (EndValuedForm, 2, (2, 1)),
        (EndValuedForm, 1, (2, 2)),
    ],
)
def test_form_wrappers_refuse_a_wrong_shape(form, degree, shape):
    with pytest.raises(ValueError, match="needs shape"):
        form(degree, field_from({}, *shape))


def test_form_wrappers_refuse_a_field_that_does_not_alternate():
    with pytest.raises(ValueError, match=r"form slots \(1,2\) are not antisymmetric"):
        VectorValuedForm(2, field_from({((1, 2), (1,)): "x1"}, 2))
    with pytest.raises(ValueError, match=r"form slots \(2,3\) are not antisymmetric"):
        VectorValuedForm(3, field_from(FIRST_PAIR_ONLY, 3))
    with pytest.raises(ValueError, match=r"form slots \(1,2\) are not antisymmetric"):
        EndValuedForm(2, field_from({((1, 2, 3), (1,)): "x1"}, 3))
    with pytest.raises(ValueError, match=r"form slots \(2,3\) are not antisymmetric"):
        EndValuedForm(3, field_from({((1, 2, 3, 4), (1,)): "x1", ((2, 1, 3, 4), (1,)): "-x1"}, 4))


def test_endomorphism_input_slot_is_free():
    field = field_from(FIRST_PAIR_ONLY, 3)
    assert is_antisymmetric(field, 1, 2) and not is_antisymmetric(field, 2, 3)
    assert EndValuedForm(2, field).tensor is field


# -- wedges with the identity ---------------------------------------------------------------

def test_wedge_endo_identity_of_zero(ref_conn, flat_conn):
    assert wedge_endo_identity(curvature(flat_conn)).tensor.is_zero


def test_wedge_oneform_identity_values(ref_conn):
    theta = contract(torsion(ref_conn).tensor, 1, 1)
    assert theta.shape == TensorShape(1, 0, N)
    # trace of torsion on the reference connection, by direct summation
    assert theta.get((1,), ()) == pp("x2*x4")
    assert theta.get((2,), ()) == pp("x3")
    assert theta.get((3,), ()) == pp("0")
    assert theta.get((4,), ()) == pp("-x1*x4")
    h = wedge_oneform_identity(theta).tensor
    for i, j, l in itertools.product(range(1, 5), repeat=3):
        want = Polynomial.zero(N)
        if j == l:
            want = want + theta.get((i,), ())
        if i == l:
            want = want - theta.get((j,), ())
        assert h.get((i, j), (l,)) == want


def test_wedge_oneform_trace_identity(ref_conn):
    theta = contract(torsion(ref_conn).tensor, 1, 1)
    wedge = wedge_oneform_identity(theta).tensor
    traced = contract(wedge, 2, 1)
    for i in range(1, 5):
        assert traced.get((i,), ()) == theta.get((i,), ()).scale(N - 1)


def test_tensor_identity_trace(ref_conn):
    omega = exterior_derivative(contract(torsion(ref_conn).tensor, 1, 1))
    lifted = tensor_identity(omega).tensor
    traced = contract(lifted, 3, 1)
    for i, j in itertools.product(range(1, 5), repeat=2):
        assert traced.get((i, j), ()) == omega.get((i, j), ()).scale(N)


def test_tensor_identity_refuses_a_non_antisymmetric_two_form():
    comps = [Polynomial.zero(N)] * N**2
    comps[1] = pp("x1")  # omega_12 = x1 while omega_21 = 0
    with pytest.raises(ValueError, match="antisymmetric"):
        tensor_identity(TensorField(TensorShape(2, 0, N), tuple(comps)))


# -- exterior derivative -----------------------------------------------------------------------

def test_exterior_derivative_of_exact_form_vanishes():
    f = pp("x1*x2^2 - 3*x3*x4")
    theta = TensorField(
        TensorShape(1, 0, N), tuple(f.partial_derivative(k) for k in range(1, 5))
    )
    assert exterior_derivative(theta).is_zero


def test_exterior_derivative_direct_values():
    theta = TensorField(
        TensorShape(1, 0, N),
        (pp("x2"), Polynomial.zero(N), Polynomial.zero(N), Polynomial.zero(N)),
    )
    d = exterior_derivative(theta)
    assert d.get((2, 1), ()) == pp("1")
    assert d.get((1, 2), ()) == pp("-1")
    assert sum(1 for idx in itertools.product(range(1, 5), repeat=2) if not d.get(idx, ()).is_zero) == 2


def test_exterior_derivative_is_antisymmetric():
    theta = TensorField(
        TensorShape(1, 0, N), (pp("x2*x3"), pp("x1^2 - x4"), pp("5*x1*x4"), pp("x3"))
    )
    assert is_antisymmetric(exterior_derivative(theta), 1, 2)


# -- normal tensors -----------------------------------------------------------------------------

def test_normal0_is_half_torsion(ref_conn):
    n0 = Invariants(ref_conn).normal0
    assert n0.get((1, 2), (1,)) == pp("1/2*x3")
    doubled = n0.scale(2)
    assert equal(doubled, torsion(ref_conn).tensor)


def test_normal0_vanishes_for_flat_and_symmetric(flat_conn, symmetric_conn):
    assert Invariants(flat_conn).normal0.is_zero
    assert Invariants(symmetric_conn).normal0.is_zero


def test_normal1_flat_is_zero(flat_conn):
    assert Invariants(flat_conn).normal1.is_zero


def test_normal1_symmetric_reduces_to_curvature_terms(symmetric_conn):
    n1 = Invariants(symmetric_conn).normal1
    r = curvature(symmetric_conn).tensor
    third = Fraction(-1, 6)
    for i, j, k, l in itertools.product(range(1, 5), repeat=4):
        want = (
            r.get((k, i, j), (l,)).scale(-3)
            + r.get((j, k, i), (l,))
            - r.get((i, j, k), (l,))
        ).scale(third)
        assert n1.get((i, j, k), (l,)) == want


def normal1_by_tensor_ops(conn):
    """Independent construction of the first normal tensor via index operations."""
    from natforms.tensor import permute_covariant, tensor_product

    tor = torsion(conn).tensor
    r = curvature(conn).tensor
    dtor = permute_covariant(nabla(conn, tor), (3, 1, 2))  # (DTor)_{ijk} = D_k Tor_{ij}
    term_a = permute_covariant(r, (3, 1, 2))        # R_{kij}
    term_b = permute_covariant(r, (2, 3, 1))        # R_{jki}
    term_d = permute_covariant(dtor, (3, 2, 1))     # (DTor)_{kji}
    tt = tensor_product(tor, tor)                   # T^m_{ab} T^l_{cd}
    cross = contract(tt, 3, 1)                      # sum_m T^m_{ab} T^l_{md}
    term_e = permute_covariant(cross, (3, 2, 1))    # T^m_{kj} T^l_{mi}
    term_f = contract(tt, 4, 1)                     # sum_m T^m_{ab} T^l_{cm}
    total = (
        term_a.scale(-3)
        + term_b
        - r
        - dtor.scale(2)
        - term_d.scale(2)
        + term_e
        + term_f.scale(Fraction(1, 2))
    )
    return total.scale(Fraction(-1, 6))


def test_normal1_matches_tensor_op_oracle(ref_conn, crooked_conn):
    for conn in (ref_conn, crooked_conn):
        assert equal(Invariants(conn).normal1, normal1_by_tensor_ops(conn))


def s3_symmetrization(t):
    """Sum of a (3,1) field over all six covariant slot orderings."""
    from natforms.tensor import permute_covariant

    total = None
    for perm in itertools.permutations((1, 2, 3)):
        piece = permute_covariant(t, perm)
        total = piece if total is None else total + piece
    return total


def test_normal1_full_symmetrization_vanishes(ref_conn, crooked_conn, symmetric_conn):
    for conn in (ref_conn, crooked_conn, symmetric_conn):
        assert s3_symmetrization(Invariants(conn).normal1).is_zero
