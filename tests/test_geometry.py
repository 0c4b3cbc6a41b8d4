"""Connection calculus: hand-frozen values, independent formula oracles,
and the differential identities that pin every sign convention."""

import itertools
import random
from fractions import Fraction

import pytest

from natforms.geometry import (
    EndValuedForm,
    Invariants,
    VectorValuedForm,
    connection_from_entries,
    connection_from_json_obj,
    connection_to_json_obj,
    covariant_derivative,
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
from natforms.poly import Polynomial, parse
from natforms.tensor import (
    TensorField,
    TensorShape,
    contract,
    equal,
    is_antisymmetric,
    permute_covariant,
)
from natforms.verify import RandomConnectionSpec, random_connections
from reference_loops import (
    covariant_derivative_loop,
    ext_cov_deriv_endo_all_orderings,
    ext_cov_deriv_vector_all_orderings,
    exterior_derivative_loop,
)

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
    """Covariant derivative of a (2,1) field via the four-term formula."""
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
    for conn in (ref_conn, crooked_conn):
        r = curvature(conn).tensor
        oracle = curvature_by_formula(conn)
        for (l, i, j, k), want in oracle.items():
            assert r.get((i, j, k), (l,)) == want, (l, i, j, k)


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


# -- covariant derivative ---------------------------------------------------------------

def test_covariant_derivative_of_constant_scalar(ref_conn):
    f = TensorField(TensorShape(0, 0, N), (Polynomial.constant(N, 7),))
    assert covariant_derivative(ref_conn, f).is_zero


def test_covariant_derivative_flat_is_plain_partials(flat_conn):
    t = torsion(reference_connection()).tensor
    grad = covariant_derivative(flat_conn, t)
    for i, j, k, l in itertools.product(range(1, 5), repeat=4):
        assert grad.get((i, j, k), (l,)) == t.get((i, j), (l,)).partial_derivative(k)


def test_covariant_derivative_matches_term_oracle(ref_conn, crooked_conn):
    for conn in (ref_conn, crooked_conn):
        t = torsion(conn).tensor
        grad = covariant_derivative(conn, t)
        oracle = nabla_21_by_formula(conn, t)
        for (l, i, j, k), want in oracle.items():
            assert grad.get((i, j, k), (l,)) == want, (l, i, j, k)


def test_covariant_derivative_reference_spot_values(ref_conn):
    grad = covariant_derivative(ref_conn, torsion(ref_conn).tensor)
    assert grad.get((1, 2, 3), (1,)) == pp("1")
    assert grad.get((3, 1, 4), (3,)) == pp("x2")


# -- exterior covariant differential ------------------------------------------------------

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
    increasing = [
        pos
        for pos, idx in enumerate(itertools.product(range(n), repeat=p + 1))
        if all(a < b for a, b in zip(idx[:degree], idx[1:degree]))
    ]
    for pos in rng.sample(increasing, min(2 * n, len(increasing))):
        comps[pos] = random_poly(rng, n) + Polynomial.constant(n, 1)
    raw = TensorField(TensorShape(p, 1, n), tuple(comps))
    total = None
    for perm in itertools.permutations(range(1, degree + 1)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        piece = permute_covariant(raw, perm + tuple(range(degree + 1, p + 1)))
        piece = -piece if inversions % 2 else piece
        total = piece if total is None else total + piece
    wrap = EndValuedForm if input_slots else VectorValuedForm
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
        got = covariant_derivative(conn, field)
        assert equal(got, covariant_derivative_loop(conn, field)), (p, q)
        assert not got.is_zero
        if (p, q) == (1, 0):
            d = exterior_derivative(field)
            assert equal(d, exterior_derivative_loop(field)) and not d.is_zero


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
        assert_matches_reference(ref_conn, ref_family[label].form)


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
    dtor = covariant_derivative(conn, tor)
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
