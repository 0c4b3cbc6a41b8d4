"""Exact rank/kernel/membership, cross-checked against plain rational Gauss."""

import random
from fractions import Fraction

import pytest

from natforms.exactla import (
    flatten,
    in_span,
    kernel_basis,
    matrix_from_columns,
    matrix_from_rows,
    matrix_vector,
    rank,
    reconstruct,
    span_equal,
)
from natforms.geometry import reference_connection, torsion
from natforms.poly import parse
from natforms.tensor import TensorField, TensorShape, equal


def gauss_rank(rows):
    """Naive rational Gaussian elimination, used only as a test oracle."""
    rows = [[Fraction(v) for v in row] for row in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_identity():
    m = matrix_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(m) == 3


def test_rank_zero_matrix():
    m = matrix_from_rows([[0, 0], [0, 0], [0, 0]])
    assert rank(m) == 0


def test_rank_duplicate_rows_hand_elimination():
    # rows 1 and 3 equal; eliminating row2 - 2*row1 leaves rank 2
    m = matrix_from_rows([[1, 2, 3], [2, 4, 7], [1, 2, 3]])
    assert rank(m) == 2


def test_rank_transpose_invariant():
    rows = [[1, 2, 0, 5], [0, 1, 1, 1], [1, 3, 1, 6]]
    m = matrix_from_rows(rows)
    mt = matrix_from_rows([[rows[r][c] for r in range(3)] for c in range(4)])
    assert rank(m) == rank(mt) == 2


def test_rank_scaling_invariant():
    m = matrix_from_rows([[Fraction(1, 2), 2], [3, Fraction(5, 7)]])
    scaled = matrix_from_rows([[Fraction(1, 2) * 6, 2 * 6], [3, Fraction(5, 7)]])
    assert rank(m) == rank(scaled) == 2


def test_rank_column_rescaling_invariant():
    cols = [[1, 0, 2], [3, 1, 1], [4, 1, 3]]
    m = matrix_from_columns(cols)
    rescaled = matrix_from_columns(
        [[Fraction(-1, 3) * v for v in cols[0]], cols[1], [7 * v for v in cols[2]]]
    )
    assert rank(m) == rank(rescaled)


def test_rank_row_permutation_invariant():
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1], [2, 0, 5]]
    m = matrix_from_rows(rows)
    permuted = matrix_from_rows([rows[2], rows[0], rows[3], rows[1]])
    assert rank(m) == rank(permuted)


def test_kernel_invertible_is_empty():
    m = matrix_from_rows([[2, 1], [1, 1]])
    assert kernel_basis(m) == []


def test_kernel_zero_matrix_is_full():
    m = matrix_from_rows([[0, 0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 3
    for vec in basis:
        assert matrix_vector(m, vec) == (0,)


def test_kernel_known_relation():
    # columns: c0 + c1 = c2
    m = matrix_from_columns([[1, 0], [0, 1], [1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == (1, 1, -1)


def test_kernel_vectors_satisfy_matrix():
    rng = random.Random(3)
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)] for _ in range(4)]
    m = matrix_from_rows(rows)
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == 6
    for vec in basis:
        assert all(v == 0 for v in matrix_vector(m, vec))


def test_rank_matches_gauss_oracle_randomized():
    rng = random.Random(11)
    for trial in range(30):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        # force some dependence
        if nrows >= 2 and rng.random() < 0.5:
            rows[-1] = [2 * v for v in rows[0]]
        m = matrix_from_rows(rows)
        assert rank(m) == gauss_rank(rows), (trial, rows)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == ncols
        for vec in basis:
            assert all(v == 0 for v in matrix_vector(m, vec))


def test_in_span_zero_vector():
    ok, coeffs = in_span([0, 0, 0], [[1, 0, 1], [0, 1, 0]])
    assert ok and coeffs == (0, 0)


def test_in_span_basis_member():
    ok, coeffs = in_span([1, 0, 1], [[1, 0, 1], [0, 1, 0]])
    assert ok and coeffs == (1, 0)


def test_in_span_combination_certificate():
    basis = [[1, 0, 2], [0, 3, 1]]
    target = [Fraction(1), Fraction(-3, 2), Fraction(3, 2)]
    ok, coeffs = in_span(target, basis)
    assert ok
    assert coeffs == (1, Fraction(-1, 2))


def test_in_span_rejects_outside_vector():
    ok, coeffs = in_span([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
    assert not ok and coeffs is None


def test_in_span_empty_basis():
    assert in_span([0, 0], []) == (True, ())
    assert in_span([1, 0], []) == (False, None)


def test_span_equal_detects_equality_and_difference():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[1, 1, 0], [1, -1, 0]]
    ok, cert = span_equal(a, b)
    assert ok and cert["rank_a"] == cert["rank_b"] == 2
    c = [[1, 0, 0], [0, 0, 1]]
    ok2, _ = span_equal(a, c)
    assert not ok2


# -- flattening -----------------------------------------------------------------

def make_field(entries, p, q, n=4):
    import itertools

    from natforms.poly import Polynomial

    shape = TensorShape(p, q, n)
    comps = []
    table = {idx: parse(text, n) for idx, text in entries.items()}
    for idx in itertools.product(range(1, n + 1), repeat=p + q):
        comps.append(table.get((idx[:p], idx[p:]), Polynomial.zero(n)))
    return TensorField(shape, tuple(comps))


def test_flatten_zero_field_gives_zero_column():
    t = make_field({((1, 2), (1,)): "x1"}, p=2, q=1)
    z = make_field({}, p=2, q=1)
    manifest, matrix = flatten([t, z])
    assert matrix.cols == 2
    assert all(matrix.entry(r, 1) == 0 for r in range(matrix.rows))


def test_flatten_scaled_column():
    t = make_field({((1, 2), (1,)): "x1 + 2*x3", ((2, 1), (4,)): "-x2"}, p=2, q=1)
    manifest, matrix = flatten([t, t.scale(2)])
    for r in range(matrix.rows):
        assert matrix.entry(r, 1) == 2 * matrix.entry(r, 0)


def test_flatten_round_trip():
    t = make_field({((1, 2), (1,)): "x1*x4 + 2*x2^2", ((3, 3), (2,)): "-1/2*x2"}, p=2, q=1)
    manifest, matrix = flatten([t])
    back = reconstruct(manifest, matrix.column(0), t.shape)
    assert equal(back, t)


def test_flatten_shape_mismatch():
    a = make_field({}, p=2, q=1)
    b = make_field({}, p=1, q=1)
    with pytest.raises(ValueError, match="shape mismatch"):
        flatten([a, b])


def test_flatten_manifest_ordering_is_deterministic():
    tor = torsion(reference_connection()).tensor
    manifest1, m1 = flatten([tor])
    manifest2, m2 = flatten([tor])
    assert manifest1 == manifest2
    assert m1 == m2
    # component order is row-major; monomials graded-lex within a component
    assert manifest1[0][0] == ((1, 2), (1,))


def test_rank_of_torsion_and_double():
    tor = torsion(reference_connection()).tensor
    _, matrix = flatten([tor, tor.scale(2)])
    assert rank(matrix) == 1
