"""Exact rank/kernel/membership, cross-checked against plain rational Gauss
and against the whole-matrix Bareiss elimination it replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natforms import exactla
from natforms.exactla import (
    RationalMatrix,
    echelon,
    echelon_kernel,
    echelon_members,
    flatten,
    in_span,
    kernel_basis,
    matrix_from_columns,
    matrix_from_rows,
    rank,
    reconstruct,
    span_equal,
)
from natforms.geometry import reference_connection, torsion
from natforms.poly import parse
from natforms.tensor import TensorField, TensorShape, equal
from reference_loops import (
    in_span_bareiss,
    kernel_basis_bareiss,
    matrix_vector,
    rank_bareiss,
)


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


# -- the streamed echelon against the Bareiss oracles -----------------------------

def _fractions_only(value):
    """Every number in a certificate is a Fraction, as the report renders it."""
    if isinstance(value, (list, tuple)):
        return all(_fractions_only(v) for v in value)
    return value is None or isinstance(value, (bool, Fraction))


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = small.filter(bool)


@st.composite
def matrices(draw):
    """A product (m x r)(r x cols) of rank at most r, with copies of its rows up
    to sign and scale, zero rows, and its rows permuted."""
    cols = draw(st.integers(1, 6))
    inner = draw(st.integers(0, cols))
    left = draw(st.lists(st.lists(small, min_size=inner, max_size=inner), max_size=6))
    right = [draw(st.lists(small, min_size=cols, max_size=cols)) for _ in range(inner)]
    columns = [[row[c] for row in right] for c in range(cols)]
    rows = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in columns] for row in left]
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            factor = draw(nonzero)
            rows.append([factor * v for v in draw(st.sampled_from(rows))])
    rows += [[Fraction(0)] * cols for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    return RationalMatrix(len(rows), cols, tuple(v for row in rows for v in row))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_bareiss(matrix):
    assert rank(matrix) == rank_bareiss(matrix)
    kernel = kernel_basis(matrix)
    assert kernel == kernel_basis_bareiss(matrix)
    assert _fractions_only(kernel)
    assert echelon_kernel(exactla._matrix_echelon(matrix)) == kernel


def test_full_column_rank_reached_early_counts_every_row():
    # the first three rows have full column rank; the rest are never eliminated
    rows = [[1, 2, 0], [0, 1, 5], [3, 0, 1]] + [[k, -k, 2 * k + 1] for k in range(40)]
    matrix = matrix_from_rows(rows)
    ech = exactla._matrix_echelon(matrix)
    assert ech.rank == rank_bareiss(matrix) == 3
    assert ech.rows == 43
    assert kernel_basis(matrix) == kernel_basis_bareiss(matrix) == []


def test_repeated_rows_do_not_change_the_echelon():
    rows = [[2, 4, -6], [0, 1, 1]]
    copies = rows + [[-1, -2, 3], [Fraction(1, 2), 1, Fraction(-3, 2)], [0, 0, 0], [0, -3, -3]]
    plain = exactla._matrix_echelon(matrix_from_rows(rows))
    repeated = exactla._matrix_echelon(matrix_from_rows(copies))
    assert repeated.pivots == plain.pivots
    assert repeated.rows == 6
    assert kernel_basis(matrix_from_rows(copies)) == kernel_basis_bareiss(matrix_from_rows(rows))


def combine(coeffs, vectors, length):
    return [sum((c * v[r] for c, v in zip(coeffs, vectors)), Fraction(0)) for r in range(length)]


@st.composite
def span_problems(draw):
    """Basis vectors of rank at most r and several targets: combinations of the
    basis, a basis vector itself, the zero vector and arbitrary vectors."""
    length = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    inner = draw(st.integers(0, min(k, length)))
    gens = [draw(st.lists(small, min_size=length, max_size=length)) for _ in range(inner)]
    basis = [
        combine(draw(st.lists(small, min_size=inner, max_size=inner)), gens, length)
        for _ in range(k)
    ]
    targets = [draw(st.sampled_from(basis)), [Fraction(0)] * length]
    for _ in range(draw(st.integers(0, 3))):
        targets.append(combine(draw(st.lists(small, min_size=k, max_size=k)), basis, length))
    targets += draw(st.lists(st.lists(small, min_size=length, max_size=length), max_size=2))
    return basis, draw(st.permutations(targets))


@settings(max_examples=150, deadline=None)
@given(span_problems())
def test_memberships_of_many_targets_match_bareiss(problem):
    basis, targets = problem
    expected = [in_span_bareiss(t, basis) for t in targets]
    members = echelon_members(echelon([*basis, *targets]), len(basis))
    assert members == expected
    assert [in_span(t, basis) for t in targets] == expected
    assert _fractions_only(members)


def test_memberships_name_each_kind_of_target():
    basis = [[1, 0, 2], [0, 3, 1], [1, 3, 3]]
    targets = [[0, 3, 1], [0, 0, 0], [0, 0, 1], [2, -3, 3]]
    members = echelon_members(echelon([*basis, *targets]), 3)
    assert members == [in_span_bareiss(t, basis) for t in targets]
    assert [m[0] for m in members] == [True, True, False, True]
    assert members[0][1] == (0, 1, 0) and members[1][1] == (0, 0, 0)
    assert members[3][1] == (2, -1, 0)


@settings(max_examples=50, deadline=None)
@given(span_problems(), span_problems())
def test_span_equal_matches_bareiss(first, second):
    a, _ = first
    b = second[0]
    if len(a[0]) != len(b[0]):
        b = [v[: len(a[0])] + [Fraction(0)] * (len(a[0]) - len(v)) for v in b]
    ok, cert = span_equal(a, b)
    a_in_b = [in_span_bareiss(v, b) for v in a]
    b_in_a = [in_span_bareiss(v, a) for v in b]
    rank_a = rank_bareiss(matrix_from_columns(a))
    rank_b = rank_bareiss(matrix_from_columns(b))
    assert cert == {"rank_a": rank_a, "rank_b": rank_b, "a_in_b": a_in_b, "b_in_a": b_in_a}
    assert ok == (rank_a == rank_b and all(m[0] for m in a_in_b + b_in_a))


def test_field_echelon_matches_flattened_matrix(ref_differentials):
    fields = [form.tensor for form in ref_differentials]
    _, matrix = flatten(fields)
    ech = echelon(fields)
    assert ech.rows == matrix.rows
    assert ech.rank == rank_bareiss(matrix)
    assert echelon_kernel(ech) == kernel_basis_bareiss(matrix)


def test_repeated_polynomial_objects_count_once_but_only_when_all_repeat():
    from natforms.poly import Polynomial

    n = 2
    shape = TensorShape(1, 0, n)
    a = parse("x1 + 2*x2", n)
    # both positions of u hold the same object, v does not: at position 0
    # v = 2u, so only position 1 raises the rank to 2 and adds a third row
    u = TensorField(shape, (a, a))
    v = TensorField(shape, (parse("2*x1 + 4*x2", n), parse("x2 + x1*x2", n)))
    zero = Polynomial.zero(n)
    for fields in ([u, v], [v, u], [u, u], [u, TensorField(shape, (zero, zero))]):
        _, matrix = flatten(fields)
        ech = echelon(fields)
        assert ech.rows == matrix.rows
        assert ech.rank == rank_bareiss(matrix)
        assert echelon_kernel(ech) == kernel_basis_bareiss(matrix)
    assert echelon([u, v]).rank == 2


def test_certificate_checks_reject_a_wrong_null_vector(wrong_null_vector):
    matrix = matrix_from_columns([[1, 0, 2], [2, 0, 4]])
    with pytest.raises(AssertionError, match="kernel"):
        kernel_basis(matrix)
    with pytest.raises(AssertionError, match="in_span"):
        in_span([3, 0, 6], [[1, 0, 2]])


def test_eliminations_on_the_paper_connection(monkeypatch, ref_conn):
    from natforms.verify import Derived, verify_schemes, verify_thm_3_2

    widths = []
    eliminate = exactla._eliminate

    def counted(read, cols):
        widths.append(cols)
        return eliminate(read, cols)

    monkeypatch.setattr(exactla, "_eliminate", counted)
    d = Derived(ref_conn)
    d.family, d.closed_combinations
    assert verify_schemes(d).passed
    assert widths == [24 + 11, 120 + 8]
    widths.clear()
    assert verify_thm_3_2(d).passed
    # the 19-column kernel once, then span_equal of [kernel | expected] and
    # [expected | kernel]
    assert widths == [19, 6, 6]
