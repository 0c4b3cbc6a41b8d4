"""Exact rank/kernel/membership, cross-checked against plain rational Gauss
and against the whole-matrix Bareiss elimination it replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natforms import exactla
from natforms.exactla import (
    echelon,
    echelon_kernel,
    echelon_members,
    span_equal,
)
from natforms.geometry import (
    VectorValuedForm,
    ext_cov_deriv_vector,
    reference_connection,
    torsion,
)
from natforms.poly import Polynomial, parse
from natforms.tensor import TensorField, TensorShape
from natforms.verify import Derived, RandomConnectionSpec, random_connections
from reference_loops import (
    eliminate_full,
    flatten_loop,
    in_span_bareiss,
    kernel_basis_bareiss,
    matrix_vector,
    rank_bareiss,
    transpose,
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


def rows_echelon(rows, cols):
    """The echelon of the matrix with the given rows, given as its columns."""
    return echelon([[row[c] for row in rows] for c in range(cols)])


def member(target, basis):
    """Membership of one target in span(basis), read from the echelon of
    [basis | target]."""
    return echelon_members(echelon([*basis, target]), len(basis))[0]


def test_integer_row_passes_an_all_int_row_through():
    row = exactla._integer_row((3, 0, -2))
    assert row == [3, 0, -2] and all(type(v) is int for v in row)


def test_integer_row_clears_denominators_of_a_mixed_row():
    row = exactla._integer_row([1, Fraction(-1, 2), 0, Fraction(2, 3)])
    assert row == [6, -3, 0, 4] and all(type(v) is int for v in row)


def test_rank_identity():
    assert rows_echelon([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3).rank == 3


def test_rank_zero_matrix():
    assert rows_echelon([[0, 0], [0, 0], [0, 0]], 2).rank == 0


def test_rank_duplicate_rows_hand_elimination():
    # rows 1 and 3 equal; eliminating row2 - 2*row1 leaves rank 2
    assert rows_echelon([[1, 2, 3], [2, 4, 7], [1, 2, 3]], 3).rank == 2


def test_rank_transpose_invariant():
    rows = [[1, 2, 0, 5], [0, 1, 1, 1], [1, 3, 1, 6]]
    # the columns of the transpose are the rows
    assert rows_echelon(rows, 4).rank == echelon(rows).rank == 2


def test_rank_scaling_invariant():
    m = rows_echelon([[Fraction(1, 2), 2], [3, Fraction(5, 7)]], 2)
    scaled = rows_echelon([[Fraction(1, 2) * 6, 2 * 6], [3, Fraction(5, 7)]], 2)
    assert m.rank == scaled.rank == 2


def test_rank_column_rescaling_invariant():
    cols = [[1, 0, 2], [3, 1, 1], [4, 1, 3]]
    rescaled = [[Fraction(-1, 3) * v for v in cols[0]], cols[1], [7 * v for v in cols[2]]]
    assert echelon(cols).rank == echelon(rescaled).rank


def test_rank_row_permutation_invariant():
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1], [2, 0, 5]]
    permuted = [rows[2], rows[0], rows[3], rows[1]]
    assert rows_echelon(rows, 3).rank == rows_echelon(permuted, 3).rank


def test_kernel_invertible_is_empty():
    assert echelon_kernel(rows_echelon([[2, 1], [1, 1]], 2)) == []


def test_kernel_zero_matrix_is_full():
    rows = [[0, 0, 0]]
    basis = echelon_kernel(rows_echelon(rows, 3))
    assert len(basis) == 3
    for vec in basis:
        assert matrix_vector(rows, 3, vec) == (0,)


def test_kernel_known_relation():
    # columns: c0 + c1 = c2
    basis = echelon_kernel(echelon([[1, 0], [0, 1], [1, 1]]))
    assert len(basis) == 1
    assert basis[0] == (1, 1, -1)


def test_kernel_vectors_satisfy_matrix():
    rng = random.Random(3)
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)] for _ in range(4)]
    ech = rows_echelon(rows, 6)
    basis = echelon_kernel(ech)
    assert ech.rank + len(basis) == 6
    for vec in basis:
        assert all(v == 0 for v in matrix_vector(rows, 6, vec))


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
        ech = rows_echelon(rows, ncols)
        assert ech.rank == gauss_rank(rows), (trial, rows)
        basis = echelon_kernel(ech)
        assert ech.rank + len(basis) == ncols
        for vec in basis:
            assert all(v == 0 for v in matrix_vector(rows, ncols, vec))


def test_in_span_zero_vector():
    ok, coeffs = member([0, 0, 0], [[1, 0, 1], [0, 1, 0]])
    assert ok and coeffs == (0, 0)


def test_in_span_basis_member():
    ok, coeffs = member([1, 0, 1], [[1, 0, 1], [0, 1, 0]])
    assert ok and coeffs == (1, 0)


def test_in_span_combination_certificate():
    basis = [[1, 0, 2], [0, 3, 1]]
    target = [Fraction(1), Fraction(-3, 2), Fraction(3, 2)]
    ok, coeffs = member(target, basis)
    assert ok
    assert coeffs == (1, Fraction(-1, 2))


def test_in_span_rejects_outside_vector():
    ok, coeffs = member([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
    assert not ok and coeffs is None


def test_in_span_empty_basis():
    assert member([0, 0], []) == (True, ())
    assert member([1, 0], []) == (False, None)


def test_span_equal_detects_equality_and_difference():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[1, 1, 0], [1, -1, 0]]
    ok, cert = span_equal(a, b)
    assert ok and cert["rank_a"] == cert["rank_b"] == 2
    c = [[1, 0, 0], [0, 0, 1]]
    ok2, _ = span_equal(a, c)
    assert not ok2


# -- tensor-field columns ---------------------------------------------------------

def make_field(entries, p, q, n=4):
    import itertools

    from natforms.poly import Polynomial

    shape = TensorShape(p, q, n)
    comps = []
    table = {idx: parse(text, n) for idx, text in entries.items()}
    for idx in itertools.product(range(1, n + 1), repeat=p + q):
        comps.append(table.get((idx[:p], idx[p:]), Polynomial.zero(n)))
    return TensorField(shape, tuple(comps))


def kept_rows(ech):
    """The distinct primitive rows the echelon kept, in sorted order."""
    return sorted(list(row) for row in ech.distinct)


def test_flatten_zero_field_gives_zero_column():
    t = make_field({((1, 2), (1,)): "x1"}, p=2, q=1)
    z = make_field({}, p=2, q=1)
    ech = echelon([t, z])
    assert ech.cols == 2 and ech.rows == 1 and ech.rank == 1
    assert kept_rows(ech) == [[1, 0]]
    assert echelon_kernel(ech) == [(0, 1)]


def test_flatten_scaled_column():
    t = make_field({((1, 2), (1,)): "x1 + 2*x3", ((2, 1), (4,)): "-x2"}, p=2, q=1)
    ech = echelon([t, t.scale(2)])
    assert ech.rows == 3
    for row in kept_rows(ech):
        assert row[1] == 2 * row[0] != 0
    assert echelon_kernel(ech) == [(2, -1)]


def test_flatten_shape_mismatch():
    a = make_field({}, p=2, q=1)
    b = make_field({}, p=1, q=1)
    with pytest.raises(ValueError, match="shape mismatch"):
        echelon([a, b])


def test_rank_of_torsion_and_double():
    tor = torsion(reference_connection()).tensor
    assert echelon([tor, tor.scale(2)]).rank == 1


# -- the streamed echelon against the Bareiss oracles -----------------------------

def _fractions_only(value):
    """Every number in a certificate is a Fraction, as the report renders it."""
    if isinstance(value, (list, tuple)):
        return all(_fractions_only(v) for v in value)
    return value is None or isinstance(value, (bool, Fraction))


def _direction(row):
    """The row scaled to 1 at its first nonzero entry: equal for two rows
    iff each is a nonzero multiple of the other."""
    lead = next(v for v in row if v)
    return tuple(Fraction(v) / lead for v in row)


def assert_kept_rows_cover(rows, ech):
    """Every row is zero or a nonzero multiple of a kept row, and every kept
    row is a multiple of a row: the rows a certificate is multiplied into
    stand for the whole matrix."""
    assert ech.rank < ech.cols
    assert {_direction(row) for row in rows if any(row)} == set(map(_direction, ech.distinct))


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = small.filter(bool)


@st.composite
def matrices(draw):
    """The rows and column count of a product (m x r)(r x cols) of rank at
    most r, with copies of its rows up to sign and scale, zero rows, and its
    rows permuted."""
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
    return draw(st.permutations(rows)), cols


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_bareiss(matrix):
    rows, cols = matrix
    ech = rows_echelon(rows, cols)
    assert ech.rows == len(rows)
    assert ech.rank == rank_bareiss(rows, cols)
    kernel = echelon_kernel(ech)
    assert kernel == kernel_basis_bareiss(rows, cols)
    assert _fractions_only(kernel)
    if ech.rank < cols:
        assert_kept_rows_cover(rows, ech)


def test_full_column_rank_reached_early_counts_every_row():
    # the first three rows have full column rank; the rest are never eliminated
    rows = [[1, 2, 0], [0, 1, 5], [3, 0, 1]] + [[k, -k, 2 * k + 1] for k in range(40)]
    ech = rows_echelon(rows, 3)
    assert ech.rank == rank_bareiss(rows, 3) == 3
    assert ech.rows == 43
    assert echelon_kernel(ech) == kernel_basis_bareiss(rows, 3) == []


def test_kept_rows_of_zero_repeated_and_proportional_rows():
    rows = [
        [2, 4, -6, 0], [0, 0, 0, 0], [0, 1, 1, 1], [-1, -2, 3, 0], [2, 4, -6, 0],
        [Fraction(1, 3), Fraction(2, 3), -1, 0], [0, -5, -5, -5], [0, 0, 0, 0],
    ]
    ech = rows_echelon(rows, 4)
    assert ech.rows == 8 and ech.rank == 2
    assert kept_rows(ech) == [[0, 1, 1, 1], [1, 2, -3, 0]]
    assert_kept_rows_cover(rows, ech)


def test_kept_rows_of_the_paper_differentials(ref_differentials):
    # the 19 differentials have a 3-dimensional kernel, and `_field_rows`
    # skips the components that are the very objects of earlier ones
    fields = [form.tensor for form in ref_differentials]
    ech = echelon(fields)
    assert any(not rows for _, rows in exactla._field_rows(fields))
    assert ech.rank == 16
    assert_kept_rows_cover(flatten_loop(fields), ech)


def test_streamed_rows_of_the_paper_differentials(ref_differentials):
    # d-nabla's alternation stores one object at the even orderings of each
    # output's directions and its recorded negation at the odd ones, so of
    # the 408 rows of 204 components only those of 34 components, one per
    # ± class, are streamed
    fields = [form.tensor for form in ref_differentials]
    pieces = list(exactla._field_rows(fields))
    assert len(pieces) == 204
    assert sum(count for count, _ in pieces) == echelon(fields).rows == 408
    assert sum(1 for _, rows in pieces if rows) == 34
    assert sum(len(rows) for _, rows in pieces) == 68


def test_streamed_rows_of_the_paper_family(ref_family):
    # each generator evaluates its (i, j) components with i < j and stores
    # their recorded negations at (j, i), so of the 136 rows of 82
    # components only 68, of 41 components, are streamed.  A lone-term
    # pattern position shares one polynomial among several components, so
    # a partner is looked up by all of a component's polynomials: found by
    # its first alone, (4, 2, 4, 2) was streamed again
    fields = list(ref_family.tensors.values())
    pieces = list(exactla._field_rows(fields))
    assert len(pieces) == 82
    assert sum(count for count, _ in pieces) == echelon(fields).rows == 136
    assert sum(1 for _, rows in pieces if rows) == 41
    assert sum(len(rows) for _, rows in pieces) == 68


def test_streamed_rows_of_the_three_forms(ref_conn):
    # R^I and the two other wedges are summed at i < j < k and filled by
    # alternation, and dH is a differential, so each of the 8 ± classes of
    # the 48 components streams once; negating the wedges, as thm-3.5 does,
    # keeps that
    d = Derived(ref_conn)
    forms = list(d.three_forms.values())
    negated = [d.d_torsion.tensor, forms[3], *(form.scale(-1) for form in forms[:3])]
    for fields in (forms, negated):
        pieces = list(exactla._field_rows(fields))
        assert len(pieces) == 48
        assert sum(count for count, _ in pieces) == echelon(fields).rows == 72
        assert sum(1 for _, rows in pieces if rows) == 8
        assert sum(len(rows) for _, rows in pieces) == 12


def test_repeated_rows_do_not_change_the_echelon():
    rows = [[2, 4, -6], [0, 1, 1]]
    copies = rows + [[-1, -2, 3], [Fraction(1, 2), 1, Fraction(-3, 2)], [0, 0, 0], [0, -3, -3]]
    plain = rows_echelon(rows, 3)
    repeated = rows_echelon(copies, 3)
    assert repeated.pivots == plain.pivots
    assert repeated.rows == 6
    assert echelon_kernel(repeated) == kernel_basis_bareiss(rows, 3)


# -- verify-then-reduce against full elimination ----------------------------------

def assert_same_echelon(ech, reference):
    assert ech.cols == reference.cols
    assert ech.rows == reference.rows
    assert ech.pivots == reference.pivots
    assert ech.distinct == reference.distinct


def counted_reductions(monkeypatch):
    """Patch ``_reduce`` to count its calls: one per distinct row that was
    reduced rather than verified against a candidate kernel."""
    calls = []
    reduce = exactla._reduce

    def counted(pivots, row, lead):
        calls.append(lead)
        reduce(pivots, row, lead)

    monkeypatch.setattr(exactla, "_reduce", counted)
    return calls


@st.composite
def narrow_kernel_matrices(draw):
    """Tall integer matrices, in pieces of one to three rows, whose kernel is
    mostly narrower than their rank: more than cols/2 generator rows and
    integer combinations of them, with repeats, scaled copies and zero rows,
    permuted.
    Each generator is left out of a combination with probability 2/3, so
    many rows lie in the span of a few generators and reduce to zero before
    the rank stops growing."""
    cols = draw(st.integers(3, 8))
    entry = st.integers(-3, 3)
    gens = draw(
        st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=cols // 2 + 1,
            max_size=cols,
        )
    )
    rows = list(gens)
    coeff = st.sampled_from((0, 0, 1))
    for coeffs in draw(
        st.lists(st.lists(coeff, min_size=len(gens), max_size=len(gens)), max_size=16)
    ):
        rows.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(cols)])
    for _ in range(draw(st.integers(0, 4))):
        factor = draw(st.sampled_from((1, -1, 2, -3)))
        rows.append([factor * v for v in draw(st.sampled_from(rows))])
    rows += [[0] * cols for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    pieces, start = [], 0
    while start < len(rows):
        stop = start + draw(st.integers(1, 3))
        pieces.append((len(rows[start:stop]), rows[start:stop]))
        start = stop
    return pieces, cols


@settings(max_examples=100, deadline=None)
@given(narrow_kernel_matrices())
def test_verified_rows_give_the_full_elimination(matrix):
    pieces, cols = matrix
    ech = exactla._eliminate(iter(pieces), cols)
    assert_same_echelon(ech, eliminate_full(iter(pieces), cols))
    rows = [row for _, piece in pieces for row in piece]
    assert echelon_kernel(ech) == kernel_basis_bareiss(rows, cols)


def test_a_late_row_raises_the_rank_after_the_candidate_formed(monkeypatch):
    rows = [
        [1, 0, 2, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, 0, 0],  # rank 3, 2 free columns
        [1, 1, 1, 0, 0],  # reduces to zero: the candidate kernel forms
        [2, -1, 5, 0, 0],  # annihilated by the candidate: verified, not reduced
        [0, 1, 0, 3, 3],  # late row: raises the rank to 4, the candidate narrows to 1 vector
        [1, 2, 0, 0, 0],  # verified against the narrowed candidate, not reduced
        [0, 0, 1, 3, 3],  # verified, though outside the span of the first rows
    ]
    pieces = [(1, [row]) for row in rows]
    calls = counted_reductions(monkeypatch)
    ech = exactla._eliminate(iter(pieces), 5)
    assert len(calls) == 5 and len(ech.distinct) == 8
    assert ech.rank == rank_bareiss(rows, 5) == 4
    assert echelon_kernel(ech) == kernel_basis_bareiss(rows, 5) == [(0, 0, 0, 1, -1)]
    assert_same_echelon(ech, eliminate_full(iter(pieces), 5))


def test_paper_differentials_verify_rows_and_give_the_full_elimination(
    monkeypatch, ref_differentials
):
    # thm-3.2's matrix has rank 16 of 19 columns, so once the rank stops
    # growing the rows are verified against a 3-vector candidate kernel
    fields = [form.tensor for form in ref_differentials]
    calls = counted_reductions(monkeypatch)
    ech = echelon(fields)
    assert ech.rank == 16 and len(ech.distinct) == 44
    assert len(calls) < len(ech.distinct)
    assert_same_echelon(ech, eliminate_full(exactla._field_rows(fields), len(fields)))


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
    assert [member(t, basis) for t in targets] == expected
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
    rank_a = rank_bareiss(transpose(a), len(a))
    rank_b = rank_bareiss(transpose(b), len(b))
    assert cert == {"rank_a": rank_a, "rank_b": rank_b, "a_in_b": a_in_b, "b_in_a": b_in_a}
    assert ok == (rank_a == rank_b and all(m[0] for m in a_in_b + b_in_a))


def test_field_echelon_matches_flattened_matrix(ref_differentials):
    fields = [form.tensor for form in ref_differentials]
    rows = flatten_loop(fields)
    ech = echelon(fields)
    assert ech.rows == len(rows)
    assert ech.rank == rank_bareiss(rows, len(fields))
    assert echelon_kernel(ech) == kernel_basis_bareiss(rows, len(fields))


def test_repeated_polynomial_objects_count_once_but_only_when_all_repeat():
    n = 2
    shape = TensorShape(1, 0, n)
    a = parse("x1 + 2*x2", n)
    # both positions of u hold the same object, v does not: at position 0
    # v = 2u, so only position 1 raises the rank to 2 and adds a third row
    u = TensorField(shape, (a, a))
    v = TensorField(shape, (parse("2*x1 + 4*x2", n), parse("x2 + x1*x2", n)))
    zero = Polynomial.zero(n)
    for fields in ([u, v], [v, u], [u, u], [u, TensorField(shape, (zero, zero))]):
        rows = flatten_loop(fields)
        ech = echelon(fields)
        assert ech.rows == len(rows)
        assert ech.rank == rank_bareiss(rows, len(fields))
        assert echelon_kernel(ech) == kernel_basis_bareiss(rows, len(fields))
    assert echelon([u, v]).rank == 2


# -- rows repeated up to sign ------------------------------------------------------

def streamed(fields):
    """How many components stream rows, and how many rows are counted."""
    pieces = list(exactla._field_rows(fields))
    return sum(1 for _, rows in pieces if rows), sum(count for count, _ in pieces)


def without_records(field):
    """The field rebuilt from its terms: equal values, but no polynomial
    shared between components and no negation recorded."""
    n = field.shape.n
    return TensorField(field.shape, tuple(Polynomial(n, p.terms) for p in field.components))


def assert_rebuilt_fields_give_the_echelon(fields):
    rebuilt = [without_records(f) for f in fields]
    support = set().union(*(f.support for f in fields))
    assert streamed(rebuilt) == (len(support), streamed(fields)[1])
    ech = echelon(fields)
    assert_same_echelon(ech, echelon(rebuilt))
    rows = flatten_loop(fields)
    assert ech.rows == len(rows)
    assert ech.rank == rank_bareiss(rows, len(fields))
    assert echelon_kernel(ech) == kernel_basis_bareiss(rows, len(fields))


def test_recorded_negations_of_an_earlier_component_stream_once():
    n = 3
    a, b, c = parse("x1 + 1/2*x2", n), parse("x1*x2 - 3", n), parse("2*x1^2", n)
    zero = Polynomial.zero(n)
    shape = TensorShape(1, 0, n)
    # position 1 holds the negations of position 0, zero where it is zero
    u = TensorField(shape, (a, -a, zero))
    v = TensorField(shape, (zero, zero, zero))
    w = TensorField(shape, (b, -b, zero))
    assert streamed([u, v, w]) == (1, 8)
    assert_rebuilt_fields_give_the_echelon([u, v, w])
    # position 2 holds the negations of position 1, not of position 0
    u = TensorField(shape, (a, b, -b))
    v = TensorField(shape, (c, zero, zero))
    assert streamed([u, v]) == (2, 7)
    assert_rebuilt_fields_give_the_echelon([u, v])


def test_components_that_are_not_all_recorded_negations_stream():
    n = 3
    a, b = parse("x1 + 1/2*x2", n), parse("x1*x2 - 3*x3", n)
    c, d = parse("x3^2", n), parse("x2 - 1", n)
    zero = Polynomial.zero(n)
    shape = TensorShape(1, 0, n)
    unrecorded = a.scale(-1)
    assert unrecorded == -a and unrecorded._negated is None
    cases = [
        # one field negated and another identical
        [TensorField(shape, (a, -a, zero)), TensorField(shape, (b, b, zero))],
        # the negation of a different earlier component in the second field
        [TensorField(shape, (a, b, -a)), TensorField(shape, (c, d, -d))],
        # an equal-valued negation made without `-`
        [TensorField(shape, (a, unrecorded, zero))],
        # zero against an earlier nonzero
        [TensorField(shape, (a, -a, zero)), TensorField(shape, (b, zero, zero))],
    ]
    for fields in cases:
        support = set().union(*(f.support for f in fields))
        assert streamed(fields)[0] == len(support)
        assert_rebuilt_fields_give_the_echelon(fields)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 4), st.integers(1, 3))
def test_differentials_and_their_record_free_rebuilds_give_one_echelon(seed, n, width):
    # d-nabla of torsions under one connection: vector-valued 3-forms whose
    # odd orderings hold recorded negations; with two or more, d-nabla of a
    # sum adds a dependent column
    conns = random_connections(RandomConnectionSpec(seed=seed, dimension=n), width)
    forms = [torsion(conn) for conn in conns]
    if width > 1:
        forms.append(VectorValuedForm(2, forms[0].tensor + forms[1].tensor))
    fields = [ext_cov_deriv_vector(conns[0], form).tensor for form in forms]
    # one streamed component per ± class of the 3! orderings of three directions
    assert 6 * streamed(fields)[0] == len(set().union(*(f.support for f in fields)))
    assert_rebuilt_fields_give_the_echelon(fields)


def test_certificate_checks_reject_a_wrong_null_vector(wrong_null_vector):
    with pytest.raises(AssertionError, match="kernel"):
        echelon_kernel(echelon([[1, 0, 2], [2, 0, 4]]))
    with pytest.raises(AssertionError, match="in_span"):
        member([3, 0, 6], [[1, 0, 2]])


def test_certificate_checks_read_the_rows_not_only_the_pivot_rows(monkeypatch):
    # an elimination that loses every row after the first gives certificates
    # that its own pivot rows accept; the distinct rows it read refuse them
    reduce = exactla._reduce

    def lossy(pivots, row, lead):
        if not pivots:
            reduce(pivots, row, lead)

    monkeypatch.setattr(exactla, "_reduce", lossy)
    with pytest.raises(AssertionError, match="kernel"):
        echelon_kernel(rows_echelon([[1, 2, 0], [0, 1, 1]], 3))
    with pytest.raises(AssertionError, match="in_span"):
        member([1, 1, 0], [[1, 0, 0]])


def test_eliminations_on_the_paper_connection(monkeypatch, ref_conn):
    from natforms.verify import Derived, verify_schemes, verify_thm_3_2

    widths = []
    eliminate = exactla._eliminate

    def counted(pieces, cols):
        widths.append(cols)
        return eliminate(pieces, cols)

    monkeypatch.setattr(exactla, "_eliminate", counted)
    d = Derived(ref_conn)
    d.family
    assert verify_schemes(d).passed
    # the 12 and 8 nonzero orbit values of the schemes, then the family part
    assert widths == [12 + 11, 8 + 8]
    widths.clear()
    assert verify_thm_3_2(d).passed
    # the 19-column kernel once, then span_equal of [kernel | expected] and
    # [expected | kernel]
    assert widths == [19, 6, 6]


def _seeded_draws(seed):
    return random_connections(RandomConnectionSpec(seed=seed), 2)


@pytest.mark.parametrize("seed", [1, 7])
def test_int_coefficient_fields_give_fraction_certificates(seed):
    # torsion and curvature of a seeded `bianchi` draw have int coefficients
    # only; every certificate built from them is still all Fraction
    from natforms.geometry import Invariants

    first, second = (Invariants(c) for c in _seeded_draws(seed))
    for x, y in (
        (first.torsion.tensor, second.torsion.tensor),
        (first.curvature.tensor, second.curvature.tensor),
    ):
        assert all(type(c) is int for comp in x.components for c in comp.terms.values())
        combined = x + y.scale(3)
        ech = echelon([x, y, combined])
        kernel = echelon_kernel(ech)
        assert kernel == [(Fraction(1), Fraction(3), Fraction(-1))]
        assert _fractions_only(kernel)
        members = echelon_members(ech, 2)
        assert members == [(True, (Fraction(1), Fraction(3)))]
        assert _fractions_only(members)
        ok, cert = span_equal([x, y], [x + y, x - y])
        assert ok
        assert _fractions_only(cert["a_in_b"]) and _fractions_only(cert["b_in_a"])


@pytest.mark.parametrize("seed", [1, 2])
def test_family_rank_and_kernel_match_bareiss_on_seeded_connections(seed):
    # d-nabla fills the alternated orderings of a form with the very polynomial
    # objects it computed once, so `_field_rows` skips repeated components of
    # the differentials; the rows it streams must still give Bareiss's results
    from natforms.geometry import EndValuedForm, ext_cov_deriv_endo
    from natforms.verify import Derived

    conn = _seeded_draws(seed)[0]
    family = Derived(conn).family
    differentials = [
        ext_cov_deriv_endo(conn, EndValuedForm(2, t)).tensor for t in family.tensors.values()
    ]
    assert any(not rows for _, rows in exactla._field_rows(differentials))
    for fields in (list(family.tensors.values()), differentials):
        rows = flatten_loop(fields)
        ech = echelon(fields)
        assert ech.rows == len(rows)
        assert ech.rank == rank_bareiss(rows, len(fields))
        assert echelon_kernel(ech) == kernel_basis_bareiss(rows, len(fields))


def test_columns_over_different_denominators_match_bareiss(ref_conn, crooked_conn):
    # a component's rows are cleared to the lcm of its polynomials'
    # denominators: halves, thirds and sixths of one field, an integral field
    # and a mix must give Bareiss's results on the Fraction matrix
    from natforms.geometry import curvature

    t = curvature(crooked_conn).tensor
    u = curvature(ref_conn).tensor
    assert any(poly.denominator == 2 for poly in t.components)
    assert all(poly.denominator == 1 for poly in u.components)
    fields = [
        t.scale(Fraction(1, 2)),
        t.scale(Fraction(1, 3)),
        u,
        t.scale(Fraction(1, 6)),
        u.scale(2) - t.scale(Fraction(1, 3)),
        t + u,
    ]
    rows = flatten_loop(fields)
    ech = echelon(fields)
    assert ech.rows == len(rows)
    assert ech.rank == rank_bareiss(rows, len(fields)) == 2
    assert echelon_kernel(ech) == kernel_basis_bareiss(rows, len(fields))
    columns = transpose(rows)
    for k in (1, 3):
        members = echelon_members(ech, k)
        assert members == [in_span_bareiss(v, columns[:k]) for v in columns[k:]]
    assert [m[0] for m in echelon_members(ech, 1)] == [True, False, True, False, False]
