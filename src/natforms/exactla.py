"""Exact rational linear algebra over flattened tensor coefficient vectors.

Rank and kernel use fraction-free (Bareiss) elimination on integer rows
obtained by clearing denominators per row; pivots are the first nonzero
entry in column order, so every result is deterministic.  Matrices here
are thousands of rows by a few dozen columns, so exactness beats speed.

Certificate checks (kernel re-multiplication, span re-substitution) run
over every row; the only terms they skip are products with an exactly
zero coefficient, which contribute nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import Monomial, Polynomial, grlex_key
from .tensor import TensorField, TensorShape, _flat

# A flattening label: ((cov indices, contra indices), monomial), all 1-based.
BasisLabel = tuple[tuple[tuple[int, ...], tuple[int, ...]], Monomial]


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: tuple[Fraction, ...]  # row-major

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def column(self, c: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[r * self.cols + c] for r in range(self.rows))


def matrix_from_rows(rows: Sequence[Sequence[Fraction]]) -> RationalMatrix:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    flat = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged rows")
        flat.extend(Fraction(v) for v in row)
    return RationalMatrix(nrows, ncols, tuple(flat))


def matrix_from_columns(columns: Sequence[Sequence[Fraction]]) -> RationalMatrix:
    ncols = len(columns)
    nrows = len(columns[0]) if ncols else 0
    flat = []
    for r in range(nrows):
        for col in columns:
            if len(col) != nrows:
                raise ValueError("ragged columns")
            flat.append(Fraction(col[r]))
    return RationalMatrix(nrows, ncols, tuple(flat))


def flatten(fields: Sequence[TensorField]) -> tuple[list[BasisLabel], RationalMatrix]:
    """Coefficient matrix of the fields: one column per field.

    Rows are indexed by (component, monomial) pairs over the union of the
    fields' supports, ordered component-row-major then graded-lex.
    """
    if not fields:
        raise ValueError("need at least one field")
    shape = fields[0].shape
    for f in fields[1:]:
        if f.shape != shape:
            raise ValueError(f"shape mismatch: {f.shape} vs {shape}")
    support: dict[int, set[Monomial]] = {}
    for f in fields:
        for pos, poly in enumerate(f.components):
            if poly.terms:
                support.setdefault(pos, set()).update(poly.terms)
    index_tuples = list(
        itertools.product(range(1, shape.n + 1), repeat=shape.p + shape.q)
    )
    manifest: list[BasisLabel] = []
    positions: list[tuple[int, Monomial]] = []
    for pos in sorted(support):
        idx = index_tuples[pos]
        label_idx = (idx[: shape.p], idx[shape.p :])
        for mono in sorted(support[pos], key=grlex_key):
            manifest.append((label_idx, mono))
            positions.append((pos, mono))
    entries: list[Fraction] = []
    zero = Fraction(0)
    for pos, mono in positions:
        for f in fields:
            entries.append(f.components[pos].terms.get(mono, zero))
    return manifest, RationalMatrix(len(positions), len(fields), tuple(entries))


def reconstruct(
    manifest: Sequence[BasisLabel], coords: Sequence[Fraction], shape: TensorShape
) -> TensorField:
    """Inverse of flatten for a single coefficient vector."""
    if len(coords) != len(manifest):
        raise ValueError("coordinate/manifest length mismatch")
    terms: dict[int, dict[Monomial, Fraction]] = {}
    for ((cov, contra), mono), value in zip(manifest, coords):
        if value == 0:
            continue
        pos = _flat(shape.n, tuple(v - 1 for v in cov + contra))
        terms.setdefault(pos, {})[mono] = Fraction(value)
    comps = tuple(
        Polynomial(shape.n, terms.get(pos, {})) for pos in range(shape.size)
    )
    return TensorField(shape, comps)


# -- elimination ----------------------------------------------------------------

def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators, in integer arithmetic."""
    out: list[list[int]] = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row)) if row else 1
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _bareiss(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon; returns the reduced rows and pivot columns."""
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    nrows = len(rows)
    for c in range(cols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            # update every row below the pivot: exact divisibility by prev
            # relies on all entries being minors of the original matrix
            head = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            for c2 in range(c + 1, cols):
                row_i[c2] = (pivot * row_i[c2] - head * row_r[c2]) // prev
            row_i[c] = 0
        pivot_cols.append(c)
        prev = pivot
        r += 1
        if r == nrows:
            break
    return rows, pivot_cols


def rank(matrix: RationalMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    rows = _integer_rows(matrix.row(r) for r in range(matrix.rows))
    _, pivot_cols = _bareiss(rows, matrix.cols)
    return len(pivot_cols)


def _normalize_vector(vec: list[Fraction]) -> tuple[Fraction, ...]:
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 1)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def _null_vector(
    echelon: list[list[int]], pivot_cols: list[int], free: int, cols: int
) -> list[Fraction]:
    """The null vector of the echelon rows that is 1 at free column ``free``
    and 0 at every other free column, by back-substitution."""
    vec = [Fraction(0)] * cols
    vec[free] = Fraction(1)
    for i in range(len(pivot_cols) - 1, -1, -1):
        pc = pivot_cols[i]
        acc = Fraction(0)
        row = echelon[i]
        for c in range(pc + 1, cols):
            if row[c] and vec[c]:
                acc += Fraction(row[c]) * vec[c]
        vec[pc] = -acc / row[pc]
    return vec


def kernel_basis(matrix: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : M v = 0}, one vector per free column.

    Vectors are normalized to coprime integers with positive leading entry
    and returned in ascending free-column order.
    """
    rows = _integer_rows(matrix.row(r) for r in range(matrix.rows))
    echelon, pivot_cols = _bareiss(rows, matrix.cols)
    pivot_set = set(pivot_cols)
    return [
        _normalize_vector(_null_vector(echelon, pivot_cols, free, matrix.cols))
        for free in range(matrix.cols)
        if free not in pivot_set
    ]


def matrix_vector(matrix: RationalMatrix, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """M vec, multiplied over vec's nonzero entries only."""
    if len(vec) != matrix.cols:
        raise ValueError("length mismatch")
    support = [(c, v) for c, v in enumerate(vec) if v]
    entries, cols = matrix.entries, matrix.cols
    return tuple(
        sum((entries[start + c] * v for c, v in support), Fraction(0))
        for start in range(0, matrix.rows * cols, cols)
    )


def in_span(
    vector: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Exact membership of vector in span(basis), with certificate coefficients.

    Solves [basis | vector] by elimination: the coefficients are the negated
    null vector that is 1 at the vector's column, so free coefficients are
    zero and the certificate is deterministic.  The certificate is re-substituted
    before returning.
    """
    length = len(vector)
    for b in basis:
        if len(b) != length:
            raise ValueError("length mismatch between vector and basis")
    k = len(basis)
    if k == 0:
        return (all(v == 0 for v in vector), () if all(v == 0 for v in vector) else None)
    rows = _integer_rows([b[r] for b in basis] + [vector[r]] for r in range(length))
    echelon, pivot_cols = _bareiss(rows, k + 1)
    if k in pivot_cols:
        return (False, None)
    coeffs = [-v for v in _null_vector(echelon, pivot_cols, k, k + 1)[:k]]
    support = [(basis[j], c) for j, c in enumerate(coeffs) if c]
    for r in range(length):
        recomputed = sum((c * b[r] for b, c in support), Fraction(0))
        if recomputed != vector[r]:
            raise AssertionError("in_span certificate failed re-substitution")
    return (True, tuple(coeffs))


def span_equal(
    a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> tuple[bool, dict]:
    """Mutual membership plus equal dimension; returns certificates both ways."""
    memberships_ab = [in_span(v, b) for v in a]
    memberships_ba = [in_span(v, a) for v in b]
    rank_a = rank(matrix_from_columns(a)) if a else 0
    rank_b = rank(matrix_from_columns(b)) if b else 0
    ok = (
        rank_a == rank_b
        and all(m[0] for m in memberships_ab)
        and all(m[0] for m in memberships_ba)
    )
    return ok, {
        "rank_a": rank_a,
        "rank_b": rank_b,
        "a_in_b": memberships_ab,
        "b_in_a": memberships_ba,
    }
