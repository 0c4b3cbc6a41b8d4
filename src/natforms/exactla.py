"""Exact rational linear algebra over flattened tensor coefficient vectors.

Every rank, kernel and span certificate reads one row echelon per matrix,
built by :func:`echelon`.  The echelon streams its matrix one row at a time
(for tensor fields straight from their polynomial terms, one row per
(component, monomial) pair) and never builds a ``Fraction`` matrix.  Each
row is cleared to a primitive integer row; zero rows and rows already seen
up to sign and scale are dropped (the rows of a component whose polynomials
are the very objects of an earlier component are known to repeat and are
only counted), a new row is reduced against the pivot rows held so far with
gcd normalisation, and reading stops once the rank equals the column count.  The pivot columns are the columns independent of
the columns before them, so they and every certificate depend only on the
matrix, not on row order or repetition: a kernel vector is the null vector
that is 1 at one free column and 0 at the others, and span coefficients
are 0 at free basis columns.

Every certificate is re-checked before it is returned, in integer
arithmetic over every row of the matrix, streamed again from its source
(a row that is the very same objects as an earlier one is multiplied
once): kernel vectors are multiplied back and span coefficients
re-substituted.  A mismatch raises ``AssertionError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

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


def _check_shapes(fields: Sequence[TensorField]) -> None:
    shape = fields[0].shape
    for f in fields[1:]:
        if f.shape != shape:
            raise ValueError(f"shape mismatch: {f.shape} vs {shape}")


def flatten(fields: Sequence[TensorField]) -> tuple[list[BasisLabel], RationalMatrix]:
    """Coefficient matrix of the fields: one column per field.

    Rows are indexed by (component, monomial) pairs over the union of the
    fields' supports, ordered component-row-major then graded-lex.
    """
    if not fields:
        raise ValueError("need at least one field")
    _check_shapes(fields)
    shape = fields[0].shape
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


# -- streamed rows -----------------------------------------------------------------

Row = Sequence[Fraction]

# A stream of matrix rows comes in pieces (count, rows): count rows of the
# matrix, of which ``rows`` lists those not streamed before; the others
# repeat rows already streamed.
Piece = tuple[int, Sequence[Row]]


def _field_rows(fields: Sequence[TensorField]) -> Iterator[Piece]:
    """The flattened rows of the fields, one per (component, monomial) pair of
    their joint support, read straight from the polynomial terms.

    One piece per component.  A component whose polynomials are the very
    objects of an earlier component (alternation stores one value at several
    orderings) has the same rows, which are counted but not streamed again.
    Entries are the fields' ``Fraction`` coefficients and ``int`` zeros.
    """
    cols = len(fields)
    # id of a component's first nonzero polynomial -> (position, row count);
    # the fields hold every polynomial, so no id is reused meanwhile
    first: dict[int, tuple[int, int]] = {}
    for pos, comps in enumerate(zip(*(f.components for f in fields))):
        lead = next((poly for poly in comps if poly.terms), None)
        if lead is None:
            continue
        earlier = first.get(id(lead))
        if earlier is not None and all(
            f.components[earlier[0]] is poly for f, poly in zip(fields, comps)
        ):
            yield earlier[1], ()
            continue
        row_of: dict[Monomial, list] = {}
        for j, poly in enumerate(comps):
            for mono, coeff in poly.terms.items():
                row = row_of.get(mono)
                if row is None:
                    row = row_of[mono] = [0] * cols
                row[j] = coeff
        first.setdefault(id(lead), (pos, len(row_of)))
        yield len(row_of), list(row_of.values())


def _block_rows(block: Sequence, columns: Sequence[int]) -> Iterator[Piece]:
    """The block's rows restricted to the given columns; rows that are zero
    there may be left out."""
    chosen = [block[c] for c in columns]
    if block and isinstance(block[0], TensorField):
        return _field_rows(chosen)
    return ((1, (row,)) for row in zip(*chosen))


def _integer_row(row: Row) -> list[int]:
    """The row times the lcm of its denominators, in integer arithmetic."""
    ratios = [v.as_integer_ratio() for v in row]
    scale = math.lcm(*[d for _, d in ratios])
    if scale == 1:
        return [n for n, _ in ratios]
    return [n * (scale // d) for n, d in ratios]


# -- one echelon per matrix -------------------------------------------------------

class Echelon:
    """Row echelon form of a matrix, with the means to stream the matrix again.

    ``pivots`` maps each pivot column to a primitive integer row whose first
    nonzero entry sits in that column.  ``rows`` counts every row of the
    matrix, zero and repeated rows included, also those not eliminated once
    the rank reached ``cols``.  ``read(columns)`` returns a fresh stream of
    the rows restricted to those columns, in pieces (see ``Piece``), leaving
    out only rows that are zero on all of them.
    """

    __slots__ = ("read", "cols", "rows", "pivots")

    def __init__(
        self,
        read: Callable[[Sequence[int]], Iterable[Piece]],
        cols: int,
        rows: int,
        pivots: dict[int, list[int]],
    ) -> None:
        self.read = read
        self.cols = cols
        self.rows = rows
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rank_of_first(self, k: int) -> int:
        """Rank of the first k columns: their pivots are this echelon's pivots below k."""
        return sum(1 for c in self.pivots if c < k)

    def pivot_rows(
        self, start: int = 0, stop: int | None = None
    ) -> tuple[list[list[int]], list[int]]:
        """The pivot rows with pivot column in [start, stop), and those columns,
        in ascending column order."""
        stop = self.cols if stop is None else stop
        cols = sorted(c for c in self.pivots if start <= c < stop)
        return [self.pivots[c] for c in cols], cols


def _reduce(pivots: dict[int, list[int]], row: list[int], lead: int) -> None:
    """Reduce a primitive row, first nonzero at ``lead``, against the pivot
    rows; keep what is left, if anything, as a new pivot row."""
    cols = len(row)
    while True:
        pivot_row = pivots.get(lead)
        if pivot_row is None:
            pivots[lead] = row
            return
        a, b = pivot_row[lead], row[lead]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        row = [a * x - b * y for x, y in zip(row, pivot_row)]
        lead = next((c for c in range(lead + 1, cols) if row[c]), None)
        if lead is None:
            return
        g = math.gcd(*row)
        if g != 1:
            row = [x // g for x in row]


def _eliminate(read: Callable[[Sequence[int]], Iterable[Piece]], cols: int) -> Echelon:
    """The one elimination behind every rank, kernel and span certificate."""
    pivots: dict[int, list[int]] = {}
    seen: set[tuple[int, ...]] = set()
    count = 0
    for rows_here, rows in read(range(cols)):
        count += rows_here
        if len(pivots) == cols:
            continue  # full column rank: the remaining rows are only counted
        for row in rows:
            ints = _integer_row(row)
            g = math.gcd(*ints)
            if not g:
                continue
            lead = next(c for c, v in enumerate(ints) if v)
            if ints[lead] < 0:
                g = -g
            if g != 1:
                ints = [v // g for v in ints]
            key = tuple(ints)
            if key in seen:
                continue
            seen.add(key)
            _reduce(pivots, ints, lead)
    return Echelon(read, cols, count, pivots)


def echelon(*blocks: Sequence[TensorField] | Sequence[Row]) -> Echelon:
    """Echelon of the matrix whose rows are the rows of each block in turn.

    A block is a list of columns: tensor fields of one shape, flattened as
    :func:`flatten` does (without building its matrix), or coefficient
    vectors of one length.  Every block has the same number of columns.
    """
    cols = len(blocks[0]) if blocks else 0
    for block in blocks:
        if len(block) != cols:
            raise ValueError(f"blocks differ in width: {len(block)} vs {cols} columns")
        if block and isinstance(block[0], TensorField):
            _check_shapes(block)
        elif any(len(v) != len(block[0]) for v in block):
            raise ValueError("ragged columns")
    return _eliminate(
        lambda columns: itertools.chain.from_iterable(
            _block_rows(block, columns) for block in blocks
        ),
        cols,
    )


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


def _check_null(ech: Echelon, vectors: Sequence[Sequence[Fraction]], what: str) -> None:
    """Multiply each vector, cleared to integers, into every row of the matrix.

    Only the columns where some vector is nonzero are read: every other
    product is exactly zero.
    """
    columns = sorted({c for vec in vectors for c, v in enumerate(vec) if v})
    supports = [
        [(i, v) for i, v in enumerate(_integer_row([vec[c] for c in columns])) if v]
        for vec in vectors
    ]
    for _, rows in ech.read(columns):
        for row in rows:
            ints = _integer_row(row)
            for support in supports:
                if sum(ints[i] * v for i, v in support):
                    raise AssertionError(f"{what} certificate failed re-multiplication")


def echelon_kernel(ech: Echelon) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : M v = 0}, one vector per free column.

    Vectors are normalized to coprime integers with positive leading entry
    and returned in ascending free-column order, after each is multiplied
    back into every row of M.
    """
    rows, pivot_cols = ech.pivot_rows()
    free_cols = [c for c in range(ech.cols) if c not in ech.pivots]
    kernel = [
        _normalize_vector(_null_vector(rows, pivot_cols, free, ech.cols))
        for free in free_cols
    ]
    # nonzero at its own free column and zero at the others: independent
    for vec, own in zip(kernel, free_cols):
        if any((vec[free] != 0) != (free == own) for free in free_cols):
            raise AssertionError("kernel certificate is not a basis")
    _check_null(ech, kernel, "kernel")
    return kernel


def echelon_members(
    ech: Echelon, k: int
) -> list[tuple[bool, tuple[Fraction, ...] | None]]:
    """Membership of each column from k on in the span of the first k columns.

    A column is a member iff no pivot row beyond the first k columns is
    nonzero at it.  Its coefficients come from back-substitution over the
    pivot rows of the first k columns, with free coefficients zero, and are
    re-substituted into every row of the matrix before they are returned.
    """
    basis_rows, basis_cols = ech.pivot_rows(stop=k)
    target_rows, _ = ech.pivot_rows(start=k)
    out: list[tuple[bool, tuple[Fraction, ...] | None]] = []
    relations = []
    for t in range(k, ech.cols):
        if any(row[t] for row in target_rows):
            out.append((False, None))
            continue
        coeffs = tuple(-v for v in _null_vector(basis_rows, basis_cols, t, ech.cols)[:k])
        out.append((True, coeffs))
        # basis * coeffs - column t must vanish on every row
        relation = [*coeffs] + [Fraction(0)] * (ech.cols - k)
        relation[t] = Fraction(-1)
        relations.append(relation)
    _check_null(ech, relations, "in_span")
    return out


def _matrix_echelon(matrix: RationalMatrix) -> Echelon:
    def read(columns: Sequence[int]) -> Iterator[Piece]:
        for r in range(matrix.rows):
            row = matrix.row(r)
            yield 1, ([row[c] for c in columns],)

    return _eliminate(read, matrix.cols)


def rank(matrix: RationalMatrix) -> int:
    """Exact rank of the matrix."""
    return _matrix_echelon(matrix).rank


def kernel_basis(matrix: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space of the matrix; see :func:`echelon_kernel`."""
    return echelon_kernel(_matrix_echelon(matrix))


def in_span(
    vector: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Exact membership of vector in span(basis), with certificate coefficients.

    The coefficients are zero at free basis columns, so the certificate is
    deterministic; see :func:`echelon_members`.
    """
    return echelon_members(echelon([*basis, vector]), len(basis))[0]


def span_equal(a: Sequence, b: Sequence) -> tuple[bool, dict]:
    """Mutual membership plus equal dimension, with certificates both ways.

    a and b are lists of columns of one kind (tensor fields of one shape or
    vectors of one length); two eliminations, of [a | b] and of [b | a].
    """
    ab = echelon([*a, *b])
    ba = echelon([*b, *a])
    rank_a = ab.rank_of_first(len(a))
    rank_b = ba.rank_of_first(len(b))
    memberships_ab = echelon_members(ba, len(b))
    memberships_ba = echelon_members(ab, len(a))
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
