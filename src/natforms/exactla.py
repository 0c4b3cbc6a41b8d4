"""Exact rational linear algebra over tensor coefficient vectors.

Every rank, kernel and span certificate reads one row echelon per matrix,
built by :func:`echelon`, the one entry point into elimination.  Its
matrix has one column per field or vector.  For tensor fields of one shape
there is one row per (component, monomial) pair of the fields' joint
support, holding each field's coefficient of that monomial in that
component, the rows of one component scaled by one positive integer that
clears their denominators; row order is not part of the contract.  For
coefficient vectors of one length there is one row per coordinate.

The echelon streams its matrix one row at a time, straight from the
polynomial numerators or the vectors, and never builds a ``Fraction`` matrix.
Each row is cleared to a primitive integer row; zero rows and rows already
seen up to sign and scale are dropped (the rows of a component whose
polynomials are the very objects of an earlier component are known to
repeat and are only counted), a new row is reduced against the pivot rows
held so far with gcd normalisation, and reading stops once the rank equals
the column count.

Once a row has reduced to zero, and fewer columns are free than pivots are
held (``cols - rank < rank``), the null vectors of the pivot rows become a
candidate kernel, and each later new row is verified against it before it
is reduced: k dot products, for k free columns, in place of a reduction
against every pivot.  A row that every candidate vector annihilates lies
in the pivots' row space, where reduction would take it to zero, so it is
not reduced; any other row raises the rank, is reduced as before, and the
candidate is dropped until the next row that reduces to zero.  Wide
matrices of low rank, whose candidate would be wider than the rank, are
reduced row by row throughout.  A verified row is still made primitive and
kept among the distinct rows, so the echelon, its pivots and the rows the
certificates are checked against are those of full elimination.

The pivot columns are the columns independent of the columns before them,
so they and every certificate depend only on the matrix, not on row order
or repetition: a kernel vector is the primitive integer null vector that is
nonzero at its own free column and 0 at the others, and span coefficients
are 0 at free basis columns.  Back-substitution is fraction-free, so every
vector stays in integers until it is returned.

Every certificate is re-checked before it is returned, in integer
arithmetic over every distinct row of the matrix, which the echelon keeps
as it eliminates: kernel vectors are multiplied back and span coefficients
re-substituted.  Every other row is zero or a multiple of a kept one, so
this covers the whole matrix.  A mismatch raises ``AssertionError``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .tensor import TensorField, _check_shapes


# -- streamed rows -----------------------------------------------------------------

# A coefficient vector, or a row of one: exact rationals, int or Fraction.
Row = Sequence[int | Fraction]

# A stream of matrix rows comes in pieces (count, rows): count rows of the
# matrix, of which ``rows`` lists those not streamed before, each cleared to
# integers by a positive factor; the others repeat rows already streamed.
Piece = tuple[int, Sequence[list[int]]]


def _field_rows(fields: Sequence[TensorField]) -> Iterator[Piece]:
    """The rows of the fields, one per (component, monomial) pair of their
    joint support, read straight from the polynomial numerators.  A row is
    keyed by the monomial's packed code, the key of ``numerators``, which is
    only hashed and compared here, never decoded.

    One piece per component in the union of the fields' supports, in
    ascending position.  A component whose polynomials are the very
    objects of an earlier component (alternation stores one value at several
    orderings) has the same rows, which are counted but not streamed again.
    The rows of a piece are cleared to the lcm of its polynomials'
    denominators, a positive scaling that changes no rank, kernel or span,
    so every entry is an ``int``.
    """
    cols = len(fields)
    # id of a component's first nonzero polynomial -> (position, row count);
    # the fields hold every polynomial, so no id is reused meanwhile
    first: dict[int, tuple[int, int]] = {}
    for pos in sorted(set().union(*(f.support for f in fields))):
        comps = [f.components[pos] for f in fields]
        lead = next(poly for poly in comps if poly.numerators)
        earlier = first.get(id(lead))
        if earlier is not None and all(
            f.components[earlier[0]] is poly for f, poly in zip(fields, comps)
        ):
            yield earlier[1], ()
            continue
        scale = math.lcm(*[poly.denominator for poly in comps])
        row_of: dict[int, list[int]] = {}  # packed monomial -> row
        for j, poly in enumerate(comps):
            factor = scale // poly.denominator
            for mono, num in poly.numerators.items():
                row = row_of.get(mono)
                if row is None:
                    row = row_of[mono] = [0] * cols
                row[j] = num * factor
        first.setdefault(id(lead), (pos, len(row_of)))
        yield len(row_of), list(row_of.values())


def _block_rows(block: Sequence) -> Iterator[Piece]:
    """The block's rows, in pieces; rows that are zero may be left out."""
    if block and isinstance(block[0], TensorField):
        return _field_rows(block)
    return ((1, (_integer_row(row),)) for row in zip(*block))


def _integer_row(row: Row) -> list[int]:
    """The row of ``int`` and ``Fraction`` entries times the lcm of their
    denominators, as ``int`` entries; an all-``int`` row comes back as a list
    of the same values.  Coefficient-vector rows and returned span
    coefficients pass through here; field rows come out of ``_field_rows``
    as integers and need no clearing."""
    ratios = [v.as_integer_ratio() for v in row]
    scale = math.lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios]


# -- one echelon per matrix -------------------------------------------------------

class Echelon:
    """Row echelon form of a matrix, with the distinct rows it was built from.

    ``pivots`` maps each pivot column to a primitive integer row whose first
    nonzero entry sits in that column.  ``rows`` counts every row of the
    matrix, zero and repeated rows included, also those not eliminated once
    the rank reached ``cols``.  ``distinct`` holds the primitive rows, first
    nonzero entry positive, of every nonzero row read: below full column
    rank every row of the matrix is zero or a nonzero multiple of one of them.
    A row verified against a candidate kernel rather than reduced is read
    all the same, so ``pivots``, ``distinct`` and ``rows`` are those of full
    elimination.
    """

    __slots__ = ("distinct", "cols", "rows", "pivots")

    def __init__(
        self,
        distinct: set[tuple[int, ...]],
        cols: int,
        rows: int,
        pivots: dict[int, list[int]],
    ) -> None:
        self.distinct = distinct
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


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries, first nonzero entry
    positive; a zero row is returned as it is."""
    g = math.gcd(*row)
    if not g:
        return row
    if next(filter(None, row)) < 0:
        g = -g
    return row if g == 1 else [v // g for v in row]


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


def _eliminate(pieces: Iterator[Piece], cols: int) -> Echelon:
    """The one elimination behind every rank, kernel and span certificate.

    A distinct row is checked against ``candidate``, the null vectors of the
    pivot rows, when there is one: a row they all annihilate lies in the
    pivots' row space, reduces to zero and is not reduced; any other row
    raises the rank, so it is reduced and the candidate dropped.  A
    candidate is formed when a row reduces to zero while fewer columns are
    free than pivots are held.
    """
    pivots: dict[int, list[int]] = {}
    seen: set[tuple[int, ...]] = set()
    candidate: list[list[int]] | None = None
    count = 0
    for rows_here, rows in pieces:
        count += rows_here
        if len(pivots) == cols:
            continue  # full column rank: the remaining rows are only counted
        for ints in rows:
            ints = _primitive(ints)
            key = tuple(ints)
            if key in seen or not any(key):
                continue
            seen.add(key)
            if candidate is not None:
                if not any(sum(map(operator.mul, ints, vec)) for vec in candidate):
                    continue
                candidate = None
            rank = len(pivots)
            _reduce(pivots, ints, next(c for c, v in enumerate(ints) if v))
            if len(pivots) == rank and cols - rank < rank:
                candidate = _kernel(pivots, cols)[1]
    return Echelon(seen, cols, count, pivots)


def echelon(*blocks: Sequence[TensorField] | Sequence[Row]) -> Echelon:
    """Echelon of the matrix whose rows are the rows of each block in turn.

    A block is a list of columns: tensor fields of one shape, giving one row
    per (component, monomial) pair of their joint support, or coefficient
    vectors of one length, giving one row per coordinate.  Every block has
    the same number of columns.
    """
    cols = len(blocks[0]) if blocks else 0
    for block in blocks:
        if len(block) != cols:
            raise ValueError(f"blocks differ in width: {len(block)} vs {cols} columns")
        if block and isinstance(block[0], TensorField):
            _check_shapes(block[0].shape, block)
        elif any(len(v) != len(block[0]) for v in block):
            raise ValueError("ragged columns")
    return _eliminate(itertools.chain.from_iterable(map(_block_rows, blocks)), cols)


def _null_vector(
    echelon: list[list[int]], pivot_cols: list[int], free: int, cols: int
) -> list[int]:
    """An integer null vector of the echelon rows, nonzero at free column
    ``free`` and 0 at every other free column, by fraction-free
    back-substitution."""
    vec = [0] * cols
    vec[free] = 1
    for pc, row in zip(reversed(pivot_cols), reversed(echelon)):
        # row is 0 before pc and vec[pc] is still 0, so s sums the rest of row * vec
        s = sum(a * v for a, v in zip(row, vec))
        g = math.gcd(s, row[pc])
        vec = [v * (row[pc] // g) for v in vec]
        vec[pc] = -s // g
    return vec


def _kernel(pivots: dict[int, list[int]], cols: int) -> tuple[list[int], list[list[int]]]:
    """The free columns of the pivot rows and one primitive integer null
    vector per free column, nonzero there and 0 at the other free columns."""
    pivot_cols = sorted(pivots)
    rows = [pivots[c] for c in pivot_cols]
    free_cols = [c for c in range(cols) if c not in pivots]
    return free_cols, [_primitive(_null_vector(rows, pivot_cols, free, cols)) for free in free_cols]


def _check_null(ech: Echelon, vectors: Sequence[list[int]], what: str) -> None:
    """Multiply each integer vector into every distinct row of the matrix,
    which covers every row: the others are zero or multiples.

    The distinct rows miss the rows never eliminated once the rank reached
    the column count, but then there is no kernel vector and no column is a
    member, so there is no vector to check.
    """
    supports = [[(i, v) for i, v in enumerate(vec) if v] for vec in vectors]
    for ints in ech.distinct:
        for support in supports:
            if sum(ints[i] * v for i, v in support):
                raise AssertionError(f"{what} certificate failed re-multiplication")


def echelon_kernel(ech: Echelon) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : M v = 0}, one vector per free column.

    Vectors are coprime integers with positive leading entry, returned in
    ascending free-column order after each is multiplied back into every
    row of M.
    """
    free_cols, kernel = _kernel(ech.pivots, ech.cols)
    # nonzero at its own free column and zero at the others: independent
    for vec, own in zip(kernel, free_cols):
        if any((vec[free] != 0) != (free == own) for free in free_cols):
            raise AssertionError("kernel certificate is not a basis")
    _check_null(ech, kernel, "kernel")
    return [tuple(map(Fraction, vec)) for vec in kernel]


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
    for t in range(k, ech.cols):
        if any(row[t] for row in target_rows):
            out.append((False, None))
            continue
        vec = _null_vector(basis_rows, basis_cols, t, ech.cols)
        out.append((True, tuple(Fraction(-v, vec[t]) for v in vec[:k])))
    # basis * coeffs - column t must vanish on every row, for the very
    # coefficients returned
    relations = []
    for t, (member, coeffs) in enumerate(out, k):
        if member:
            relation = [*coeffs] + [0] * (ech.cols - k)
            relation[t] = -1
            relations.append(_integer_row(relation))
    _check_null(ech, relations, "in_span")
    return out


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
