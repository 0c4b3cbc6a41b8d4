"""Straightforward reference versions of optimized library loops.

Each function here evaluates its formula the direct way: the covariant
derivative and the exterior (covariant) differentials at every index
tuple, each with its own loop, and the antisymmetry test by building the
slot-swapped field and negating it.  Christoffel symbols are read through
``Connection.gamma`` only, so no table code is shared with the library's
derivative kernel.  Contraction, tensor product, slot permutation,
contraction schemes, the normal tensor N1 and the wedge/tensor products with the identity read
components one 1-based index at a time through ``TensorField.get``, so
none of them goes through the library's scatter kernel; N1 reads its
D Tor from ``covariant_derivative_loop``, not the derivative kernel.
``project_schemes_all`` is the scheme projection as ``verify schemes`` once
computed it: every scheme evaluated and antisymmetrized on its own, with no
orbit table, so it checks each value the orbit path infers by sign.
``schemes_certificate_all`` is the ``schemes`` certificate as it was once
computed: one echelon of all 144 of those values and the family, with
coefficients keyed by column, so it checks that the 20 orbit values give
the same ranks and coefficients.
``combine_terms_loop`` sums slot-permuted fields and products one
component at a time in the all-Fraction term maps below, so it shares no
code with ``combine`` or with the polynomial sums behind it.  The library
computes the same results with less work and shared kernels; the tests
require exact equality with these versions.  ``symmetrization_is_zero``
is the full S3 symmetrization as the library once computed it, a
``combine`` of all six slot orderings; it checks the library's
orbit-representative test against every ordering summed.

The exact linear algebra oracles are the earlier fraction-free (Bareiss)
elimination over the whole integer-cleared matrix, every row kept, with
their own back-substitution and normalisation: ``rank_bareiss``,
``kernel_basis_bareiss`` and ``in_span_bareiss`` share no code with the
library's streamed echelon, and ``matrix_vector`` multiplies in Fractions.
They take plain rows of ``Fraction`` or ``int`` and a column count.
``flatten_loop`` builds those rows from tensor fields, one per
(component, monomial) pair, reading every component of every field.
``eliminate_full`` is the library's streamed elimination without the
candidate kernel: it reduces every distinct row against the pivot rows,
sharing only ``_primitive`` and ``Echelon`` with the library.

The polynomial oracles ``add_terms``, ``sub_terms``, ``mul_terms``,
``scale_terms`` and ``partial_terms`` work on plain term maps with every
coefficient a ``Fraction``: no ``int`` coefficients, no shared operands and
no ``Polynomial``.  ``add_product_tuples``, ``partial_derivative_tuples``
and ``combination_tuples`` are the library's product, derivative and
combination loops as they ran on numerator maps keyed by exponent tuples,
before monomials were packed into ``int`` codes; they take and return
(numerators, denominator) pairs, in the library's insertion order, so
``tuple_view`` of a result can be compared with ``Polynomial.terms`` item by
item, order included.  ``torsion_loop`` evaluates every torsion component
through ``Connection.gamma``.
"""

import itertools
import math
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Sequence

from natforms.exactla import Echelon, Piece, _primitive, echelon, echelon_members
from natforms.generators import apply_scheme, enumerate_schemes
from natforms.geometry import (
    EndValuedForm,
    VectorValuedForm,
    curvature,
    torsion,
)
from natforms.poly import Polynomial
from natforms.tensor import (
    TensorField,
    TensorShape,
    _flat,
    antisymmetrize_pair,
    combine,
)


def ext_cov_deriv_vector_all_orderings(conn, alpha):
    """(d alpha)^l_{i0..ik} = sum_r (-1)^r [ d_{i_r} alpha^l_{..omit r..}
    + Gamma^l_{i_r m} alpha^m_{..omit r..} ], at every index tuple."""
    n, k = conn.dimension, alpha.degree
    src = alpha.tensor.components
    comps = []
    for idx in itertools.product(range(1, n + 1), repeat=k + 2):
        directions, l = idx[: k + 1], idx[k + 1]
        acc = Polynomial.zero(n)
        sign = 1
        for r in range(k + 1):
            rest = directions[:r] + directions[r + 1 :]
            base = tuple(v - 1 for v in rest)
            term = src[_flat(n, base + (l - 1,))].partial_derivative(directions[r])
            for m in range(1, n + 1):
                g = conn.gamma(l, directions[r], m)
                comp = src[_flat(n, base + (m - 1,))]
                if not comp.is_zero:
                    term = term + g * comp
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        comps.append(acc)
    return VectorValuedForm(k + 1, TensorField(TensorShape(k + 1, 1, n), tuple(comps)))


def ext_cov_deriv_endo_all_orderings(conn, beta):
    """The endomorphism-valued differential at every index tuple: +Gamma on
    the output slot, -Gamma on the endomorphism input slot."""
    n, k = conn.dimension, beta.degree
    src = beta.tensor.components
    comps = []
    for idx in itertools.product(range(1, n + 1), repeat=k + 3):
        directions, a, l = idx[: k + 1], idx[k + 1], idx[k + 2]
        acc = Polynomial.zero(n)
        sign = 1
        for r in range(k + 1):
            rest = directions[:r] + directions[r + 1 :]
            base = tuple(v - 1 for v in rest)
            term = src[_flat(n, base + (a - 1, l - 1))].partial_derivative(directions[r])
            for m in range(1, n + 1):
                g = conn.gamma(l, directions[r], m)
                comp = src[_flat(n, base + (a - 1, m - 1))]
                if not comp.is_zero:
                    term = term + g * comp
            for m in range(1, n + 1):
                g = conn.gamma(m, directions[r], a)
                comp = src[_flat(n, base + (m - 1, l - 1))]
                if not comp.is_zero:
                    term = term - g * comp
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        comps.append(acc)
    return EndValuedForm(k + 1, TensorField(TensorShape(k + 2, 1, n), tuple(comps)))


def covariant_derivative_loop(conn, field):
    """(DT)^{contra}_{k,cov} = d_k T^{contra}_{cov} - one Gamma^m_{k a} term
    per covariant slot + one Gamma^l_{k m} term per contravariant slot,
    the direction k in the first covariant slot."""
    n, p, q = field.shape.n, field.shape.p, field.shape.q
    out_shape = TensorShape(p + 1, q, n)
    comps = []
    for idx in itertools.product(range(1, n + 1), repeat=p + 1 + q):
        k, cov, contra = idx[0], idx[1 : p + 1], idx[p + 1 :]
        base = tuple(v - 1 for v in cov + contra)
        acc = field.components[_flat(n, base)].partial_derivative(k)
        for s in range(p):
            for m in range(1, n + 1):
                g = conn.gamma(m, k, cov[s])
                src = base[:s] + (m - 1,) + base[s + 1 :]
                comp = field.components[_flat(n, src)]
                if not comp.is_zero:
                    acc = acc - g * comp
        for t in range(q):
            for m in range(1, n + 1):
                g = conn.gamma(contra[t], k, m)
                src = base[: p + t] + (m - 1,) + base[p + t + 1 :]
                comp = field.components[_flat(n, src)]
                if not comp.is_zero:
                    acc = acc + g * comp
        comps.append(acc)
    return TensorField(out_shape, tuple(comps))


def exterior_derivative_loop(theta):
    """(d theta)_{ij} = d_i theta_j - d_j theta_i."""
    n = theta.shape.n
    comps = []
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        comps.append(
            theta.get((j,), ()).partial_derivative(i)
            - theta.get((i,), ()).partial_derivative(j)
        )
    return TensorField(TensorShape(2, 0, n), tuple(comps))


def swap_perm(p: int, s1: int, s2: int) -> tuple[int, ...]:
    """The permutation of 1..p that exchanges s1 and s2."""
    perm = list(range(1, p + 1))
    perm[s1 - 1], perm[s2 - 1] = perm[s2 - 1], perm[s1 - 1]
    return tuple(perm)


def is_antisymmetric_by_permutation(a, s1, s2):
    """a equals minus a with covariant slots s1 and s2 swapped."""
    swapped = permute_covariant_loop(a, swap_perm(a.shape.p, s1, s2))
    return a.components == tuple(-c for c in swapped.components)


# -- index remapping and the constructions built on it --------------------------

def contract_loop(a, cov_slot, contra_slot):
    """Sum the paired covariant/contravariant index (Einstein convention)."""
    p, q, n = a.shape.p, a.shape.q, a.shape.n
    out_shape = TensorShape(p - 1, q - 1, n)
    ci, ki = cov_slot - 1, contra_slot - 1
    comps = []
    for idx in itertools.product(range(1, n + 1), repeat=out_shape.p + out_shape.q):
        cov, contra = idx[: p - 1], idx[p - 1 :]
        acc = Polynomial.zero(n)
        for m in range(1, n + 1):
            acc = acc + a.get(cov[:ci] + (m,) + cov[ci:], contra[:ki] + (m,) + contra[ki:])
        comps.append(acc)
    return TensorField(out_shape, tuple(comps))


def tensor_product_loop(a, b):
    """Product with a's slots preceding b's in each variance class, one
    output index at a time."""
    n, pa, qa = a.shape.n, a.shape.p, a.shape.q
    shape = TensorShape(pa + b.shape.p, qa + b.shape.q, n)
    comps = []
    for idx in itertools.product(range(1, n + 1), repeat=shape.p + shape.q):
        cov, contra = idx[: shape.p], idx[shape.p :]
        comps.append(a.get(cov[:pa], contra[:qa]) * b.get(cov[pa:], contra[qa:]))
    return TensorField(shape, tuple(comps))


def permute_covariant_loop(a, perm):
    """Result slot s reads input index v[perm[s]]: with perm=(2,3,1),
    X_{ijk} = A_{jki}."""
    p, q, n = a.shape.p, a.shape.q, a.shape.n
    comps = []
    for idx in itertools.product(range(1, n + 1), repeat=p + q):
        cov, contra = idx[:p], idx[p:]
        comps.append(a.get(tuple(cov[s - 1] for s in perm), contra))
    return TensorField(a.shape, tuple(comps))


def apply_scheme_loop(scheme, field):
    """Evaluate the scheme on a field of the source type, one output index
    and one tuple of dummy indices at a time."""
    n = field.shape.n
    p, q = scheme.source.p, scheme.source.q
    pbar, qbar = scheme.target.p, scheme.target.q
    t = len(scheme.contracted_pairs)
    cov_from_target = dict(scheme.cov_assignment)       # source cov -> target cov
    contra_from_target = dict(scheme.contra_assignment)  # source contra -> target contra
    cov_from_pair = {s: idx for idx, (s, _) in enumerate(scheme.contracted_pairs)}
    contra_from_pair = {s: idx for idx, (_, s) in enumerate(scheme.contracted_pairs)}
    zero = Polynomial.zero(n)
    comps = []
    for idx in itertools.product(range(1, n + 1), repeat=pbar + qbar):
        tc, td = idx[:pbar], idx[pbar:]
        if any(tc[u - 1] != td[v - 1] for u, v in scheme.delta_fills):
            comps.append(zero)
            continue
        acc = zero
        for dummies in itertools.product(range(1, n + 1), repeat=t):
            scov = tuple(
                dummies[cov_from_pair[s]] if s in cov_from_pair else tc[cov_from_target[s] - 1]
                for s in range(1, p + 1)
            )
            scontra = tuple(
                dummies[contra_from_pair[s]]
                if s in contra_from_pair
                else td[contra_from_target[s] - 1]
                for s in range(1, q + 1)
            )
            acc = acc + field.get(scov, scontra)
        comps.append(acc)
    return TensorField(TensorShape(pbar, qbar, n), tuple(comps))


def project_schemes_all(schemes, field):
    """Each scheme's value on the source field, antisymmetrized in the
    target's first covariant pair, one scheme at a time."""
    return [antisymmetrize_pair(apply_scheme(s, field), 1, 2) for s in schemes]


def schemes_certificate_all(d):
    """The ``schemes`` certificate from every scheme's projected value: one
    echelon of all 24 (or 120) columns and the family part per shape pair,
    each coefficient keyed by its column."""
    n = d.conn.dimension
    shape31, shape42 = TensorShape(3, 1, n), TensorShape(4, 2, n)
    schemes31 = enumerate_schemes(shape31, shape31)
    schemes42 = enumerate_schemes(shape42, shape31)
    certificate = {
        "count_31_to_31": len(schemes31),
        "count_42_to_31": len(schemes42),
        "count_mismatched": len(enumerate_schemes(TensorShape(2, 1, n), shape31)),
    }
    parts = [
        ("31", "c", project_schemes_all(schemes31, d.normal1), range(1, 12)),
        (
            "42",
            "d",
            project_schemes_all(schemes42, tensor_product_loop(d.normal0, d.normal0)),
            range(12, 20),
        ),
    ]
    for shapes, part, columns, labels in parts:
        matrix = echelon(columns + [d.family.tensors[f"T{i}"] for i in labels])
        certificate[f"projected_span_rank_{shapes}"] = matrix.rank_of_first(len(columns))
        certificate[f"memberships_{part}_part"] = {
            f"T{i}": {
                "member": member,
                "coefficients": (
                    {str(k): c for k, c in enumerate(coeffs) if c != 0} if member else None
                ),
            }
            for i, (member, coeffs) in zip(labels, echelon_members(matrix, len(columns)))
        }
    return certificate


def wedge_endo_identity_loop(beta):
    """(beta ^ I)^l_{ijk} = beta^l_{ij,k} + beta^l_{jk,i} + beta^l_{ki,j}."""
    n = beta.n
    t = beta.tensor
    comps = []
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        comps.append(t.get((i, j, k), (l,)) + t.get((j, k, i), (l,)) + t.get((k, i, j), (l,)))
    return VectorValuedForm(3, TensorField(TensorShape(3, 1, n), tuple(comps)))


def wedge_oneform_identity_loop(theta):
    """(theta ^ I)^l_{ij} = theta_i delta^l_j - theta_j delta^l_i."""
    n = theta.shape.n
    zero_poly = Polynomial.zero(n)
    comps = []
    for i, j, l in itertools.product(range(1, n + 1), repeat=3):
        acc = zero_poly
        if j == l:
            acc = acc + theta.get((i,), ())
        if i == l:
            acc = acc - theta.get((j,), ())
        comps.append(acc)
    return VectorValuedForm(2, TensorField(TensorShape(2, 1, n), tuple(comps)))


def tensor_identity_loop(omega):
    """Scalar 2-form times the identity endomorphism: components w_ij delta^l_a."""
    n = omega.shape.n
    zero_poly = Polynomial.zero(n)
    comps = []
    for i, j, a, l in itertools.product(range(1, n + 1), repeat=4):
        comps.append(omega.get((i, j), ()) if a == l else zero_poly)
    return EndValuedForm(2, TensorField(TensorShape(3, 1, n), tuple(comps)))


def normal1_loop(conn):
    """N^l_{ijk} = -1/6 ( -3 R^l_{kij} + R^l_{jki} - R^l_{ijk}
                          - 2 (DTor)^l_{ijk} - 2 (DTor)^l_{kji}
                          + Tor^m_{kj} Tor^l_{mi} + 1/2 Tor^m_{ij} Tor^l_{km} ),
    one component at a time, (DTor)^l_{ijk} = D_k Tor^l_{ij} read from
    ``covariant_derivative_loop``."""
    n = conn.dimension
    tor = torsion(conn).tensor
    r = curvature(conn).tensor
    dtor = covariant_derivative_loop(conn, tor)  # D_k Tor^l_{ij} at (k, i, j; l)
    minus_sixth = Fraction(-1, 6)
    half = Fraction(1, 2)
    comps = []
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        acc = r.get((k, i, j), (l,)).scale(-3)
        acc = acc + r.get((j, k, i), (l,)) - r.get((i, j, k), (l,))
        acc = acc - dtor.get((k, i, j), (l,)).scale(2) - dtor.get((i, k, j), (l,)).scale(2)
        for m in range(1, n + 1):
            t_kj = tor.get((k, j), (m,))
            if not t_kj.is_zero:
                acc = acc + t_kj * tor.get((m, i), (l,))
            t_ij = tor.get((i, j), (m,))
            if not t_ij.is_zero:
                acc = acc + (t_ij * tor.get((k, m), (l,))).scale(half)
        comps.append(acc.scale(minus_sixth))
    return TensorField(TensorShape(3, 1, n), tuple(comps))


def combine_terms_loop(shape, terms, products=None):
    """The all-Fraction term map at every position of the sum of
    c * permute_covariant_loop(field, perm) over the (c, field, perm) terms,
    plus c * f * g for each (c, f, g) that ``products`` lists at a position,
    one component at a time."""
    permuted = [(c, permute_covariant_loop(field, perm)) for c, field, perm in terms]
    maps = []
    for pos in range(shape.size):
        acc: dict = {}
        for c, field in permuted:
            acc = add_terms(acc, scale_terms(field.components[pos].terms, c))
        for c, f, g in (products or {}).get(pos, ()):
            acc = add_terms(acc, scale_terms(mul_terms(f.terms, g.terms), c))
        maps.append(acc)
    return maps


def symmetrization_is_zero(n1):
    """Whether the sum of a (3,1) field over all six orderings of its
    covariant slots is zero."""
    symmetrization = [(1, n1, perm) for perm in itertools.permutations((1, 2, 3))]
    return combine(n1.shape, symmetrization).is_zero


# -- exact linear algebra: whole-matrix Bareiss elimination ----------------------

def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators, in integer arithmetic."""
    out: list[list[int]] = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row)) if row else 1
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def bareiss(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
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


def flatten_loop(fields: Sequence[TensorField]) -> list[list[Fraction]]:
    """The coefficient matrix of the fields, as plain rows: one column per
    field and one row per (component, monomial) pair of their joint support,
    components in storage order and monomials graded-lex within each."""
    if not fields:
        raise ValueError("need at least one field")
    shape = fields[0].shape
    for f in fields[1:]:
        if f.shape != shape:
            raise ValueError(f"shape mismatch: {f.shape} vs {shape}")
    rows: list[list[Fraction]] = []
    for pos in range(shape.size):
        # one read per component: each read of ``terms`` decodes the polynomial
        views = [f.components[pos].terms for f in fields]
        support = {m for view in views for m in view}
        for mono in sorted(support, key=lambda m: (sum(m), m)):
            rows.append([Fraction(view.get(mono, 0)) for view in views])
    return rows


def transpose(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Rows to columns or columns to rows, all of one length."""
    return [list(v) for v in zip(*vectors)]


def rank_bareiss(rows: Sequence[Sequence[Fraction]], cols: int) -> int:
    """Exact rank via fraction-free elimination."""
    _, pivot_cols = bareiss(_integer_rows(rows), cols)
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


def kernel_basis_bareiss(
    rows: Sequence[Sequence[Fraction]], cols: int
) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : M v = 0}, one vector per free column.

    Vectors are normalized to coprime integers with positive leading entry
    and returned in ascending free-column order.
    """
    echelon, pivot_cols = bareiss(_integer_rows(rows), cols)
    pivot_set = set(pivot_cols)
    return [
        _normalize_vector(_null_vector(echelon, pivot_cols, free, cols))
        for free in range(cols)
        if free not in pivot_set
    ]


def _reduce_full(pivots: dict[int, list[int]], row: list[int], lead: int) -> None:
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


def eliminate_full(pieces: Iterator[Piece], cols: int) -> Echelon:
    """The streamed elimination that reduces every distinct row against the
    pivot rows, the reference for the library's verify-then-reduce."""
    pivots: dict[int, list[int]] = {}
    seen: set[tuple[int, ...]] = set()
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
            _reduce_full(pivots, ints, next(c for c, v in enumerate(ints) if v))
    return Echelon(seen, cols, count, pivots)


def matrix_vector(
    rows: Sequence[Sequence[Fraction]], cols: int, vec: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """M vec, multiplied over vec's nonzero entries only."""
    if len(vec) != cols or any(len(row) != cols for row in rows):
        raise ValueError("length mismatch")
    support = [(c, v) for c, v in enumerate(vec) if v]
    return tuple(sum((row[c] * v for c, v in support), Fraction(0)) for row in rows)


def in_span_bareiss(
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
    echelon, pivot_cols = bareiss(rows, k + 1)
    if k in pivot_cols:
        return (False, None)
    coeffs = [-v for v in _null_vector(echelon, pivot_cols, k, k + 1)[:k]]
    support = [(basis[j], c) for j, c in enumerate(coeffs) if c]
    for r in range(length):
        recomputed = sum((c * b[r] for b, c in support), Fraction(0))
        if recomputed != vector[r]:
            raise AssertionError("in_span certificate failed re-substitution")
    return (True, tuple(coeffs))


# -- polynomial arithmetic on all-Fraction term maps ------------------------------

def fraction_terms(terms) -> dict:
    """The term map with every coefficient a Fraction and no zero term."""
    return {tuple(m): Fraction(c) for m, c in terms.items() if c}


def add_terms(a, b) -> dict:
    out = fraction_terms(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + Fraction(c)
    return fraction_terms(out)


def sub_terms(a, b) -> dict:
    return add_terms(a, {m: -Fraction(c) for m, c in b.items()})


def mul_terms(a, b) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return fraction_terms(out)


def scale_terms(a, factor) -> dict:
    return fraction_terms({m: Fraction(c) * Fraction(factor) for m, c in a.items()})


def partial_terms(a, index: int) -> dict:
    """d/dx_index, 1-based."""
    k = index - 1
    out: dict = {}
    for m, c in a.items():
        if m[k]:
            lowered = m[:k] + (m[k] - 1,) + m[k + 1 :]
            out[lowered] = out.get(lowered, Fraction(0)) + Fraction(c) * m[k]
    return fraction_terms(out)


# -- the polynomial kernels on exponent-tuple keys --------------------------------

def tuple_numerators(poly: Polynomial) -> tuple[dict, int]:
    """The polynomial's (numerators, denominator), keyed by exponent tuples."""
    den = poly.denominator
    return {mono: int(c * den) for mono, c in poly.terms.items()}, den


def tuple_view(numerators: dict, denominator: int) -> dict:
    """The coefficient view of (numerators, denominator): ``int`` when
    integral, ``Fraction`` otherwise, without the entries that cancelled."""
    view = {}
    for mono, c in numerators.items():
        if c:
            coeff = Fraction(c, denominator)
            view[mono] = coeff.numerator if coeff.denominator == 1 else coeff
    return view


def add_product_tuples(out: dict, a: dict, b: dict, factor: int) -> None:
    """Add factor * a * b into the numerator map ``out``; entries may cancel
    to 0 and are left for the caller to drop."""
    get = out.get
    for ma, ca in a.items():
        ca *= factor
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            out[mono] = get(mono, 0) + ca * cb


def partial_derivative_tuples(numerators: dict, denominator: int, index: int) -> tuple[dict, int]:
    """Formal partial derivative with respect to x_index (1-based)."""
    k = index - 1
    out = {
        mono[:k] + (mono[k] - 1,) + mono[k + 1 :]: coeff * mono[k]
        for mono, coeff in numerators.items()
        if mono[k]
    }
    return out, denominator


def combination_tuples(pairs, products=()) -> tuple[dict, int]:
    """sum c * p over the (c, p) pairs plus sum c * p * q over the (c, p, q)
    products, each p and q a (numerators, denominator) pair; entries that
    cancelled to 0 are kept."""
    den = 1
    for c, (_, p_den) in pairs:
        den = math.lcm(den, p_den)
    for c, (_, p_den), (_, q_den) in products:
        den = math.lcm(den, p_den * q_den)
    out: dict = {}
    get = out.get
    for c, (p_nums, p_den) in pairs:
        factor = c * (den // p_den)
        for mono, num in p_nums.items():
            out[mono] = get(mono, 0) + num * factor
    for c, (p_nums, p_den), (q_nums, q_den) in products:
        factor = c * (den // (p_den * q_den))
        add_product_tuples(out, p_nums, q_nums, factor)
    return out, den


# -- torsion at every index tuple -------------------------------------------------

def torsion_loop(conn) -> VectorValuedForm:
    """Tor^l_{ij} = Gamma^l_{ij} - Gamma^l_{ji} at every (i, j, l)."""
    n = conn.dimension
    comps = [
        conn.gamma(l, i, j) - conn.gamma(l, j, i)
        for i, j, l in itertools.product(range(1, n + 1), repeat=3)
    ]
    return VectorValuedForm(2, TensorField(TensorShape(2, 1, n), tuple(comps)))
