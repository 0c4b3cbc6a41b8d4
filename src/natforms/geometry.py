"""Connection calculus for affine connections with polynomial coefficients.

Conventions, fixed once here and relied on everywhere else:

* ``gamma(l, i, j)`` is the coefficient of the l-th frame vector in the
  covariant derivative of the j-th frame vector along the i-th direction.
* ``curvature`` components R^l_{ijk} satisfy
  R^l_{ijk} = dGamma^l_{jk}/dx_i - dGamma^l_{ik}/dx_j
              + Gamma^m_{jk} Gamma^l_{im} - Gamma^m_{ik} Gamma^l_{jm},
  antisymmetric in the pair (i,j); slot k is the endomorphism input.
* ``covariant_derivative`` appends the differentiation direction as the
  LAST covariant slot: (DT)^l_{i...k} differentiates along k.
* The exterior covariant differential of a k-form is the alternating sum
  over k+1 directions of the covariant derivative of the form's value,
  with partial derivatives on the form slots (coordinate frames commute,
  so no bracket terms appear).  For degree 1 applied to the identity this
  yields exactly the torsion, and the two Bianchi identities hold
  componentwise; the test suite enforces both, which pins the convention.
* One private kernel computes every derivative here.  ``_direction_term``
  takes d_k of one component and adds -Gamma for each covariant slot and
  +Gamma for each contravariant slot it is given; ``_exterior_differential``
  sums direction terms with alternating signs, letting Gamma act on every
  slot after the form slots.  So Gamma acts on every slot in
  ``covariant_derivative``, on the vector slot in ``ext_cov_deriv_vector``,
  on the endomorphism input and output in ``ext_cov_deriv_endo``, and on
  no slot in ``exterior_derivative``.  The alternating sum is evaluated
  only at strictly increasing direction tuples, each direction term once,
  and every other ordering is filled by alternation (the input form
  alternates; its wrapper checks that), so components with a repeated
  direction are zero.  ``torsion`` and ``curvature`` keep their own
  formulas, so the Bianchi identities check the kernel, not restate it.
* ``Invariants`` is the one place where those formulas are applied to a
  connection: it computes torsion and curvature once, and from them the
  normal tensors and both structure differentials, for every caller.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .poly import ParseError, Polynomial, parse, to_string
from .tensor import (
    _MAX_DIMENSION,
    TensorField,
    TensorShape,
    _doc_indices,
    _doc_int,
    _doc_text,
    _flat,
    antisymmetrize_pair,
    contract,
    delta,
    is_antisymmetric,
    permute_covariant,
    tensor_product,
)


@dataclass(frozen=True)
class Connection:
    """An affine connection: dimension n and the n^3 Christoffel entries.

    No symmetry is imposed on the lower index pair; torsion is allowed.
    """

    dimension: int
    christoffel: tuple[Polynomial, ...]  # flat over (l, i, j), each 1..n

    def __post_init__(self) -> None:
        n = self.dimension
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if len(self.christoffel) != n**3:
            raise ValueError(f"expected {n**3} Christoffel entries, got {len(self.christoffel)}")
        for entry in self.christoffel:
            if entry.dimension != n:
                raise ValueError(
                    f"Christoffel entry has polynomial dimension {entry.dimension}, expected {n}"
                )

    def gamma(self, l: int, i: int, j: int) -> Polynomial:
        """Christoffel symbol with upper index l and lower indices (i, j), 1-based."""
        n = self.dimension
        return self.christoffel[((l - 1) * n + (i - 1)) * n + (j - 1)]


def connection_from_entries(n: int, entries: dict[tuple[int, int, int], Polynomial]) -> Connection:
    """Build a connection from a sparse {(l, i, j): polynomial} map; rest zero."""
    zero_poly = Polynomial.zero(n)
    flat = [zero_poly] * n**3
    for (l, i, j), poly in entries.items():
        if not all(1 <= v <= n for v in (l, i, j)):
            raise ValueError(f"Christoffel index ({l},{i},{j}) out of range 1..{n}")
        flat[((l - 1) * n + (i - 1)) * n + (j - 1)] = poly
    return Connection(n, tuple(flat))


def flat_connection(n: int) -> Connection:
    return connection_from_entries(n, {})


def reference_connection() -> Connection:
    """The bundled example connection on R^4 (three nonzero Christoffel entries).

    It is the default input of the verification suite; all independence
    claims checked there are established on this connection.  The same
    data ships as ``testdata/paper_connection.json``.
    """
    return connection_from_entries(
        4,
        {
            (1, 1, 2): parse("x3", 4),
            (3, 4, 3): parse("x1*x4", 4),
            (3, 3, 1): parse("x2*x4", 4),
        },
    )


# -- connection file format ----------------------------------------------------

def connection_from_json_obj(obj: dict) -> Connection:
    try:
        n = _doc_int(obj["dim"], "dim")
        raw = obj["christoffel"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed connection document: {exc}") from exc
    if not 2 <= n <= _MAX_DIMENSION:
        raise ValueError(
            f"dimension out of supported range (n >= 2 and n <= {_MAX_DIMENSION}), got {n}"
        )
    if not isinstance(raw, list):
        raise ValueError(f"christoffel must be a list, got {raw!r}")
    entries: dict[tuple[int, int, int], Polynomial] = {}
    for item in raw:
        try:
            upper = _doc_int(item["upper"], "upper")
            lower = _doc_indices(item["lower"], "lower")
            text = _doc_text(item["poly"], "poly")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed Christoffel entry {item!r}: {exc}") from exc
        if len(lower) != 2:
            raise ValueError(f"lower index list must have 2 entries, got {list(lower)}")
        key = (upper, lower[0], lower[1])
        if not all(1 <= v <= n for v in key):
            raise ValueError(f"Christoffel index {key} out of range 1..{n}")
        if key in entries:
            raise ValueError(
                f"duplicate Christoffel entry: upper={upper}, lower={list(lower)}"
            )
        try:
            entries[key] = parse(text, n)
        except ParseError as exc:
            raise ValueError(
                f"invalid polynomial for upper={upper}, lower={list(lower)}: {exc}"
            ) from exc
    return connection_from_entries(n, entries)


def connection_to_json_obj(conn: Connection) -> dict:
    n = conn.dimension
    items = []
    for l, i, j in itertools.product(range(1, n + 1), repeat=3):
        poly = conn.gamma(l, i, j)
        if not poly.is_zero:
            items.append({"upper": l, "lower": [i, j], "poly": to_string(poly)})
    items.sort(key=lambda e: (e["upper"], e["lower"]))
    return {"dim": n, "christoffel": items}


def load_connection(path: str) -> Connection:
    with open(path, "r", encoding="utf-8") as handle:
        return connection_from_json_obj(json.load(handle))


def _gamma_tables(conn: Connection):
    """Sparse views of the Christoffel symbols, keyed by direction, 0-based.

    in_table[k][a] lists (m, Gamma^m_{ka}) over nonzero entries: the terms
    feeding a covariant slot.  out_table[k][l] lists (m, Gamma^l_{km}): the
    terms feeding a contravariant slot.  Returned as (in_table, out_table).
    """
    n = conn.dimension
    in_table: list[list[list[tuple[int, Polynomial]]]] = [[[] for _ in range(n)] for _ in range(n)]
    out_table: list[list[list[tuple[int, Polynomial]]]] = [[[] for _ in range(n)] for _ in range(n)]
    for l, i, j in itertools.product(range(n), repeat=3):
        poly = conn.gamma(l + 1, i + 1, j + 1)
        if not poly.is_zero:
            in_table[i][j].append((l, poly))
            out_table[i][l].append((j, poly))
    return in_table, out_table


# -- form wrappers ---------------------------------------------------------------

def _check_form(kind: str, degree: int, tensor: TensorField, covariant: int) -> None:
    """Raise unless tensor has shape (covariant, 1) and alternates in its
    first ``degree`` slots."""
    expected = TensorShape(covariant, 1, tensor.shape.n)
    if tensor.shape != expected:
        raise ValueError(f"{kind} {degree}-form needs shape {expected}, got {tensor.shape}")
    # adjacent transpositions generate the full symmetric group
    for s in range(1, degree):
        if not is_antisymmetric(tensor, s, s + 1):
            raise ValueError(f"form slots ({s},{s + 1}) are not antisymmetric")


@dataclass(frozen=True)
class VectorValuedForm:
    """Degree-k form valued in tangent vectors: a (k,1) field, alternating."""

    degree: int
    tensor: TensorField

    def __post_init__(self) -> None:
        _check_form("vector-valued", self.degree, self.tensor, self.degree)

    @property
    def n(self) -> int:
        return self.tensor.shape.n


@dataclass(frozen=True)
class EndValuedForm:
    """Degree-k form valued in endomorphisms: a (k+1,1) field.

    Covariant slots are (form_1..form_k, endo-input); the contravariant slot
    is the endomorphism output.  Only the k form slots alternate; the input
    slot is deliberately not alternated with them.
    """

    degree: int
    tensor: TensorField

    def __post_init__(self) -> None:
        _check_form("endomorphism-valued", self.degree, self.tensor, self.degree + 1)

    @property
    def n(self) -> int:
        return self.tensor.shape.n


# -- first-order invariants ------------------------------------------------------

def torsion(conn: Connection) -> VectorValuedForm:
    """Tor^l_{ij} = Gamma^l_{ij} - Gamma^l_{ji}, a vector-valued 2-form."""
    n = conn.dimension
    comps = []
    for i, j, l in itertools.product(range(1, n + 1), repeat=3):
        comps.append(conn.gamma(l, i, j) - conn.gamma(l, j, i))
    return VectorValuedForm(2, TensorField(TensorShape(2, 1, n), tuple(comps)))


def curvature(conn: Connection) -> EndValuedForm:
    """Curvature as an endomorphism-valued 2-form; see the module docstring."""
    n = conn.dimension
    comps = []
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        acc = conn.gamma(l, j, k).partial_derivative(i) - conn.gamma(l, i, k).partial_derivative(j)
        for m in range(1, n + 1):
            g_jk = conn.gamma(m, j, k)
            if not g_jk.is_zero:
                g_im = conn.gamma(l, i, m)
                if not g_im.is_zero:
                    acc = acc + g_jk * g_im
            g_ik = conn.gamma(m, i, k)
            if not g_ik.is_zero:
                g_jm = conn.gamma(l, j, m)
                if not g_jm.is_zero:
                    acc = acc - g_ik * g_jm
        comps.append(acc)
    return EndValuedForm(2, TensorField(TensorShape(3, 1, n), tuple(comps)))


def _direction_term(tables, src, n, k, base, covariant, contravariant) -> Polynomial:
    """d_k of the component of ``src`` at ``base`` (0-based indices over all
    slots, direction k 0-based), minus Gamma^m_{k a} times the component with
    a -> m for each slot position in ``covariant``, plus Gamma^l_{k m} times
    the component with l -> m for each slot position in ``contravariant``."""
    pos = _flat(n, base)
    term = src[pos].partial_derivative(k + 1)
    for slots, table, sign in zip((covariant, contravariant), tables, (-1, 1)):
        for s in slots:
            step = n ** (len(base) - 1 - s)
            for m, g in table[k][base[s]]:
                comp = src[pos + (m - base[s]) * step]
                if not comp.is_zero:
                    term = term + g * comp if sign > 0 else term - g * comp
    return term


def covariant_derivative(conn: Connection, field: TensorField) -> TensorField:
    """Covariant derivative of a (p,q) field; direction appended as last slot.

    One -Gamma term per covariant slot, one +Gamma term per contravariant
    slot, e.g. (DTor)^l_{ijk} = Tor^l_{ij,k} - Gamma^m_{ki} Tor^l_{mj}
    - Gamma^m_{kj} Tor^l_{im} + Gamma^l_{km} Tor^m_{ij}.
    """
    if field.shape.n != conn.dimension:
        raise ValueError(
            f"dimension mismatch: field n={field.shape.n}, connection n={conn.dimension}"
        )
    n, p, q = field.shape.n, field.shape.p, field.shape.q
    tables = _gamma_tables(conn)
    covariant, contravariant = range(p), range(p, p + q)
    comps = [
        _direction_term(
            tables, field.components, n, idx[p], idx[:p] + idx[p + 1 :], covariant, contravariant
        )
        for idx in itertools.product(range(n), repeat=p + 1 + q)
    ]
    return TensorField(TensorShape(p + 1, q, n), tuple(comps))


# -- exterior differentials ---------------------------------------------------------

def _orderings(directions: tuple[int, ...]):
    """Each ordering of the distinct directions, with its permutation's sign."""
    for perm in itertools.permutations(range(len(directions))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        yield tuple(directions[p] for p in perm), -1 if inversions % 2 else 1


def _exterior_differential(tables, field: TensorField, degree: int) -> TensorField:
    """Alternating sum of direction terms of a field whose first ``degree``
    covariant slots alternate; Gamma acts on every later slot.

    (d field)_{i0..ik, v} = sum_r (-1)^r D_{i_r} field_{..omit r.., v}, where
    v runs over the slots after the form slots.  The sum is evaluated at
    strictly increasing (i0..ik) only, each term once; every other ordering
    gets the same value times the permutation's sign, and components with a
    repeated direction are zero.
    """
    n, p, q = field.shape.n, field.shape.p, field.shape.q
    cov, contra = range(degree, p), range(p, p + q)
    src = field.components
    zero = Polynomial.zero(n)
    comps = [zero] * n ** (p + 1 + q)
    block = n ** (p + q - degree)
    values = list(itertools.product(range(n), repeat=p + q - degree))
    for directions in itertools.combinations(range(n), degree + 1):
        targets = [(_flat(n, ordering) * block, sign) for ordering, sign in _orderings(directions)]
        for value in values:
            acc = zero
            for r in range(degree + 1):
                rest = directions[:r] + directions[r + 1 :] + value
                term = _direction_term(tables, src, n, directions[r], rest, cov, contra)
                acc = acc - term if r % 2 else acc + term
            if acc.is_zero:
                continue
            offset = _flat(n, value)
            negated = -acc
            for pos, sign in targets:
                comps[pos + offset] = acc if sign > 0 else negated
    return TensorField(TensorShape(p + 1, q, n), tuple(comps))


def ext_cov_deriv_vector(conn: Connection, alpha: VectorValuedForm) -> VectorValuedForm:
    """Exterior covariant differential of a vector-valued k-form (degree k+1):

    (d alpha)^l_{i0..ik} = sum_r (-1)^r [ d_{i_r} alpha^l_{..omit r..}
                                          + Gamma^l_{i_r m} alpha^m_{..omit r..} ].
    """
    if alpha.n != conn.dimension:
        raise ValueError("dimension mismatch between form and connection")
    tensor = _exterior_differential(_gamma_tables(conn), alpha.tensor, alpha.degree)
    return VectorValuedForm(alpha.degree + 1, tensor)


def ext_cov_deriv_endo(conn: Connection, beta: EndValuedForm) -> EndValuedForm:
    """Exterior covariant differential of an endomorphism-valued k-form:
    like the vector-valued case, with +Gamma on the output slot and -Gamma
    on the endomorphism input slot."""
    if beta.n != conn.dimension:
        raise ValueError("dimension mismatch between form and connection")
    tensor = _exterior_differential(_gamma_tables(conn), beta.tensor, beta.degree)
    return EndValuedForm(beta.degree + 1, tensor)


# -- wedge/tensor constructions with the identity ---------------------------------

def wedge_endo_identity(beta: EndValuedForm) -> VectorValuedForm:
    """Plug the identity into a degree-2 endomorphism-valued form:
    (beta ^ I)^l_{ijk} = beta^l_{ij,k} + beta^l_{jk,i} + beta^l_{ki,j}."""
    if beta.degree != 2:
        raise ValueError(f"wedge with identity implemented for degree 2, got {beta.degree}")
    t = beta.tensor
    cycled = permute_covariant(t, (2, 3, 1)) + permute_covariant(t, (3, 1, 2))
    return VectorValuedForm(3, t + cycled)


def wedge_oneform_identity(theta: TensorField) -> VectorValuedForm:
    """(theta ^ I)^l_{ij} = theta_i delta^l_j - theta_j delta^l_i."""
    if theta.shape.p != 1 or theta.shape.q != 0:
        raise ValueError(f"expected a 1-form, got shape {theta.shape}")
    return VectorValuedForm(2, antisymmetrize_pair(tensor_product(theta, delta(theta.n)), 1, 2))


def tensor_identity(omega: TensorField) -> EndValuedForm:
    """Scalar 2-form times the identity endomorphism: components w_ij delta^l_a."""
    if omega.shape.p != 2 or omega.shape.q != 0:
        raise ValueError(f"expected a 2-form, got shape {omega.shape}")
    if not is_antisymmetric(omega, 1, 2):
        raise ValueError("2-form must be antisymmetric")
    return EndValuedForm(2, tensor_product(omega, delta(omega.n)))


def exterior_derivative(theta: TensorField) -> TensorField:
    """d of a 1-form: (d theta)_{ij} = d_i theta_j - d_j theta_i."""
    if theta.shape.p != 1 or theta.shape.q != 0:
        raise ValueError(f"expected a 1-form, got shape {theta.shape}")
    # a 1-form has no slot after its form slot, so no Gamma table is read
    return _exterior_differential(((), ()), theta, 1)


def identity_oneform(n: int) -> VectorValuedForm:
    """The identity as a vector-valued 1-form; its differential is the torsion."""
    return VectorValuedForm(1, delta(n))


# -- everything derived from torsion and curvature --------------------------------

class Invariants:
    """Torsion, curvature, the normal tensors and both structure
    differentials of one connection.  Each is computed on first use and
    kept, so callers share one derivation and read, never modify, it.
    """

    def __init__(self, conn: Connection) -> None:
        self.conn = conn

    @cached_property
    def torsion(self) -> VectorValuedForm:
        return torsion(self.conn)

    @cached_property
    def curvature(self) -> EndValuedForm:
        return curvature(self.conn)

    @cached_property
    def normal0(self) -> TensorField:
        """Half the torsion, as a (2,1) field antisymmetric in its covariant pair."""
        return self.torsion.tensor.scale(Fraction(1, 2))

    @cached_property
    def normal1(self) -> TensorField:
        """First-order normal tensor, expressed through curvature and torsion:

        N^l_{ijk} = -1/6 ( -3 R^l_{kij} + R^l_{jki} - R^l_{ijk}
                           - 2 (DTor)^l_{ijk} - 2 (DTor)^l_{kji}
                           + Tor^m_{kj} Tor^l_{mi} + 1/2 Tor^m_{ij} Tor^l_{km} ).

        Its full symmetrization over (i,j,k) vanishes; the verification suite
        checks that identity on randomized connections.
        """
        tor = self.torsion.tensor
        r = self.curvature.tensor
        dtor = covariant_derivative(self.conn, tor)
        tor_tor = tensor_product(tor, tor)  # Tor^m_{ab} Tor^l_{cd}: cov (a,b,c,d), contra (m,l)
        total = (
            permute_covariant(r, (3, 1, 2)).scale(-3)
            + permute_covariant(r, (2, 3, 1))
            - r
            - (dtor + permute_covariant(dtor, (3, 2, 1))).scale(2)
            + permute_covariant(contract(tor_tor, 3, 1), (3, 2, 1))  # Tor^m_{kj} Tor^l_{mi}
            + contract(tor_tor, 4, 1).scale(Fraction(1, 2))  # Tor^m_{ij} Tor^l_{km}
        )
        return total.scale(Fraction(-1, 6))

    @cached_property
    def d_torsion(self) -> VectorValuedForm:
        """d Tor; the first structure identity equates it with R^I."""
        return ext_cov_deriv_vector(self.conn, self.torsion)

    @cached_property
    def d_curvature(self) -> EndValuedForm:
        """d R; the second structure identity says it vanishes."""
        return ext_cov_deriv_endo(self.conn, self.curvature)
