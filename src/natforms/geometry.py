"""Connection calculus for affine connections with polynomial coefficients.

Conventions, fixed once here and relied on everywhere else:

* ``gamma(l, i, j)`` is the coefficient of the l-th frame vector in the
  covariant derivative of the j-th frame vector along the i-th direction.
* ``curvature`` components R^l_{ijk} satisfy
  R^l_{ijk} = dGamma^l_{jk}/dx_i - dGamma^l_{ik}/dx_j
              + Gamma^m_{jk} Gamma^l_{im} - Gamma^m_{ik} Gamma^l_{jm},
  antisymmetric in the pair (i,j); slot k is the endomorphism input.
* The covariant derivative D of a field is the degree-0 differential
  below, its direction the FIRST covariant slot: (DT)^l_{k i...} is D_k T.
* The exterior covariant differential of a k-form is the alternating sum
  over k+1 directions of the covariant derivative of the form's value,
  with partial derivatives on the form slots (coordinate frames commute,
  so no bracket terms appear).  For degree 1 applied to the identity this
  yields exactly the torsion, and the two Bianchi identities hold
  componentwise; the test suite enforces both, which pins the convention.
* One private scatter, ``_differential_sums``, computes every derivative.
  Each nonzero source component at increasing form indices I (its
  alternation copies the form wrapper has checked) feeds, for each
  direction k outside I, its d_k term and one product per entry of the
  Gamma tables (-Gamma on each covariant slot after the form slots, +Gamma
  on each contravariant slot), signed by sorting k into I, into its
  output's ``poly._Sums`` map.  ``_exterior_differential`` puts each
  output at increasing directions in lowest terms, and
  ``tensor._alternating`` stores it at every even ordering and its one
  negation at every odd one, so antisymmetry checks answer by identity.
  Gamma acts on every slot in degree 0 (D), on the vector slot in
  ``ext_cov_deriv_vector``, on the endomorphism slots in
  ``ext_cov_deriv_endo`` and on none in ``exterior_derivative``.
  ``torsion`` and ``curvature`` keep their own formulas, so the Bianchi
  identities check the kernel; the sympy oracle checks the Gamma tables.
* ``Invariants`` computes a connection's torsion and curvature once, and
  from them the normal tensors and both structure differentials.  N1 is
  summed into ``_Sums`` maps like curvature, not built by a scatter call:
  R at three landings, the D Tor sums at increasing Tor pairs at four and
  the (Tor, Tor) products, over 12 times one common denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .poly import ParseError, Polynomial, _Sums, _add_scaled, parse, to_string
from .tensor import (
    _MAX_DIMENSION,
    TensorField,
    TensorShape,
    _alternating,
    _doc_indices,
    _doc_int,
    _doc_json,
    _doc_object,
    _doc_text,
    _flat,
    _scatter,
    delta,
    is_antisymmetric,
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

    @cached_property
    def _gamma_tables(self):
        """(lower, covariant, den): the nonzero Christoffel symbols by
        direction k, 0-based, built once.  lower[k][a] lists (m, Gamma^m_{ka}),
        read by curvature and by a contravariant slot holding a;
        covariant[k][m] lists (a, Gamma^m_{ka}), read by a covariant slot
        holding m.  den is the lcm of the symbols' denominators.
        """
        n = self.dimension
        lower, covariant = ([[[] for _ in range(n)] for _ in range(n)] for _ in range(2))
        for l, i, j in itertools.product(range(n), repeat=3):
            poly = self.gamma(l + 1, i + 1, j + 1)
            if not poly.is_zero:
                lower[i][j].append((l, poly))
                covariant[i][l].append((j, poly))
        return lower, covariant, math.lcm(*[poly.denominator for poly in self.christoffel])


def connection_from_entries(n: int, entries: dict[tuple[int, int, int], Polynomial]) -> Connection:
    """Build a connection from a sparse {(l, i, j): polynomial} map; rest zero."""
    zero_poly = Polynomial.zero(n)
    flat = [zero_poly] * n**3
    for (l, i, j), poly in entries.items():
        if not all(1 <= v <= n for v in (l, i, j)):
            raise ValueError(f"Christoffel index ({l},{i},{j}) out of range 1..{n}")
        flat[((l - 1) * n + (i - 1)) * n + (j - 1)] = poly
    return Connection(n, tuple(flat))


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
    _doc_object(obj, "connection document", ("dim", "christoffel"))
    n = _doc_int(obj["dim"], "dim")
    raw = obj["christoffel"]
    if not 2 <= n <= _MAX_DIMENSION:
        raise ValueError(
            f"dimension out of supported range (n >= 2 and n <= {_MAX_DIMENSION}), got {n}"
        )
    if not isinstance(raw, list):
        raise ValueError(f"christoffel must be a list, got {raw!r}")
    entries: dict[tuple[int, int, int], Polynomial] = {}
    for item in raw:
        _doc_object(item, "Christoffel entry", ("upper", "lower", "poly"))
        upper = _doc_int(item["upper"], "upper")
        lower = _doc_indices(item["lower"], "lower")
        text = _doc_text(item["poly"], "poly")
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
    return {"dim": n, "christoffel": items}


def connection_loads(text: str) -> Connection:
    return connection_from_json_obj(_doc_json(text, "connection document"))


def load_connection(path: str) -> Connection:
    with open(path, "r", encoding="utf-8") as handle:
        return connection_loads(handle.read())


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
    """Tor^l_{ij} = Gamma^l_{ij} - Gamma^l_{ji}, a vector-valued 2-form.

    Only i < j is computed; the (j, i) partner holds the negation of that
    one value and i = j stays zero, as in :func:`curvature`.
    """
    n = conn.dimension
    gamma = conn.christoffel  # Gamma^l_{ij} at ((l * n) + i) * n + j, 0-based
    values = [
        ((i * n + j) * n + l, gamma[(l * n + i) * n + j] - gamma[(l * n + j) * n + i])
        for i, j in itertools.combinations(range(n), 2)
        for l in range(n)
    ]
    return VectorValuedForm(2, _alternating(TensorShape(2, 1, n), 2, values))


def curvature(conn: Connection) -> EndValuedForm:
    """Curvature as an endomorphism-valued 2-form; see the module docstring.

    Only i < j is summed, over the nonzero Christoffel symbols, into maps
    over the square of Gamma's denominator; (j, i) holds the recorded
    negation and i = j stays zero.
    """
    n = conn.dimension
    lower, _, gamma_den = conn._gamma_tables  # lower[j][k] lists (m, Gamma^m_{jk})
    den = gamma_den * gamma_den
    sums = _Sums(n)
    for i, j in itertools.combinations(range(n), 2):
        for k in range(n):
            head = ((i * n + j) * n + k) * n  # + l
            for l, g in lower[j][k]:
                sums.add_partial(head + l, g, i + 1, den // g.denominator)
            for l, g in lower[i][k]:
                sums.add_partial(head + l, g, j + 1, -(den // g.denominator))
            for m, g_jk in lower[j][k]:
                for l, g_im in lower[i][m]:
                    factor = den // (g_jk.denominator * g_im.denominator)
                    sums.add_product(head + l, g_jk, g_im, factor)
            for m, g_ik in lower[i][k]:
                for l, g_jm in lower[j][m]:
                    factor = den // (g_ik.denominator * g_jm.denominator)
                    sums.add_product(head + l, g_ik, g_jm, -factor)
    tensor = _alternating(TensorShape(3, 1, n), 2, sums.polynomials(den))
    return EndValuedForm(2, tensor)


# -- exterior differentials ---------------------------------------------------------

@lru_cache(maxsize=64)
def _insertions(n: int, degree: int, block: int) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """For each increasing tuple of ``degree`` form indices, keyed by its
    flat position: (k, (-1)^r, base) for every direction k outside it, r the
    place where k sorts in and base the flat position of the directions so
    sorted times ``block``, the flat size of the value slots."""
    insertions = {}
    for rest in itertools.combinations(range(n), degree):
        heads = []
        for k in range(n):
            if k not in rest:
                r = sum(1 for v in rest if v < k)
                heads.append((k, (-1) ** r, _flat(n, rest[:r] + (k,) + rest[r:]) * block))
        insertions[_flat(n, rest)] = tuple(heads)
    return insertions


def _differential_sums(tables, field: TensorField, degree: int, pair=None) -> tuple[_Sums, int]:
    """Alternating sum of covariant derivatives of a field whose first
    ``degree`` covariant slots alternate; Gamma acts on every later slot:

    (d field)_{i0..ik, v} = sum_r (-1)^r D_{i_r} field_{..omit r.., v}, where
    D_k is d_k minus Gamma^m_{k a} on each covariant slot a and plus
    Gamma^l_{k m} on each contravariant slot l of v.

    Returns (sums, den), the scatter of the module docstring over den.
    ``pair``, two output covariant slots (1-based) of a degree-0 differential
    whose source alternates in them, sums only where their indices increase.
    """
    n, p, q = field.shape.n, field.shape.p, field.shape.q
    lower, covariant, gamma_den = tables
    block = n ** (p + q - degree)
    # (stride, table, sign) for each slot Gamma acts on
    acted = [(n ** (p + q - 1 - s), covariant, -1) for s in range(degree, p)]
    acted += [(n ** (p + q - 1 - s), lower, 1) for s in range(p, p + q)]
    insertions = _insertions(n, degree, block)
    if pair is not None:
        st1, st2 = [n ** (p + q + 1 - s) for s in pair]
    src = field.components
    read = [pos for pos in field.support if pos // block in insertions]
    # each term's denominator divides src_den * gamma_den, the one
    # denominator every output is summed over
    src_den = math.lcm(*[src[pos].denominator for pos in read])
    sums = _Sums(n)
    for pos in read:
        comp, offset = src[pos], pos % block
        scale = src_den // comp.denominator
        for k, sign, base in insertions[pos // block]:
            target = base + offset
            if pair is None or target // st1 % n < target // st2 % n:
                sums.add_partial(target, comp, k + 1, sign * scale * gamma_den)
            for stride, table, gamma_sign in acted:
                m = offset // stride % n
                for a, g in table[k][m]:
                    out = target + (a - m) * stride
                    if pair is None or out // st1 % n < out // st2 % n:
                        factor = sign * gamma_sign * scale * (gamma_den // g.denominator)
                        sums.add_product(out, g, comp, factor)
    return sums, src_den * gamma_den


def _exterior_differential(tables, field: TensorField, degree: int) -> TensorField:
    """The differential of ``_differential_sums``, each sum in lowest terms."""
    sums, den = _differential_sums(tables, field, degree)
    shape = TensorShape(field.shape.p + 1, field.shape.q, field.shape.n)
    return _alternating(shape, degree + 1, sums.polynomials(den))


def ext_cov_deriv_vector(conn: Connection, alpha: VectorValuedForm) -> VectorValuedForm:
    """Exterior covariant differential of a vector-valued k-form (degree k+1):

    (d alpha)^l_{i0..ik} = sum_r (-1)^r [ d_{i_r} alpha^l_{..omit r..}
                                          + Gamma^l_{i_r m} alpha^m_{..omit r..} ].
    """
    if alpha.n != conn.dimension:
        raise ValueError("dimension mismatch between form and connection")
    tensor = _exterior_differential(conn._gamma_tables, alpha.tensor, alpha.degree)
    return VectorValuedForm(alpha.degree + 1, tensor)


def ext_cov_deriv_endo(conn: Connection, beta: EndValuedForm) -> EndValuedForm:
    """Exterior covariant differential of an endomorphism-valued k-form:
    like the vector-valued case, with +Gamma on the output slot and -Gamma
    on the endomorphism input slot."""
    if beta.n != conn.dimension:
        raise ValueError("dimension mismatch between form and connection")
    tensor = _exterior_differential(conn._gamma_tables, beta.tensor, beta.degree)
    return EndValuedForm(beta.degree + 1, tensor)


# -- wedge/tensor constructions with the identity ---------------------------------

def wedge_endo_identity(beta: EndValuedForm) -> VectorValuedForm:
    """Plug the identity into a degree-2 endomorphism-valued form:
    (beta ^ I)^l_{ijk} = beta^l_{ij,k} + beta^l_{jk,i} + beta^l_{ki,j}."""
    if beta.degree != 2:
        raise ValueError(f"wedge with identity implemented for degree 2, got {beta.degree}")
    t = beta.tensor
    cyclic = [(1, t, (0, 1, 2, 3), ()), (1, t, (1, 2, 0, 3), ()), (1, t, (2, 0, 1, 3), ())]
    # beta alternates in (i, j), so the sum alternates in (i, j, k): it is
    # summed at i < j < k only, every other ordering filled from there
    return VectorValuedForm(3, _scatter(t.shape, cyclic, lower=3))


def wedge_oneform_identity(theta: TensorField) -> VectorValuedForm:
    """(theta ^ I)^l_{ij} = theta_i delta^l_j - theta_j delta^l_i."""
    if theta.shape.p != 1 or theta.shape.q != 0:
        raise ValueError(f"expected a 1-form, got shape {theta.shape}")
    # two delta fills, tying l to j and to i, summed at i < j only
    terms = [(1, theta, (0,), ((1, 2),)), (-1, theta, (1,), ((0, 2),))]
    return VectorValuedForm(2, _scatter(TensorShape(2, 1, theta.n), terms, lower=2))


def tensor_identity(omega: TensorField) -> EndValuedForm:
    """Scalar 2-form times the identity endomorphism: components w_ij delta^l_a."""
    if omega.shape.p != 2 or omega.shape.q != 0:
        raise ValueError(f"expected a 2-form, got shape {omega.shape}")
    # a delta fill ties l to a; EndValuedForm checks slots (1,2), which
    # alternate iff omega's do
    return EndValuedForm(2, _scatter(TensorShape(3, 1, omega.n), [(1, omega, (0, 1), ((2, 3),))]))


def exterior_derivative(theta: TensorField) -> TensorField:
    """d of a 1-form: (d theta)_{ij} = d_i theta_j - d_j theta_i."""
    if theta.shape.p != 1 or theta.shape.q != 0:
        raise ValueError(f"expected a 1-form, got shape {theta.shape}")
    # a 1-form has no slot after its form slot, so no Gamma table is read
    return _exterior_differential(((), (), 1), theta, 1)


def identity_oneform(n: int) -> VectorValuedForm:
    """The identity as a vector-valued 1-form; its differential is the torsion."""
    return VectorValuedForm(1, delta(n))


# -- everything derived from torsion and curvature --------------------------------

class Invariants:
    """Torsion, curvature, the normal tensors, both structure differentials
    and the differential of the identity of one connection.  Each is
    computed on first use and kept, so callers share one derivation and
    read, never modify, it.
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

        N^l_{ijk} = 1/12 ( 6 R^l_{kij} - 2 R^l_{jki} + 2 R^l_{ijk}
                           + 4 D_k Tor^l_{ij} + 4 D_i Tor^l_{kj}
                           - 2 Tor^m_{kj} Tor^l_{mi} - Tor^m_{ij} Tor^l_{km} ),

        whose full symmetrization over (i,j,k) vanishes; the verification
        suite checks that identity on randomized connections.
        """
        n, tor, r = self.conn.dimension, self.torsion.tensor, self.curvature.tensor
        # D_k Tor^l_{ij} at (k, i, j, l), i < j
        dtor, dtor_den = _differential_sums(self.conn._gamma_tables, tor, 0, pair=(2, 3))
        tors, curvs = tor.components, r.components
        den = math.lcm(
            dtor_den,
            *[curvs[pos].denominator for pos in r.support],
            *[tors[pos].denominator ** 2 for pos in tor.support],
        )
        sums = _Sums(n)
        s2, s1 = n * n, n**3  # N^l_{ijk} is at i*s1 + j*s2 + k*n + l
        for pos in r.support:  # R^l_{abc}
            a, b, c, l = pos // s1, pos // s2 % n, pos // n % n, pos % n
            nums, scale = curvs[pos].numerators, den // curvs[pos].denominator
            _add_scaled(sums[b * s1 + c * s2 + a * n + l], nums, 6 * scale)
            _add_scaled(sums[c * s1 + a * s2 + b * n + l], nums, -2 * scale)
            _add_scaled(sums[pos], nums, 2 * scale)
        factor = 4 * (den // dtor_den)
        for pos, nums in dtor.items():  # D_k Tor^l_{ij}, i < j
            k, i, j, l = pos // s1, pos // s2 % n, pos // n % n, pos % n
            _add_scaled(sums[i * s1 + j * s2 + k * n + l], nums, factor)
            _add_scaled(sums[j * s1 + i * s2 + k * n + l], nums, -factor)
            _add_scaled(sums[k * s1 + j * s2 + i * n + l], nums, factor)
            _add_scaled(sums[k * s1 + i * s2 + j * n + l], nums, -factor)
        by_first = [[] for _ in range(n)]  # m -> (x, l, Tor^l_{mx}) = (x, l, -Tor^l_{xm})
        for pos in tor.support:
            by_first[pos // s2].append((pos // n % n, pos % n, tors[pos]))
        for pos in tor.support:  # Tor^m_{ab}
            a, b, m, t = pos // s2, pos // n % n, pos % n, tors[pos]
            for x, l, u in by_first[m]:
                factor = den // (t.denominator * u.denominator)
                # -2 Tor^m_{kj} Tor^l_{mi} and -Tor^m_{ij} Tor^l_{km}
                sums.add_product(x * s1 + b * s2 + a * n + l, t, u, -2 * factor)
                sums.add_product(a * s1 + b * s2 + x * n + l, t, u, factor)
        return _alternating(r.shape, 0, sums.polynomials(12 * den))

    @cached_property
    def d_torsion(self) -> VectorValuedForm:
        """d Tor; the first structure identity equates it with R^I."""
        return ext_cov_deriv_vector(self.conn, self.torsion)

    @cached_property
    def d_curvature(self) -> EndValuedForm:
        """d R; the second structure identity says it vanishes."""
        return ext_cov_deriv_endo(self.conn, self.curvature)

    @cached_property
    def d_identity(self) -> VectorValuedForm:
        """d I of the identity 1-form; it equals the torsion."""
        return ext_cov_deriv_vector(self.conn, identity_oneform(self.conn.dimension))
