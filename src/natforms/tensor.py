"""Dense tensor fields with polynomial components.

A (p,q)-tensor field over R^n is stored as a flat tuple of n^(p+q)
polynomials in row-major order, covariant indices first, each index
running over 1..n.  Symmetry in a slot
pair is a property of the components alone, checked exactly by
:func:`is_antisymmetric`.

One private gather, ``_gather``, does every reindexing: an output
component sums the source at a remapped index over dummy indices, and is
zero off a Kronecker-delta diagonal.  :func:`contract`,
:func:`permute_covariant` and :func:`natforms.generators.apply_scheme`
are gathers.  Outside this module only the derivative kernel of
:mod:`natforms.geometry` reads the storage layout directly; the echelon in
:mod:`natforms.exactla` reads components by position and gives the
indices no meaning.

Slot arguments in the public API are 1-based throughout, matching the
index conventions of the formulas this library implements.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .poly import Coefficient, Polynomial, _coefficient, parse, to_string


@dataclass(frozen=True)
class TensorShape:
    """Type (p,q) in ambient dimension n: p covariant slots, q contravariant."""

    p: int
    q: int
    n: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"slot counts must be non-negative, got ({self.p},{self.q})")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")

    @property
    def size(self) -> int:
        return self.n ** (self.p + self.q)


# Largest dimension and slot count p + q a document may declare, checked before
# any allocation: 8^6 is the largest intermediate `verify schemes` builds.
_MAX_DIMENSION = 8
_MAX_SLOTS = 6


def _flat(n: int, idx: Sequence[int]) -> int:
    f = 0
    for v in idx:
        f = f * n + v
    return f


@dataclass(frozen=True)
class TensorField:
    """Immutable dense tensor field; components indexed covariant-first."""

    shape: TensorShape
    components: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.shape.size:
            raise ValueError(
                f"expected {self.shape.size} components, got {len(self.components)}"
            )

    @property
    def n(self) -> int:
        return self.shape.n

    def get(self, cov: Sequence[int] = (), contra: Sequence[int] = ()) -> Polynomial:
        """Component at the given 1-based covariant/contravariant indices."""
        if len(cov) != self.shape.p or len(contra) != self.shape.q:
            raise ValueError(
                f"index arity mismatch for shape ({self.shape.p},{self.shape.q})"
            )
        idx = tuple(v - 1 for v in cov) + tuple(v - 1 for v in contra)
        if any(not 0 <= v < self.n for v in idx):
            raise ValueError(f"index out of range 1..{self.n}: cov={cov} contra={contra}")
        return self.components[_flat(self.n, idx)]

    def indices(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All (cov, contra) index tuples, 1-based, in storage order."""
        n, p, q = self.n, self.shape.p, self.shape.q
        for idx in itertools.product(range(1, n + 1), repeat=p + q):
            yield idx[:p], idx[p:]

    # -- pointwise linear structure ---------------------------------------

    def _check_shape(self, other: TensorField) -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    # A zero component passes its partner through as it is, without a call
    # into Polynomial; most components of the fields built here are zero.

    def __add__(self, other: TensorField) -> TensorField:
        if not isinstance(other, TensorField):
            return NotImplemented
        self._check_shape(other)
        return TensorField(
            self.shape,
            tuple(
                b if not a.terms else a if not b.terms else a + b
                for a, b in zip(self.components, other.components)
            ),
        )

    def __sub__(self, other: TensorField) -> TensorField:
        if not isinstance(other, TensorField):
            return NotImplemented
        self._check_shape(other)
        return TensorField(
            self.shape,
            tuple(
                a if not b.terms else -b if not a.terms else a - b
                for a, b in zip(self.components, other.components)
            ),
        )

    def __neg__(self) -> TensorField:
        return TensorField(self.shape, tuple(-c if c.terms else c for c in self.components))

    def scale(self, factor: Coefficient) -> TensorField:
        factor = _coefficient(factor)
        if factor == 1:
            return self
        return TensorField(
            self.shape, tuple(c.scale(factor) if c.terms else c for c in self.components)
        )

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


def zero(shape: TensorShape) -> TensorField:
    z = Polynomial.zero(shape.n)
    return TensorField(shape, (z,) * shape.size)


def delta(n: int) -> TensorField:
    """Kronecker delta as a (1,1) tensor field."""
    one = Polynomial.constant(n, 1)
    z = Polynomial.zero(n)
    comps = tuple(one if i == l else z for i in range(n) for l in range(n))
    return TensorField(TensorShape(1, 1, n), comps)


def equal(a: TensorField, b: TensorField) -> bool:
    """Exact componentwise equality; raises on shape mismatch."""
    a._check_shape(b)
    return a.components == b.components


def _offsets(n: int, weights: Sequence[int]) -> list[int]:
    """sum_s v_s * weights[s] for every index tuple v, in row-major order."""
    offsets = [0]
    for w in weights:
        offsets = [o + v * w for o in offsets for v in range(n)]
    return offsets


def _gather(a: TensorField, out_shape: TensorShape, feeds: Sequence[int], fills=()) -> TensorField:
    """The one index remap behind every reindexing, contraction and delta.

    Slots count from 0 over all slots, covariant first.  Source slot s reads
    (I + D)[feeds[s]]: I is the output index and D the dummy indices, which
    number after the output slots, so two slots fed by one dummy contract.
    An output component sums the source over all dummy values, and is zero
    where the two output slots of a pair (u, v) in ``fills`` differ.
    """
    n, out_slots, src_slots = a.n, out_shape.p + out_shape.q, a.shape.p + a.shape.q
    weights = [0] * max(out_slots, max(feeds, default=-1) + 1)
    for s, f in enumerate(feeds):
        weights[f] += n ** (src_slots - 1 - s)
    bases: list[int | None] = _offsets(n, weights[:out_slots])
    dummies = _offsets(n, weights[out_slots:])
    for u, v in fills:
        su, sv = n ** (out_slots - 1 - u), n ** (out_slots - 1 - v)
        bases = [b if pos // su % n == pos // sv % n else None for pos, b in enumerate(bases)]
    src, zero_poly = a.components, Polynomial.zero(n)
    comps = []
    for base in bases:
        acc = zero_poly
        for comp in () if base is None else (src[base + d] for d in dummies):
            if comp.terms:
                acc = comp if acc is zero_poly else acc + comp
        comps.append(acc)
    return TensorField(out_shape, tuple(comps))


def tensor_product(a: TensorField, b: TensorField) -> TensorField:
    """Product with a's slots preceding b's in each variance class."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    pa, qa, pb, qb = a.shape.p, a.shape.q, b.shape.p, b.shape.q
    out_shape = TensorShape(pa + pb, qa + qb, n)
    # output slots: a's covariant, b's covariant, a's contravariant, b's contravariant
    strides = [n**s for s in reversed(range(pa + pb + qa + qb))]
    a_offsets = _offsets(n, strides[:pa] + strides[pa + pb : pa + pb + qa])
    b_offsets = _offsets(n, strides[pa : pa + pb] + strides[pa + pb + qa :])
    comps = [Polynomial.zero(n)] * out_shape.size
    for a_off, poly_a in zip(a_offsets, a.components):
        if poly_a.terms:
            for b_off, poly_b in zip(b_offsets, b.components):
                if poly_b.terms:
                    comps[a_off + b_off] = poly_a * poly_b
    return TensorField(out_shape, tuple(comps))


def contract(a: TensorField, cov_slot: int, contra_slot: int) -> TensorField:
    """Sum the paired covariant/contravariant index (Einstein convention)."""
    p, q, n = a.shape.p, a.shape.q, a.shape.n
    if not 1 <= cov_slot <= p:
        raise ValueError(f"covariant slot {cov_slot} out of range 1..{p}")
    if not 1 <= contra_slot <= q:
        raise ValueError(f"contravariant slot {contra_slot} out of range 1..{q}")
    # the other slots keep their order; the pair reads the one dummy
    ci, ki = cov_slot - 1, p + contra_slot - 1
    feeds = [s - (s > ci) - (s > ki) for s in range(p + q)]
    feeds[ci] = feeds[ki] = p + q - 2
    return _gather(a, TensorShape(p - 1, q - 1, n), feeds)


def _check_permutation(perm: Sequence[int], count: int) -> None:
    if sorted(perm) != list(range(1, count + 1)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 1..{count}")


def permute_covariant(a: TensorField, perm: Sequence[int]) -> TensorField:
    """Reindex covariant slots: result slot s reads input index v[perm[s]].

    With perm=(2,3,1) the result X satisfies X_{ijk} = A_{jki}.
    """
    p, q = a.shape.p, a.shape.q
    _check_permutation(perm, p)
    return _gather(a, a.shape, [s - 1 for s in perm] + list(range(p, p + q)))


def _swap_perm(p: int, s1: int, s2: int) -> tuple[int, ...]:
    perm = list(range(1, p + 1))
    perm[s1 - 1], perm[s2 - 1] = perm[s2 - 1], perm[s1 - 1]
    return tuple(perm)


def _check_slot_pair(p: int, s1: int, s2: int) -> None:
    if not (1 <= s1 <= p and 1 <= s2 <= p) or s1 == s2:
        raise ValueError(f"invalid covariant slot pair ({s1},{s2}) for p={p}")


def antisymmetrize_pair(a: TensorField, s1: int, s2: int) -> TensorField:
    """a minus a with covariant slots s1,s2 swapped; no 1/2 factor.

    Applied to an already antisymmetric field this doubles it.
    """
    _check_slot_pair(a.shape.p, s1, s2)
    return a - permute_covariant(a, _swap_perm(a.shape.p, s1, s2))


def _negatives(x: Polynomial, y: Polynomial) -> bool:
    """x == -y, decided on the term maps without building -y.

    Coefficients (Fraction or int) are in lowest terms with a positive
    denominator, so two are equal iff numerators and denominators are.
    """
    if x.dimension != y.dimension or len(x.terms) != len(y.terms):
        return False
    y_terms = y.terms
    for mono, coeff in x.terms.items():
        other = y_terms.get(mono)
        if (
            other is None
            or coeff.numerator != -other.numerator
            or coeff.denominator != other.denominator
        ):
            return False
    return True


def is_antisymmetric(a: TensorField, s1: int, s2: int) -> bool:
    """Whether swapping distinct covariant slots s1 and s2 negates a.

    Each component is compared once with its slot-swapped partner; a
    component with equal indices in the two slots must be zero.
    """
    _check_slot_pair(a.shape.p, s1, s2)
    n, slots = a.shape.n, a.shape.p + a.shape.q
    stride1, stride2 = n ** (slots - s1), n ** (slots - s2)
    comps = a.components
    for pos, comp in enumerate(comps):
        i, j = pos // stride1 % n, pos // stride2 % n
        if i == j:
            if comp.terms:
                return False
        elif i < j and not _negatives(comp, comps[pos + (j - i) * (stride1 - stride2)]):
            return False
    return True


# -- interchange format -------------------------------------------------------

def to_json_obj(a: TensorField) -> dict:
    """Interchange document: shape plus the nonzero components in index order."""
    entries = [
        {"cov": list(cov), "contra": list(contra), "poly": to_string(poly)}
        for (cov, contra), poly in zip(a.indices(), a.components)
        if not poly.is_zero
    ]
    return {
        "shape": {"p": a.shape.p, "q": a.shape.q, "n": a.shape.n},
        "components": entries,
    }


def _doc_int(value, what: str) -> int:
    """A JSON integer from a document; bool, float and str are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _doc_indices(value, what: str) -> tuple[int, ...]:
    """A JSON list of integers from a document."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(_doc_int(v, what) for v in value)


def _doc_text(value, what: str) -> str:
    """Polynomial text from a document."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def from_json_obj(obj: dict) -> TensorField:
    try:
        sh = obj["shape"]
        shape = TensorShape(
            _doc_int(sh["p"], "shape p"), _doc_int(sh["q"], "shape q"), _doc_int(sh["n"], "shape n")
        )
        raw = obj["components"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tensor document: {exc}") from exc
    if shape.n > _MAX_DIMENSION or shape.p + shape.q > _MAX_SLOTS:
        raise ValueError(
            f"tensor documents need n <= {_MAX_DIMENSION} and p + q <= {_MAX_SLOTS},"
            f" got p={shape.p}, q={shape.q}, n={shape.n}"
        )
    if not isinstance(raw, list):
        raise ValueError(f"components must be a list, got {raw!r}")
    comps = [Polynomial.zero(shape.n)] * shape.size
    seen: set[tuple[int, ...]] = set()
    for entry in raw:
        try:
            cov = _doc_indices(entry["cov"], "cov")
            contra = _doc_indices(entry["contra"], "contra")
            text = _doc_text(entry["poly"], "poly")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed component entry {entry!r}: {exc}") from exc
        if len(cov) != shape.p or len(contra) != shape.q:
            raise ValueError(f"component index arity mismatch: cov={cov} contra={contra}")
        idx = tuple(v - 1 for v in cov + contra)
        if any(not 0 <= v < shape.n for v in idx):
            raise ValueError(f"component index out of range: cov={cov} contra={contra}")
        if idx in seen:
            raise ValueError(f"duplicate component entry: cov={cov} contra={contra}")
        seen.add(idx)
        comps[_flat(shape.n, idx)] = parse(text, shape.n)
    return TensorField(shape, tuple(comps))


def dumps(a: TensorField) -> str:
    return json.dumps(to_json_obj(a), indent=2)


def loads(text: str) -> TensorField:
    return from_json_obj(json.loads(text))
