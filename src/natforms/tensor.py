"""Tensor fields with polynomial components: dense storage, sparse reading.

A (p,q)-tensor field over R^n is stored as a flat tuple of n^(p+q)
polynomials in row-major order, covariant indices first, each index
running over 1..n.  Symmetry in a slot pair is a property of the
components alone, checked exactly by :func:`is_antisymmetric`.

Most components of the fields built here are zero, so the kernels read
only the nonzero ones: a field's :attr:`TensorField.support`, the ascending
positions of its nonzero components, is computed on first read and kept on
the immutable field.  :func:`is_antisymmetric`, the scatter kernel,
:func:`symmetrization_vanishes`, ``is_zero`` and the echelon rows of
:mod:`natforms.exactla` walk it.  :func:`is_antisymmetric` answers a pair
stored as x and -x by identity, since a negation records what it negated,
and compares numerators otherwise.  :func:`symmetrization_vanishes` reads
one group per orbit of the covariant slot permutations, not every copy.

One scatter kernel, the private ``_scatter``, does every reindexing,
product and sum of fields: an output component sums the source, a field
or a pair of fields multiplied only where it lands, at a remapped index
over dummy indices, is zero off a Kronecker-delta diagonal, and is one
:meth:`Polynomial.combination` of what lands on it.  :func:`contract`,
:func:`tensor_product` and :func:`natforms.generators.apply_scheme` are
one-term scatters; :func:`combine`, the one sum of fields, scatters
slot-permuted fields, and :func:`permute_covariant`, ``+``, ``-`` and
:func:`antisymmetrize_pair` are each one ``combine``.  Only a direct
``_scatter`` divides its sums by a common integer, as N1 does by 12.
Outside this module only the derivative kernel of :mod:`natforms.geometry`
reads the storage layout directly; the echelon in :mod:`natforms.exactla`
reads components by position and gives the indices no meaning.

Slot arguments in the public API are 1-based throughout, matching the
index conventions of the formulas this library implements.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

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
# any allocation: the (4,2) source of the contraction schemes is the largest
# type any claim reads, and at n = 8 a field of it has 8^6 = 262,144 components.
_MAX_DIMENSION = 8
_MAX_SLOTS = 6


def _flat(n: int, idx: Sequence[int]) -> int:
    f = 0
    for v in idx:
        f = f * n + v
    return f


_numerators = attrgetter("numerators")


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

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Positions of the nonzero components, ascending; computed once."""
        comps = self.components
        return tuple(itertools.compress(range(len(comps)), map(_numerators, comps)))

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

    def __add__(self, other: TensorField) -> TensorField:
        if not isinstance(other, TensorField):
            return NotImplemented
        identity = tuple(range(1, self.shape.p + 1))
        return combine(self.shape, [(1, self, identity), (1, other, identity)])

    def __sub__(self, other: TensorField) -> TensorField:
        if not isinstance(other, TensorField):
            return NotImplemented
        identity = tuple(range(1, self.shape.p + 1))
        return combine(self.shape, [(1, self, identity), (-1, other, identity)])

    def __neg__(self) -> TensorField:
        return TensorField(self.shape, tuple(-c if c.numerators else c for c in self.components))

    def scale(self, factor: Coefficient) -> TensorField:
        factor = _coefficient(factor)
        if factor == 1:
            return self
        return TensorField(
            self.shape, tuple(c.scale(factor) if c.numerators else c for c in self.components)
        )

    @property
    def is_zero(self) -> bool:
        return not self.support


def zero(shape: TensorShape) -> TensorField:
    z = Polynomial.zero(shape.n)
    return TensorField(shape, (z,) * shape.size)


def delta(n: int) -> TensorField:
    """Kronecker delta as a (1,1) tensor field."""
    one = Polynomial.constant(n, 1)
    z = Polynomial.zero(n)
    comps = tuple(one if i == l else z for i in range(n) for l in range(n))
    return TensorField(TensorShape(1, 1, n), comps)


def _check_shapes(shape: TensorShape, fields: Iterable[TensorField]) -> None:
    for field in fields:
        if field.shape != shape:
            raise ValueError(f"shape mismatch: {field.shape} vs {shape}")


def equal(a: TensorField, b: TensorField) -> bool:
    """Exact componentwise equality; raises on shape mismatch."""
    _check_shapes(a.shape, (b,))
    return a.components == b.components


@lru_cache(maxsize=256)
def _landing(n: int, out_slots: int, feeds, fills, sizes) -> tuple:
    """(factors, spread), the landing map of one reindexing.

    ``feeds`` runs over the slots of the source's factors, ``sizes`` slots
    each, covariant first: slot s reads (I + D)[feeds[s]], I the output index
    and D the dummies, numbered after the output slots, so two slots fed by
    one dummy contract.  An output component sums over all dummy values and
    is zero where the output slots of a pair (u, v) in ``fills`` differ.  A
    factor (checks, setters, bases), in its own strides, lands a position if
    its digits agree at the strides of each check, at the sum of
    pos // stride % n * w over the setters, which ``bases`` holds, or None,
    at each position ``_landed`` visited.  The digits a pair's factors share
    are its join key, added above the n^out_slots output positions to both
    factors' sums.  ``spread`` runs each unread index over its n values.
    """
    # one index per output slot and per dummy; a fill makes its second slot
    # read the index of its first, so the two move together
    count = max(out_slots, max(feeds, default=-1) + 1)
    index_of = list(range(count))
    for u, v in fills:
        index_of[v] = u
    weight = [0] * count
    for o in range(out_slots):
        weight[index_of[o]] += n ** (out_slots - 1 - o)
    # the first slot that reads an index sets it; later ones must agree
    factors, cross, reader, feed = [], [], {}, iter(feeds)
    for k, size in enumerate(sizes):
        checks, setters = [], []
        for stride, f in zip([n**s for s in reversed(range(size))], feed):
            index = index_of[f]
            if index not in reader:
                reader[index] = (k, stride)
                if weight[index]:
                    setters.append((stride, weight[index]))
            else:
                (checks if reader[index][0] == k else cross).append((reader[index][1], stride))
        factors.append((checks, setters, {}))
    for k, (sa, sb) in enumerate(cross):
        factors[0][1].append((sa, n ** (out_slots + k)))
        factors[1][1].append((sb, n ** (out_slots + k)))
    spread = [0]
    for v in range(count):
        if index_of[v] == v and v not in reader:
            spread = [o + d * weight[v] for o in spread for d in range(n)]
    return factors, spread


def _landed(field: TensorField, n: int, checks, setters, bases: dict) -> list[tuple[int, int]]:
    """(position, base) for each position of the field's support that lands,
    filling ``bases`` at the positions not visited before."""
    support = field.support
    # kept across calls: a stateless version ran every benchmark workload 2-5% slower
    new = [pos for pos in support if pos not in bases]
    if new:
        if checks:
            bases.update(dict.fromkeys(new))
        for s1, s2 in checks:
            new = [pos for pos in new if pos // s1 % n == pos // s2 % n]
        found = [0] * len(new)
        for stride, w in setters:
            found = [b + pos // stride % n * w for b, pos in zip(found, new)]
        bases.update(zip(new, found))
    return [(pos, base) for pos, base in zip(support, map(bases.get, support)) if base is not None]


def _scatter(shape: TensorShape, terms, divisor: int = 1) -> TensorField:
    """The one scatter kernel: sum c * (source reindexed by feeds and fills,
    see :func:`_landing`) over the (c, source, feeds, fills) terms, c an
    ``int``, all over the divisor, as one :meth:`Polynomial.combination` per
    touched position.

    A source is a field or a pair (a, b) of fields, whose feeds cover a's
    slots and then b's.  A pair is multiplied only where it lands: each
    factor's support is filtered by the checks inside it, b's is joined to
    a's on the indices they share, and each joined (u, v) adds (c, a[u], b[v]).
    """
    n, size = shape.n, shape.size
    collected: dict[int, list] = {}
    products: dict[int, list] = {}
    for c, source, feeds, fills in terms:
        fields = source if isinstance(source, tuple) else (source,)
        sizes = tuple([f.shape.p + f.shape.q for f in fields])
        factors, spread = _landing(n, shape.p + shape.q, feeds, fills, sizes)
        landed = [_landed(f, n, *factor) for f, factor in zip(fields, factors)]
        if len(fields) == 1:
            comps = source.components
            for off in spread:
                for pos, base in landed[0]:
                    collected.setdefault(base + off, []).append((c, comps[pos]))
            continue
        (a, b), joined = source, {}
        for v, base in landed[1]:
            joined.setdefault(base // size, []).append((v, base % size))
        for off in spread:
            for u, base in landed[0]:
                for v, b_base in joined.get(base // size, ()):
                    entry = products.setdefault(base % size + b_base + off, [])
                    entry.append((c, a.components[u], b.components[v]))
    for pos in products:
        collected.setdefault(pos, [])
    out = [Polynomial.zero(n)] * size
    for pos, pairs in collected.items():
        out[pos] = Polynomial.combination(n, pairs, products.get(pos, ()), divisor)
    return TensorField(shape, tuple(out))


def _product(a: TensorShape, b: TensorShape) -> tuple[TensorShape, tuple[int, ...]]:
    """The shape of a (x) b, a's slots preceding b's in each variance class,
    and the slot there of each slot of a and then of b."""
    p, q = a.p + b.p, a.q + b.q
    slots = (*range(a.p), *range(p, p + a.q), *range(a.p, p), *range(p + a.q, p + q))
    return TensorShape(p, q, a.n), slots


def tensor_product(a: TensorField, b: TensorField) -> TensorField:
    """Product with a's slots preceding b's in each variance class: one pair term."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    shape, slots = _product(a.shape, b.shape)
    return _scatter(shape, [(1, (a, b), slots, ())])


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
    return _scatter(TensorShape(p - 1, q - 1, n), [(1, a, tuple(feeds), ())])


def _check_permutation(perm: Sequence[int], count: int) -> None:
    if sorted(perm) != list(range(1, count + 1)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 1..{count}")


def permute_covariant(a: TensorField, perm: Sequence[int]) -> TensorField:
    """Reindex covariant slots: result slot s reads input index v[perm[s]].

    With perm=(2,3,1) the result X satisfies X_{ijk} = A_{jki}.
    """
    return combine(a.shape, [(1, a, perm)])


def combine(
    shape: TensorShape, terms: Sequence[tuple[int, TensorField, Sequence[int]]]
) -> TensorField:
    """sum c * permute_covariant(field, perm) over the (c, field, perm) terms,
    each c an ``int`` and each field of ``shape``.

    One ``_scatter``: a lone (1, p) term is p itself.  The shapes and
    permutations are checked before any field is read.
    """
    contra = tuple(range(shape.p, shape.p + shape.q))
    _check_shapes(shape, (field for _, field, _ in terms))
    scattered = []
    for c, field, perm in terms:
        _check_permutation(perm, shape.p)
        scattered.append((c, field, tuple([s - 1 for s in perm]) + contra, ()))
    return _scatter(shape, scattered)


@lru_cache(maxsize=16)
def _sorted_positions(n: int, p: int, q: int) -> tuple[int, ...]:
    """For each position of a (p,q) field, the position with the same
    contravariant indices and its covariant indices sorted ascending."""
    return tuple(
        _flat(n, sorted(idx[:p]) + list(idx[p:]))
        for idx in itertools.product(range(n), repeat=p + q)
    )


def symmetrization_vanishes(a: TensorField) -> bool:
    """Whether the sum of a over all orderings of its covariant slots is zero.

    That sum is the same at every ordering of one index multiset, and it is
    a positive multiple (the number of permutations that fix an ordering)
    of the sum of a over the multiset's distinct orderings.  So the support is grouped by sorted
    covariant indices, with the contravariant ones, and each group is one
    :meth:`Polynomial.combination` of its components, each read once.
    """
    n, p, q = a.shape.n, a.shape.p, a.shape.q
    rep = _sorted_positions(n, p, q)
    groups: dict[int, list[tuple[int, Polynomial]]] = {}
    comps = a.components
    for pos in a.support:
        groups.setdefault(rep[pos], []).append((1, comps[pos]))
    return all(not Polynomial.combination(n, pairs).numerators for pairs in groups.values())


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
    p = a.shape.p
    _check_slot_pair(p, s1, s2)
    return combine(a.shape, [(1, a, tuple(range(1, p + 1))), (-1, a, _swap_perm(p, s1, s2))])


def _negatives(x: Polynomial, y: Polynomial) -> bool:
    """x == -y, decided without building -y.

    A negation records what it negated, so a pair built as x and -x (or -y
    and y) answers at once.  Otherwise both are in lowest terms over a
    positive denominator, so x == -y iff the denominators are equal and each
    numerator of x is the negated numerator of y at its monomial.
    """
    if getattr(y, "_negated", None) is x or getattr(x, "_negated", None) is y:
        return True
    if x.denominator != y.denominator or x.dimension != y.dimension:
        return False
    x_nums, y_nums = x.numerators, y.numerators
    if len(x_nums) != len(y_nums):
        return False
    for mono, coeff in x_nums.items():
        if y_nums.get(mono) != -coeff:
            return False
    return True


def is_antisymmetric(a: TensorField, s1: int, s2: int) -> bool:
    """Whether swapping distinct covariant slots s1 and s2 negates a.

    Only the support is read.  A nonzero component with equal indices i == j
    in the two slots fails; one with i < j is compared with its slot-swapped
    partner; one with i > j needs a nonzero partner, whose own comparison
    covers the pair.
    """
    _check_slot_pair(a.shape.p, s1, s2)
    n, slots = a.shape.n, a.shape.p + a.shape.q
    stride1, stride2 = n ** (slots - s1), n ** (slots - s2)
    comps = a.components
    for pos in a.support:
        i, j = pos // stride1 % n, pos // stride2 % n
        if i == j:
            return False
        partner = comps[pos + (j - i) * (stride1 - stride2)]
        if not (_negatives(comps[pos], partner) if i < j else partner.numerators):
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is refused, not overwritten."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _doc_json(text: str, what: str):
    """Decode a JSON document; a key repeated in any object, or nesting deeper
    than the decoder can follow, is a ValueError like any other malformed
    document."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError(f"{what} nests deeper than the JSON decoder can follow") from None


def loads(text: str) -> TensorField:
    return from_json_obj(_doc_json(text, "tensor document"))
