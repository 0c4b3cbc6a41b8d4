"""The 19 natural generator 2-forms and equivariant contraction schemes.

This module is tensor algebra over :mod:`natforms.tensor` alone.  The
generator family is built from the two normal tensors of a connection,
which :class:`natforms.geometry.Invariants` derives; this module takes the
tensors, never the connection.  Its bases are four trace patterns of the
first-order normal tensor (C family) and five quadratic expressions in the
zeroth-order normal tensor (D family, each one term of the scatter kernel
of :mod:`natforms.tensor` that reads the pair (N0, N0)).  :data:`RECIPE`
names each of T1..T19 by the base and the skew pattern it is built from,
and the family maps each label to its tensor.  :func:`apply_pattern`
makes each generator one scatter of two terms, the base read through the
pattern's two reindexings with coefficients 1 and -1, summed only where
i < j, so the generator alternates in its first two covariant slots and
is a well-formed endomorphism-valued 2-form; the verdict that
differentiates the generators checks that as it wraps each one.

``enumerate_schemes`` lists every equivariant linear map between tensor
types as a bijection between "lower" slots (source covariant plus target
contravariant) and "upper" slots (source contravariant plus target
covariant); pairs inside the source are contractions, pairs inside the
target are Kronecker-delta insertions, and mixed pairs transport a slot.
There are exactly r! of them, r being the number of lower slots, and none
when the covariant and contravariant defects differ.  A scheme is
evaluated as a term of the scatter kernel of :mod:`natforms.tensor`:
contracted pairs share a dummy index and delta fills tie two target slots.

``project_schemes`` antisymmetrizes the schemes' values in the target's
first covariant pair, one value per scheme orbit; a (4,2) source N0 (x) N0
is read as the pair (N0, N0), never built.  A slot symmetry of the
source (N0 (x) N0 is antisymmetric in each factor's covariant pair and
unchanged by swapping the factors) and the swap of the two antisymmetrized
target slots act on the schemes by relabelling their slots; schemes of one
orbit give one value up to a known sign, and an orbit whose stabilizer
holds an odd element gives zero.  The orbit table is built from the slot
tuples alone, once per shape pair.  Only the nonzero orbits' first schemes
are evaluated and returned, keyed by enumeration position.  Every other
scheme's value is zero or plus or minus an earlier scheme's, so in a
matrix of all the values it is never a pivot: the span, its rank and
every nonzero membership coefficient (free ones are 0) are the same
without it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .tensor import (
    TensorField,
    TensorShape,
    _check_slot_pair,
    _scatter,
    is_antisymmetric,
)

# the three skew patterns used to turn a (3,1) base into a 2-form:
# result_{ijk} = base_{ijk} - base_{jik}, etc.
PATTERN_ID = "(ijk)-(jik)"
PATTERN_JKI = "(jki)-(ikj)"
PATTERN_KIJ = "(kij)-(kji)"

# each pattern's two reindexings, base slot s reading result slot feeds[s]:
# (1, 2, 0, 3) reads base_{jki}; the second is the first with i and j swapped
_PATTERN_FEEDS = {
    PATTERN_ID: ((0, 1, 2, 3), (1, 0, 2, 3)),
    PATTERN_JKI: ((1, 2, 0, 3), (0, 2, 1, 3)),
    PATTERN_KIJ: ((2, 0, 1, 3), (2, 1, 0, 3)),
}


def apply_pattern(base: TensorField, pattern: str) -> TensorField:
    """A skew pattern of a (3,1) base: one scatter of two terms, the base
    read through the pattern's first reindexing and, with coefficient -1,
    through its second, summed only where i < j; the (j, i) half holds the
    recorded negations of the (i, j) half."""
    if (base.shape.p, base.shape.q) != (3, 1):
        raise ValueError(f"expected a (3,1) base, got {base.shape}")
    first, second = _PATTERN_FEEDS[pattern]
    return _scatter(base.shape, [(1, base, first, ()), (-1, base, second, ())], lower=2)


def build_C_family(n1: TensorField) -> list[TensorField]:
    """C0..C3: the tensor itself plus its three traces times the identity."""
    if n1.shape.p != 3 or n1.shape.q != 1:
        raise ValueError(f"expected a (3,1) field, got {n1.shape}")
    # N^m_{mij}, N^m_{imj} and N^m_{ijm} (the dummy m numbered 4), each times delta^l_k
    traces = ((4, 0, 1, 4), (0, 4, 1, 4), (0, 1, 4, 4))
    return [n1] + [_scatter(n1.shape, [(1, n1, feeds, ((2, 3),))]) for feeds in traces]


# D1..D5 as (N0, N0) pair terms: feeds read output slots (i, j, k, l) = 0..3 and dummies 4, 5
_D_TERMS = (
    ((0, 1, 4, 4, 2, 3), ()),         # D1_{ijk} = N^m_{ij} N^l_{mk}
    ((0, 1, 3, 4, 2, 4), ()),         # D2_{ijk} = N^l_{ij} N^m_{mk}
    ((4, 0, 5, 5, 2, 4), ((1, 3),)),  # D3_{ijk} = N^m_{si} N^s_{mk} delta^l_j
    ((0, 1, 4, 4, 5, 5), ((2, 3),)),  # D4_{ijk} = N^m_{ij} N^s_{ms} delta^l_k
    ((4, 0, 4, 5, 1, 5), ((2, 3),)),  # D5_{ijk} = N^m_{mi} N^s_{sj} delta^l_k
)


def build_D_family(n0: TensorField) -> list[TensorField]:
    """D1..D5: the five quadratic (3,1) expressions in an antisymmetric (2,1) field."""
    if n0.shape.p != 2 or n0.shape.q != 1:
        raise ValueError(f"expected a (2,1) field, got {n0.shape}")
    if not is_antisymmetric(n0, 1, 2):
        raise ValueError("input must be antisymmetric in its covariant pair")
    shape = TensorShape(3, 1, n0.shape.n)
    return [_scatter(shape, [(1, (n0, n0), feeds, fills)]) for feeds, fills in _D_TERMS]


# T1..T19, each the (base, pattern) it is built from, after removal of the
# dependent C3/(kij)-(kji) entry; see dropped_c3_generator.
RECIPE = {
    "T1": ("C0", PATTERN_ID), "T2": ("C0", PATTERN_JKI), "T3": ("C0", PATTERN_KIJ),
    "T4": ("C1", PATTERN_ID), "T5": ("C1", PATTERN_JKI), "T6": ("C1", PATTERN_KIJ),
    "T7": ("C2", PATTERN_ID), "T8": ("C2", PATTERN_JKI), "T9": ("C2", PATTERN_KIJ),
    "T10": ("C3", PATTERN_ID), "T11": ("C3", PATTERN_JKI),
    "T12": ("D1", PATTERN_ID), "T13": ("D1", PATTERN_JKI),
    "T14": ("D2", PATTERN_ID), "T15": ("D2", PATTERN_JKI),
    "T16": ("D3", PATTERN_ID),
    "T17": ("D4", PATTERN_ID), "T18": ("D4", PATTERN_JKI),
    "T19": ("D5", PATTERN_JKI),
}


@dataclass(frozen=True)
class GeneratorFamily:
    """T1..T19 by label, in that order, and the nine bases they are built from."""

    tensors: dict[str, TensorField]
    bases: dict[str, TensorField]  # C0..C3 and D1..D5, each built once


def build_T_list(n0: TensorField, n1: TensorField) -> GeneratorFamily:
    """The generators T1..T19, each ``apply_pattern`` of its RECIPE entry.

    T1..T11 come from the C family, T12..T19 from the D family.  For D1,
    D2 and D4, which are already antisymmetric in (i,j), the identity-slot
    skew pattern equals doubling.  D3 and D5 each admit exactly one
    nonzero skew pattern up to sign, and the family uses that one:

    * D5 is symmetric in (i,j), so its doubled variant is not a 2-form;
      T19 uses the (jki)-(ikj) pattern.  See :func:`doubled_d5_variant`.
    * D3's core double trace is symmetric in its outer index pair, which
      makes the (jki)-(ikj) pattern vanish identically; T16 uses the
      (ijk)-(jik) pattern.  See :func:`vanishing_d3_pattern`.

    Both degenerate variants stay available so reports can show them
    side by side with the family actually used.
    """
    bases = dict(zip(["C0", "C1", "C2", "C3", "D1", "D2", "D3", "D4", "D5"],
                     build_C_family(n1) + build_D_family(n0)))
    tensors = {
        label: apply_pattern(bases[base], pattern) for label, (base, pattern) in RECIPE.items()
    }
    return GeneratorFamily(tensors, bases)


def dropped_c3_generator(family: GeneratorFamily) -> TensorField:
    """The (kij)-(kji) pattern on C3, removed from the family because it is
    a combination of T5, T6, T8, T9 and T11; the verification suite emits
    the exact coefficients."""
    return apply_pattern(family.bases["C3"], PATTERN_KIJ)


def doubled_d5_variant(family: GeneratorFamily) -> TensorField:
    """Twice D5: symmetric in (i,j), hence not a valid 2-form entry."""
    return family.bases["D5"].scale(2)


def vanishing_d3_pattern(family: GeneratorFamily) -> TensorField:
    """The (jki)-(ikj) pattern on D3, identically zero for every input
    because the double trace N^m_{si} N^s_{mk} is symmetric in (i,k)."""
    return apply_pattern(family.bases["D3"], PATTERN_JKI)


# -- contraction schemes -------------------------------------------------------

@dataclass(frozen=True)
class ContractionScheme:
    """One equivariant map, encoded by how each slot is consumed.

    contracted_pairs: (source covariant slot, source contravariant slot)
    cov_assignment:   (source covariant slot, target covariant slot)
    contra_assignment:(source contravariant slot, target contravariant slot)
    delta_fills:      (target covariant slot, target contravariant slot)
    All slots 1-based; every source and target slot appears exactly once.
    """

    source: TensorShape
    target: TensorShape
    contracted_pairs: tuple[tuple[int, int], ...]
    cov_assignment: tuple[tuple[int, int], ...]
    contra_assignment: tuple[tuple[int, int], ...]
    delta_fills: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs, cov, contra, fills = (
            self.contracted_pairs, self.cov_assignment, self.contra_assignment, self.delta_fills
        )
        for what, count, used in (
            ("source covariant", self.source.p, [s for s, _ in pairs + cov]),
            ("source contravariant", self.source.q, [s for _, s in pairs] + [s for s, _ in contra]),
            ("target covariant", self.target.p, [t for _, t in cov] + [t for t, _ in fills]),
            ("target contravariant", self.target.q, [t for _, t in contra + fills]),
        ):
            if sorted(used) != list(range(1, count + 1)):
                raise ValueError(f"{what} slots not used exactly once")


def enumerate_schemes(source: TensorShape, target: TensorShape) -> list[ContractionScheme]:
    """All equivariant maps from source type to target type; r! of them.

    Empty when the covariant/contravariant slot defects differ, which is
    exactly the vanishing criterion for the space of such maps.
    """
    return list(_schemes(source, target))


@lru_cache(maxsize=16)
def _schemes(source: TensorShape, target: TensorShape) -> tuple[ContractionScheme, ...]:
    # the cached body of enumerate_schemes, which the orbit table and
    # project_schemes read too; enumerate_schemes itself stays uncached, so
    # how often it runs does not depend on this cache
    p, q = source.p, source.q
    pbar, qbar = target.p, target.q
    if p - pbar != q - qbar:
        return ()
    lower = [("scov", s) for s in range(1, p + 1)] + [
        ("tcontra", t) for t in range(1, qbar + 1)
    ]
    upper = [("scontra", s) for s in range(1, q + 1)] + [
        ("tcov", t) for t in range(1, pbar + 1)
    ]
    r = len(lower)
    assert r == len(upper)
    schemes = []
    for perm in itertools.permutations(range(r)):
        contracted, cov_assign, contra_assign, fills = [], [], [], []
        for a in range(r):
            lo_kind, lo_slot = lower[a]
            up_kind, up_slot = upper[perm[a]]
            if lo_kind == "scov" and up_kind == "scontra":
                contracted.append((lo_slot, up_slot))
            elif lo_kind == "scov" and up_kind == "tcov":
                cov_assign.append((lo_slot, up_slot))
            elif lo_kind == "tcontra" and up_kind == "scontra":
                contra_assign.append((up_slot, lo_slot))
            else:  # tcontra paired with tcov: a Kronecker delta in the target
                fills.append((up_slot, lo_slot))
        schemes.append(
            ContractionScheme(
                source=source,
                target=target,
                contracted_pairs=tuple(sorted(contracted)),
                cov_assignment=tuple(sorted(cov_assign)),
                contra_assignment=tuple(sorted(contra_assign)),
                delta_fills=tuple(sorted(fills)),
            )
        )
    return tuple(schemes)


def _scheme_term(
    coefficient: int, scheme: ContractionScheme, source, target_cov: Sequence[int]
) -> tuple:
    """The scatter term coefficient * (the scheme on a field of its source
    type, or on a (x) b for a pair (a, b)), target covariant slot t
    relabelled target_cov[t - 1]: assigned slots feed target slots, each
    contracted pair reads one dummy index, and each delta fill ties a target
    covariant slot to a target contravariant one."""
    if isinstance(source, tuple):
        # a (x) b has a's slots before b's in each variance class; order
        # holds the slot there of each slot of a and then of b
        a, b = source[0].shape, source[1].shape
        p, q = a.p + b.p, a.q + b.q
        shape = TensorShape(p, q, a.n)
        order = (*range(a.p), *range(p, p + a.q), *range(a.p, p), *range(p + a.q, p + q))
    else:
        shape, order = source.shape, range(source.shape.p + source.shape.q)
    if shape != scheme.source:
        raise ValueError(f"field shape {shape} does not match scheme source {scheme.source}")
    p, pbar, qbar = scheme.source.p, scheme.target.p, scheme.target.q
    feeds = [0] * (p + scheme.source.q)
    for s, t in scheme.cov_assignment:
        feeds[s - 1] = target_cov[t - 1] - 1
    for s, t in scheme.contra_assignment:
        feeds[p + s - 1] = pbar + t - 1
    for dummy, (s, c) in enumerate(scheme.contracted_pairs, start=pbar + qbar):
        feeds[s - 1] = feeds[p + c - 1] = dummy
    fills = tuple((target_cov[u - 1] - 1, pbar + v - 1) for u, v in scheme.delta_fills)
    return coefficient, source, tuple([feeds[s] for s in order]), fills


# -- scheme orbits -------------------------------------------------------------

# A slot symmetry of a scheme source: (covariant images, contravariant images,
# sign).  Source slot k becomes slot images[k - 1], and the field with its
# slots so relabelled is sign times the field.
Symmetry = tuple[tuple[int, ...], tuple[int, ...], int]

# N1 is taken as it is: no slot symmetry is assumed.
N1_SYMMETRIES: tuple[Symmetry, ...] = ()
# N0 (x) N0, covariant (i, j, a, b) and contravariant (m, c): each factor is
# antisymmetric in its covariant pair, and the two factors may be swapped.
N0_SQUARED_SYMMETRIES: tuple[Symmetry, ...] = (
    ((2, 1, 3, 4), (1, 2), -1),
    ((1, 2, 4, 3), (1, 2), -1),
    ((3, 4, 1, 2), (2, 1), 1),
)


# A scheme's four slot tuples: contracted pairs, covariant and contravariant
# assignments, delta fills.
Slots = tuple[tuple[tuple[int, int], ...], ...]


def _relabel(
    slots: Slots, cov: Sequence[int], contra: Sequence[int], target_cov: Sequence[int]
) -> Slots:
    """A scheme's slots with its source covariant, source contravariant and
    target covariant slots relabelled by the images given, each tuple re-sorted."""
    pairs, cov_assignment, contra_assignment, fills = slots
    return (
        tuple(sorted((cov[s - 1], contra[c - 1]) for s, c in pairs)),
        tuple(sorted((cov[s - 1], target_cov[t - 1]) for s, t in cov_assignment)),
        tuple(sorted((contra[c - 1], t) for c, t in contra_assignment)),
        tuple(sorted((target_cov[t - 1], u) for t, u in fills)),
    )


@lru_cache(maxsize=16)
def _orbit_table(
    source: TensorShape, target: TensorShape, symmetries: tuple[Symmetry, ...]
) -> tuple[tuple[int, int], ...]:
    """For each scheme from source to target, in enumeration order,
    (representative, sign): the position of its orbit's first scheme and
    the sign that turns that scheme's projected value into this one's, 0 on
    an orbit whose projected values all vanish.

    The orbits are those of the group generated by the source symmetries
    and the swap of target covariant slots 1 and 2 with sign -1, since
    antisymmetrizing in that pair negates a value with the two slots
    swapped.  An orbit reached with both signs at one scheme has an odd
    element in its stabilizer, so each of its values is its own negation.
    """
    slots = [
        (s.contracted_pairs, s.cov_assignment, s.contra_assignment, s.delta_fills)
        for s in _schemes(source, target)
    ]
    position = {key: k for k, key in enumerate(slots)}
    identity_cov = tuple(range(1, source.p + 1))
    identity_contra = tuple(range(1, source.q + 1))
    identity_target = tuple(range(1, target.p + 1))
    target_swap = (2, 1) + identity_target[2:]
    generators = [(cov, contra, identity_target, sign) for cov, contra, sign in symmetries]
    generators.append((identity_cov, identity_contra, target_swap, -1))
    table: list[tuple[int, int] | None] = [None] * len(slots)
    for first in range(len(slots)):
        if table[first] is not None:
            continue
        signs = {first: 1}
        stack = [first]
        odd = False
        while stack:
            k = stack.pop()
            for cov, contra, target_cov, sign in generators:
                image = position[_relabel(slots[k], cov, contra, target_cov)]
                image_sign = signs[k] * sign
                if image not in signs:
                    signs[image] = image_sign
                    stack.append(image)
                elif signs[image] != image_sign:
                    odd = True
        for k, sign in signs.items():
            table[k] = (first, 0 if odd else sign)
    return tuple(table)


def project_schemes(
    source: TensorShape, target: TensorShape, field: TensorField
) -> dict[int, TensorField]:
    """The value of scheme s on the source, antisymmetrized in target slots
    1 and 2 (no 1/2 factor), for the first scheme s of each orbit of
    ``_orbit_table`` whose values do not vanish, keyed by its position in
    ``enumerate_schemes`` order, each one scatter of two terms, the scheme
    and the scheme with target slots 1 and 2 exchanged, with coefficients 1
    and -1, summed only where the target index in slot 1 is below the one
    in slot 2 and negated at the swaps.

    For a (4,2) source, a (2,1) field is the factor N0 of the source
    N0 (x) N0, read as the pair (N0, N0), and must be antisymmetric in its
    covariant pair; any other field is the source itself, with no symmetry
    assumed.  Every other scheme's value is its representative's times the
    table's sign, or zero, so it adds nothing to the span of these values.
    """
    _check_slot_pair(target.p, 1, 2)
    symmetries = N1_SYMMETRIES
    if (source.p, source.q) == (4, 2) and field.shape == TensorShape(2, 1, source.n):
        if not is_antisymmetric(field, 1, 2):
            raise ValueError("the factor of N0 (x) N0 must be antisymmetric in its covariant pair")
        field, symmetries = (field, field), N0_SQUARED_SYMMETRIES
    schemes, shape = _schemes(source, target), TensorShape(target.p, target.q, source.n)
    relabellings = ((1, range(1, shape.p + 1)), (-1, (2, 1, *range(3, shape.p + 1))))
    return {
        k: _scatter(
            shape,
            [_scheme_term(c, schemes[k], field, cov) for c, cov in relabellings],
            lower=2,
        )
        for k, entry in enumerate(_orbit_table(source, target, symmetries))
        if entry == (k, 1)
    }
