"""The 19 natural generator 2-forms and equivariant contraction schemes.

The generator family is built from the two normal tensors of a connection,
which :class:`natforms.geometry.Invariants` derives; this module takes the
tensors, never the connection.  The family is four trace patterns of the
first-order normal tensor (C family), five quadratic expressions in the
zeroth-order normal tensor (D family), and for each of those bases up to
three reindex-then-antisymmetrize patterns.
Every entry is antisymmetric in its first two covariant slots, so it is a
well-formed endomorphism-valued 2-form.

``enumerate_schemes`` lists every equivariant linear map between tensor
types as a bijection between "lower" slots (source covariant plus target
contravariant) and "upper" slots (source contravariant plus target
covariant); pairs inside the source are contractions, pairs inside the
target are Kronecker-delta insertions, and mixed pairs transport a slot.
There are exactly r! of them, r being the number of lower slots, and none
when the covariant and contravariant defects differ.  ``apply_scheme``
evaluates one as a single gather of :mod:`natforms.tensor`: contracted
pairs share a dummy index and delta fills tie two target slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .geometry import EndValuedForm
from .tensor import (
    TensorField,
    TensorShape,
    _gather,
    antisymmetrize_pair,
    contract,
    delta,
    is_antisymmetric,
    permute_covariant,
    tensor_product,
)

# the three skew patterns used to turn a (3,1) base into a 2-form:
# result_{ijk} = base_{ijk} - base_{jik}, etc.
PATTERN_ID = "(ijk)-(jik)"
PATTERN_JKI = "(jki)-(ikj)"
PATTERN_KIJ = "(kij)-(kji)"

_PATTERN_PERMS = {PATTERN_ID: None, PATTERN_JKI: (2, 3, 1), PATTERN_KIJ: (3, 1, 2)}


def apply_pattern(base: TensorField, pattern: str) -> TensorField:
    perm = _PATTERN_PERMS[pattern]
    reindexed = base if perm is None else permute_covariant(base, perm)
    return antisymmetrize_pair(reindexed, 1, 2)


def build_C_family(n1: TensorField) -> list[TensorField]:
    """C0..C3: the tensor itself plus its three traces times the identity."""
    if n1.shape.p != 3 or n1.shape.q != 1:
        raise ValueError(f"expected a (3,1) field, got {n1.shape}")
    d = delta(n1.shape.n)
    c0 = n1
    c1 = tensor_product(contract(n1, 1, 1), d)
    c2 = tensor_product(contract(n1, 2, 1), d)
    c3 = tensor_product(contract(n1, 3, 1), d)
    return [c0, c1, c2, c3]


def build_D_family(n0: TensorField) -> list[TensorField]:
    """D1..D5: the five quadratic (3,1) expressions in an antisymmetric (2,1) field."""
    if n0.shape.p != 2 or n0.shape.q != 1:
        raise ValueError(f"expected a (2,1) field, got {n0.shape}")
    if not is_antisymmetric(n0, 1, 2):
        raise ValueError("input must be antisymmetric in its covariant pair")
    d = delta(n0.shape.n)
    prod = tensor_product(n0, n0)  # N^m_{ij} N^c_{ab}: cov (i,j,a,b), contra (m,c)
    # D1_{ijk} = N^m_{ij} N^l_{mk}
    d1 = contract(prod, 3, 1)
    # D2_{ijk} = N^l_{ij} N^m_{mk}
    trace1 = contract(n0, 1, 1)              # theta_k = N^m_{mk}
    d2 = tensor_product(n0, trace1)
    # D3_{ijk} = N^m_{si} N^s_{mk} delta^l_j
    double = contract(contract(prod, 3, 1), 1, 1)  # B_{ik} = N^m_{si} N^s_{mk}
    d3 = permute_covariant(tensor_product(double, d), (1, 3, 2))
    # D4_{ijk} = N^m_{ij} N^s_{ms} delta^l_k
    trace2 = contract(n0, 2, 1)              # psi_m = N^s_{ms}
    phi = contract(tensor_product(n0, trace2), 3, 1)  # phi_{ij} = N^m_{ij} psi_m
    d4 = tensor_product(phi, d)
    # D5_{ijk} = N^m_{mi} N^s_{sj} delta^l_k
    d5 = tensor_product(tensor_product(trace1, trace1), d)
    return [d1, d2, d3, d4, d5]


@dataclass(frozen=True)
class GeneratorEntry:
    label: str
    form: EndValuedForm
    base: str      # which C/D tensor the entry came from
    pattern: str   # which skew pattern produced it


@dataclass(frozen=True)
class GeneratorFamily:
    entries: tuple[GeneratorEntry, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 19:
            raise ValueError(f"expected 19 generators, got {len(self.entries)}")

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]

    def fields(self) -> list[TensorField]:
        return [e.form.tensor for e in self.entries]

    def __getitem__(self, label: str) -> GeneratorEntry:
        for entry in self.entries:
            if entry.label == label:
                return entry
        raise KeyError(label)


# (base index, pattern) recipe for T1..T19, after removal of the dependent
# C3/(kij)-(kji) entry; see dropped_c3_generator.
_C_RECIPE = [
    ("C0", PATTERN_ID), ("C0", PATTERN_JKI), ("C0", PATTERN_KIJ),
    ("C1", PATTERN_ID), ("C1", PATTERN_JKI), ("C1", PATTERN_KIJ),
    ("C2", PATTERN_ID), ("C2", PATTERN_JKI), ("C2", PATTERN_KIJ),
    ("C3", PATTERN_ID), ("C3", PATTERN_JKI),
]
_D_RECIPE = [
    ("D1", PATTERN_ID), ("D1", PATTERN_JKI),
    ("D2", PATTERN_ID), ("D2", PATTERN_JKI),
    ("D3", PATTERN_ID),
    ("D4", PATTERN_ID), ("D4", PATTERN_JKI),
    ("D5", PATTERN_JKI),
]


def build_T_list(n0: TensorField, n1: TensorField) -> GeneratorFamily:
    """The ordered generators T1..T19.

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
    cs = dict(zip(["C0", "C1", "C2", "C3"], build_C_family(n1)))
    ds = dict(zip(["D1", "D2", "D3", "D4", "D5"], build_D_family(n0)))
    bases = {**cs, **ds}
    entries = []
    for index, (base, pattern) in enumerate(_C_RECIPE + _D_RECIPE, start=1):
        field = apply_pattern(bases[base], pattern)
        entries.append(
            GeneratorEntry(
                label=f"T{index}",
                form=EndValuedForm(2, field),
                base=base,
                pattern=pattern,
            )
        )
    return GeneratorFamily(tuple(entries))


def dropped_c3_generator(n1: TensorField) -> TensorField:
    """The (kij)-(kji) pattern on C3, removed from the family because it is
    a combination of T5, T6, T8, T9 and T11; the verification suite emits
    the exact coefficients."""
    c3 = build_C_family(n1)[3]
    return apply_pattern(c3, PATTERN_KIJ)


def doubled_d5_variant(n0: TensorField) -> TensorField:
    """Twice D5: symmetric in (i,j), hence not a valid 2-form entry."""
    return build_D_family(n0)[4].scale(2)


def vanishing_d3_pattern(n0: TensorField) -> TensorField:
    """The (jki)-(ikj) pattern on D3, identically zero for every input
    because the double trace N^m_{si} N^s_{mk} is symmetric in (i,k)."""
    return apply_pattern(build_D_family(n0)[2], PATTERN_JKI)


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
    p, q = source.p, source.q
    pbar, qbar = target.p, target.q
    if p - pbar != q - qbar:
        return []
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
    return schemes


def apply_scheme(scheme: ContractionScheme, field: TensorField) -> TensorField:
    """Evaluate the scheme on a field of the source type, as one gather:
    assigned slots feed target slots, each contracted pair reads one dummy
    index, and each delta fill ties a target covariant slot to a target
    contravariant one."""
    if field.shape != scheme.source:
        raise ValueError(f"field shape {field.shape} does not match scheme source {scheme.source}")
    p, pbar, qbar = scheme.source.p, scheme.target.p, scheme.target.q
    feeds = [0] * (p + scheme.source.q)
    for s, t in scheme.cov_assignment:
        feeds[s - 1] = t - 1
    for s, t in scheme.contra_assignment:
        feeds[p + s - 1] = pbar + t - 1
    for dummy, (s, c) in enumerate(scheme.contracted_pairs, start=pbar + qbar):
        feeds[s - 1] = feeds[p + c - 1] = dummy
    fills = [(u - 1, pbar + v - 1) for u, v in scheme.delta_fills]
    return _gather(field, TensorShape(pbar, qbar, field.shape.n), feeds, fills)
