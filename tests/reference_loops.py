"""Straightforward reference versions of optimized library loops.

Each function here evaluates its formula the direct way: the exterior
covariant differentials at every ordering of the directions, and the
antisymmetry test by building the slot-swapped field and negating it.
The library computes the same results with less work; the tests require
exact equality with these versions.
"""

import itertools

from natforms.geometry import EndValuedForm, VectorValuedForm, _gamma_tables
from natforms.poly import Polynomial
from natforms.tensor import TensorField, TensorShape, _flat, _swap_perm, permute_covariant


def ext_cov_deriv_vector_all_orderings(conn, alpha):
    """(d alpha)^l_{i0..ik} = sum_r (-1)^r [ d_{i_r} alpha^l_{..omit r..}
    + Gamma^l_{i_r m} alpha^m_{..omit r..} ], at every index tuple."""
    n, k = conn.dimension, alpha.degree
    out_table, _ = _gamma_tables(conn)
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
            for m, g in out_table[directions[r]][l]:
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
    out_table, in_table = _gamma_tables(conn)
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
            for m, g in out_table[directions[r]][l]:
                comp = src[_flat(n, base + (a - 1, m - 1))]
                if not comp.is_zero:
                    term = term + g * comp
            for m, g in in_table[directions[r]][a]:
                comp = src[_flat(n, base + (m - 1, l - 1))]
                if not comp.is_zero:
                    term = term - g * comp
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        comps.append(acc)
    return EndValuedForm(k + 1, TensorField(TensorShape(k + 2, 1, n), tuple(comps)))


def is_antisymmetric_by_permutation(a, s1, s2):
    """a equals minus a with covariant slots s1 and s2 swapped."""
    swapped = permute_covariant(a, _swap_perm(a.shape.p, s1, s2))
    return a.components == tuple(-c for c in swapped.components)
