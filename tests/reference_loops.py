"""Straightforward reference versions of optimized library loops.

Each function here evaluates its formula the direct way: the covariant
derivative and the exterior (covariant) differentials at every index
tuple, each with its own loop, and the antisymmetry test by building the
slot-swapped field and negating it.  Christoffel symbols are read through
``Connection.gamma`` only, so no table code is shared with the library's
derivative kernel.  The library computes the same results with less work
and one shared kernel; the tests require exact equality with these
versions.
"""

import itertools

from natforms.geometry import EndValuedForm, VectorValuedForm
from natforms.poly import Polynomial
from natforms.tensor import TensorField, TensorShape, _flat, _swap_perm, permute_covariant


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
    """(DT)^{contra}_{cov,k} = d_k T^{contra}_{cov} - one Gamma^m_{k a} term
    per covariant slot + one Gamma^l_{k m} term per contravariant slot."""
    n, p, q = field.shape.n, field.shape.p, field.shape.q
    out_shape = TensorShape(p + 1, q, n)
    comps = []
    for idx in itertools.product(range(1, n + 1), repeat=p + 1 + q):
        cov, k, contra = idx[:p], idx[p], idx[p + 1 :]
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


def is_antisymmetric_by_permutation(a, s1, s2):
    """a equals minus a with covariant slots s1 and s2 swapped."""
    swapped = permute_covariant(a, _swap_perm(a.shape.p, s1, s2))
    return a.components == tuple(-c for c in swapped.components)
