"""Tensor index operations: pinned examples plus randomized structure checks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natforms import tensor
from natforms.generators import PATTERN_ID, apply_pattern
from natforms.geometry import curvature
from natforms.poly import Polynomial, parse
from natforms.tensor import (
    TensorField,
    TensorShape,
    contract,
    delta,
    equal,
    from_json_obj,
    is_antisymmetric,
    symmetrization_vanishes,
    to_json_obj,
    zero,
)
from reference_loops import (
    combine_terms_loop,
    is_antisymmetric_by_permutation,
    permute_covariant_loop,
    swap_perm,
    symmetrization_is_zero,
    tensor_product_loop,
)

N = 4


def field_from(entries, p, q, n=N):
    """Build a field from {(cov, contra): polynomial text} with 1-based indices."""
    shape = TensorShape(p, q, n)
    comps = {idx: parse(text, n) for idx, text in entries.items()}
    flat = []
    for idx in _all_indices(shape):
        flat.append(comps.get(idx, Polynomial.zero(n)))
    return TensorField(shape, tuple(flat))


def permuted(field, perm):
    """The field's covariant slots reindexed by perm (result slot s reads
    index v[perm[s]]), as one scatter term with permuted feeds."""
    p, q = field.shape.p, field.shape.q
    feeds = tuple(s - 1 for s in perm) + tuple(range(p, p + q))
    return tensor._scatter(field.shape, [(1, field, feeds, ())])


def antisymmetrized(field):
    """The field minus itself with covariant slots 1 and 2 swapped, as the
    skew patterns build it: one two-term scatter summed where i < j."""
    rest = tuple(range(2, field.shape.p + field.shape.q))
    terms = [(1, field, (0, 1) + rest, ()), (-1, field, (1, 0) + rest, ())]
    return tensor._scatter(field.shape, terms, lower=2)


def term_maps(field):
    """The coefficient view of every component, in storage order."""
    return [c.terms for c in field.components]


def constant_scalar(value, n=N):
    """The (0,0) field holding one constant polynomial."""
    return TensorField(TensorShape(0, 0, n), (Polynomial.constant(n, value),))


def _all_indices(shape):
    for idx in itertools.product(range(1, shape.n + 1), repeat=shape.p + shape.q):
        yield idx[: shape.p], idx[shape.p :]


def test_scalar_one_is_product_unit():
    # a pair term whose first factor, the scalar 1, has no slot
    t = field_from({((1, 2), (3,)): "x1", ((2, 1), (4,)): "-x3"}, p=2, q=1)
    assert equal(tensor._scatter(t.shape, [(1, (constant_scalar(1), t), (0, 1, 2), ())]), t)


def test_delta_trace_is_dimension():
    tr = contract(delta(N), 1, 1)
    assert tr.shape == TensorShape(0, 0, N)
    assert tr.components[0] == Polynomial.constant(N, N)


def test_delta_squared_full_trace():
    dd = tensor_product_loop(delta(N), delta(N))
    total = contract(contract(dd, 1, 1), 1, 1)
    assert total.components[0] == Polynomial.constant(N, N * N)


def test_product_of_zero_fields_is_zero():
    # the pair term of z (x) z, each factor's slots in place in its variance class
    z = zero(TensorShape(2, 1, N))
    assert tensor._scatter(TensorShape(4, 2, N), [(1, (z, z), (0, 1, 4, 2, 3, 5), ())]).is_zero


def test_contract_slot_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        contract(delta(N), 2, 1)
    with pytest.raises(ValueError, match="out of range"):
        contract(delta(N), 1, 2)


def test_permute_identity():
    t = field_from({((1, 2, 3), (4,)): "x2"}, p=3, q=1)
    assert equal(permuted(t, (1, 2, 3)), t)


def test_permute_inverse_round_trip():
    t = field_from({((1, 2, 3), (4,)): "x2", ((2, 4, 1), (1,)): "x1*x3"}, p=3, q=1)
    perm = (2, 3, 1)
    inv = (3, 1, 2)
    assert equal(permuted(permuted(t, perm), inv), t)


def test_permute_cycle_law():
    # applying the (jki) reindexing twice equals applying (kij) once
    t = field_from({((1, 2, 3), (4,)): "x2", ((3, 1, 2), (2,)): "x4^2"}, p=3, q=1)
    jki, kij = (2, 3, 1), (3, 1, 2)
    twice = permuted(permuted(t, jki), jki)
    assert equal(twice, permuted(t, kij))


def test_apply_pattern_refuses_a_base_that_is_not_3_1():
    # a pattern's three-slot reindexing on a base of two covariant slots
    with pytest.raises(ValueError, match=r"expected a \(3,1\) base"):
        apply_pattern(zero(TensorShape(2, 1, N)), PATTERN_ID)


def test_insert_delta_on_one_form():
    # a delta fill ties output slot 2 to output slot 3: theta_i delta^l_k
    theta = field_from({((1,), ()): "x2", ((3,), ()): "x4"}, p=1, q=0)
    lifted = tensor._scatter(TensorShape(2, 1, N), [(1, theta, (0,), ((1, 2),))])
    assert lifted.shape == TensorShape(2, 1, N)
    for i in range(1, N + 1):
        for k in range(1, N + 1):
            for l in range(1, N + 1):
                expected = theta.get((i,), ()) if k == l else Polynomial.zero(N)
                assert lifted.get((i, k), (l,)) == expected


def test_insert_delta_full_trace_of_scalar():
    lifted = tensor._scatter(TensorShape(1, 1, N), [(1, constant_scalar(1), (), ((0, 1),))])
    assert contract(lifted, 1, 1).components[0] == Polynomial.constant(N, N)


def test_antisymmetrize_symmetric_input_vanishes():
    sym = field_from({((1, 2), ()): "x3", ((2, 1), ()): "x3"}, p=2, q=0)
    assert antisymmetrized(sym).is_zero


def test_antisymmetrize_doubles_antisymmetric_input():
    anti = field_from({((1, 2), ()): "x3", ((2, 1), ()): "-x3"}, p=2, q=0)
    assert equal(antisymmetrized(anti), anti.scale(2))


def test_antisymmetrize_is_projector_up_to_scale():
    t = field_from({((1, 2), (3,)): "x1", ((2, 2), (1,)): "x2*x3"}, p=2, q=1)
    once = antisymmetrized(t)
    twice = antisymmetrized(once)
    assert equal(twice, once.scale(2))


def test_antisymmetrize_sets_verified_metadata():
    t = field_from({((1, 2), (3,)): "x1"}, p=2, q=1)
    assert not is_antisymmetric(t, 1, 2)
    assert is_antisymmetric(antisymmetrized(t), 1, 2)
    assert is_antisymmetric(antisymmetrized(t), 2, 1)


def assert_antisymmetry_matches_reference(t):
    p = t.shape.p
    for s1, s2 in itertools.permutations(range(1, p + 1), 2):
        assert is_antisymmetric(t, s1, s2) == is_antisymmetric_by_permutation(t, s1, s2), (s1, s2)


def test_is_antisymmetric_fails_on_the_diagonal_alone():
    anti = field_from({((1, 2), (3,)): "x1", ((2, 1), (3,)): "-x1"}, p=2, q=1)
    assert is_antisymmetric(anti, 1, 2)
    comps = list(anti.components)
    comps[tensor._flat(N, (1, 1, 0))] = parse("x4", N)  # component (2,2;1)
    diagonal = TensorField(anti.shape, tuple(comps))
    assert not is_antisymmetric(diagonal, 1, 2)
    assert not is_antisymmetric(diagonal, 2, 1)
    assert_antisymmetry_matches_reference(anti)
    assert_antisymmetry_matches_reference(diagonal)


def test_is_antisymmetric_on_non_adjacent_slots():
    t = field_from(
        {((1, 2, 3), (4,)): "x1", ((2, 2, 1), (1,)): "x2*x3", ((4, 1, 1), (2,)): "3"}, p=3, q=1
    )
    outer = t - permute_covariant_loop(t, (3, 2, 1))
    assert is_antisymmetric(outer, 1, 3) and is_antisymmetric(outer, 3, 1)
    assert not is_antisymmetric(outer, 1, 2) and not is_antisymmetric(outer, 2, 3)
    assert_antisymmetry_matches_reference(t)
    assert_antisymmetry_matches_reference(outer)


def test_is_antisymmetric_compares_coefficient_values():
    mono = (1, 0, 0, 0)
    zero_poly = Polynomial.zero(N)

    def pair(upper, lower):
        comps = [zero_poly] * N**2
        comps[tensor._flat(N, (0, 1))] = Polynomial(N, {mono: upper})
        comps[tensor._flat(N, (1, 0))] = Polynomial(N, {mono: lower})
        return TensorField(TensorShape(2, 0, N), tuple(comps))

    # numerators past the small-int cache: a comparison of int objects by
    # identity instead of value would fail here
    assert is_antisymmetric(pair(int("9" * 30), -int("9" * 30)), 1, 2)
    assert is_antisymmetric(pair(Fraction(3), -3), 1, 2)
    assert not is_antisymmetric(pair(Fraction(3), 3), 1, 2)
    # the numerators negate each other but the denominators differ
    assert not is_antisymmetric(pair(Fraction(3, 2), Fraction(-3, 4)), 1, 2)
    assert not is_antisymmetric(pair(Fraction(3, 2), -3), 1, 2)
    # a/6 against -a/6
    assert is_antisymmetric(pair(Fraction(5, 6), Fraction(-5, 6)), 1, 2)
    assert not is_antisymmetric(pair(Fraction(5, 6), Fraction(5, 6)), 1, 2)
    for upper, lower in (
        (Fraction(3), -3),
        (Fraction(3), 3),
        (Fraction(3, 2), -3),
        (Fraction(5, 6), Fraction(-5, 6)),
    ):
        assert_antisymmetry_matches_reference(pair(upper, lower))


def test_is_antisymmetric_rejects_invalid_slots(ref_conn):
    r = curvature(ref_conn).tensor
    for s1, s2 in ((0, 3), (3, 3), (1, 4), (4, 1)):
        with pytest.raises(ValueError, match="invalid covariant slot pair"):
            is_antisymmetric(r, s1, s2)


def test_pointwise_operations_pass_zero_components_through():
    # a = (x1, 0, x2, 0) and b = (0, x1*x2, x2 - 1, 0) as (1,1) fields on R^2
    a = field_from({((1,), (1,)): "x1", ((2,), (1,)): "x2"}, 1, 1, n=2)
    b = field_from({((1,), (2,)): "x1*x2", ((2,), (1,)): "x2 - 1"}, 1, 1, n=2)
    (a0, a1, a2, a3), (b0, b1, b2, b3) = a.components, b.components
    total = (a + b).components
    assert total[0] is a0 and total[1] is b1 and total[3].is_zero
    assert total[2] == parse("2*x2 - 1", 2)
    difference = (a - b).components
    assert difference[0] is a0 and difference[3].is_zero
    assert difference[1] == -b1 and difference[2] == Polynomial.constant(2, 1)
    negated = (-a).components
    assert negated[1] is a1 and negated[3] is a3 and negated[0] == -a0
    scaled = a.scale(Fraction(3, 2)).components
    assert scaled[1] is a1 and scaled[3] is a3 and scaled[2] == parse("3/2*x2", 2)
    assert a.scale(1) is a
    with pytest.raises(TypeError, match="int or Fraction"):
        zero(a.shape).scale(0.5)
    with pytest.raises(ValueError, match="shape mismatch"):
        a - zero(TensorShape(1, 1, 3))


def test_equal_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        equal(zero(TensorShape(2, 1, N)), zero(TensorShape(1, 1, N)))


def test_json_round_trip_and_sorting():
    t = field_from(
        {((2, 1), (4,)): "-x3", ((1, 2), (3,)): "x1*x4 + 2*x2^2"}, p=2, q=1
    )
    obj = to_json_obj(t)
    assert [e["cov"] for e in obj["components"]] == [[1, 2], [2, 1]]
    assert equal(from_json_obj(obj), t)


def test_json_rejects_duplicate_entries():
    obj = {
        "shape": {"p": 1, "q": 0, "n": 2},
        "components": [
            {"cov": [1], "contra": [], "poly": "x1"},
            {"cov": [1], "contra": [], "poly": "x2"},
        ],
    }
    with pytest.raises(ValueError, match="duplicate"):
        from_json_obj(obj)


def test_json_rejects_out_of_range_index():
    obj = {
        "shape": {"p": 1, "q": 0, "n": 2},
        "components": [{"cov": [3], "contra": [], "poly": "x1"}],
    }
    with pytest.raises(ValueError, match="out of range"):
        from_json_obj(obj)


# -- randomized structure checks ------------------------------------------------

SMALL_N = 2

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(lambda c: c != 0),
    max_size=2,
).map(lambda terms: Polynomial(SMALL_N, terms))


def small_fields(p, q):
    shape = TensorShape(p, q, SMALL_N)
    return st.tuples(*[small_polys] * shape.size).map(lambda cs: TensorField(shape, cs))


@given(small_fields(3, 1))
@settings(max_examples=40)
def test_contract_commutes_with_uninvolved_permutation(t):
    swapped = permuted(t, (2, 1, 3))
    lhs = contract(swapped, 3, 1)
    rhs = permuted(contract(t, 3, 1), (2, 1))
    assert equal(lhs, rhs)


@given(small_fields(2, 1))
@settings(max_examples=40)
def test_antisymmetrize_output_negates_under_swap(t):
    out = antisymmetrized(t)
    assert is_antisymmetric(out, 1, 2)
    swapped = permuted(out, (2, 1))
    assert equal(swapped, -out)


@given(small_fields(3, 1), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40)
def test_is_antisymmetric_matches_permutation_reference(t, s1, s2):
    assert_antisymmetry_matches_reference(t)
    if s1 != s2:
        assert_antisymmetry_matches_reference(t - permute_covariant_loop(t, swap_perm(3, s1, s2)))


# -- sparse fields: the support and the readers that walk it ----------------------


def nonzero_polys(n):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 1)] * n),
        st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(lambda c: c != 0),
        min_size=1,
        max_size=2,
    ).map(lambda terms: Polynomial(n, terms))


@st.composite
def sparse_fields(draw, shapes=None):
    """A field in dimension 2 or 3 with 0 to 3 nonzero components, of one of
    the given (p, q) types, by default any with p + q <= 4."""
    p, q = draw(st.sampled_from(shapes or [(p, s - p) for s in range(5) for p in range(s + 1)]))
    shape = TensorShape(p, q, draw(st.integers(2, 3)))
    comps = [Polynomial.zero(shape.n)] * shape.size
    for pos in draw(st.lists(st.integers(0, shape.size - 1), max_size=3, unique=True)):
        comps[pos] = draw(nonzero_polys(shape.n))
    return TensorField(shape, tuple(comps))


@st.composite
def paired_fields(draw):
    """A (2,1) or (3,1) field in dimension 3.  Up to 3 drawn components
    whose first two indices i < j each meet, at their slot swap, their
    recorded negation, a value-equal negation, another value or zero; at
    most one more drawn component, anywhere, may sit on the diagonal i = j
    or stand lone at i > j."""
    n, p = 3, draw(st.sampled_from([2, 3]))
    shape = TensorShape(p, 1, n)
    block = n ** p // n  # positions per index pair of slots 1 and 2
    comps = [Polynomial.zero(n)] * shape.size
    lower = [pos for pos in range(shape.size) if pos // (n * block) < pos // block % n]
    kinds = ["recorded", "recorded", "equal", "equal", "other", "zero"]
    for pos in draw(st.lists(st.sampled_from(lower), max_size=3, unique=True)):
        i, j, rest = pos // (n * block), pos // block % n, pos % block
        comps[pos] = value = draw(nonzero_polys(n))
        swap = (j * n + i) * block + rest
        kind = draw(st.sampled_from(kinds))
        if kind == "recorded":
            comps[swap] = -value
        elif kind == "equal":
            comps[swap] = Polynomial(n, {m: -c for m, c in value.terms.items()})
        elif kind == "other":
            comps[swap] = draw(nonzero_polys(n))
    for pos in draw(st.lists(st.integers(0, shape.size - 1), max_size=1)):
        comps[pos] = draw(nonzero_polys(n))
    return TensorField(shape, tuple(comps))


@given(paired_fields())
@settings(max_examples=80)
def test_is_antisymmetric_counting_the_lower_half_matches_the_permutation_reference(t):
    assert_antisymmetry_matches_reference(t)


def test_scaling_keeps_recorded_negations():
    # alternation stores one object at (1, 2) and its recorded negation at
    # (2, 1); negating or scaling the field maps each object once
    x = parse("x1 + 1/2*x2", N)
    comps = [Polynomial.zero(N)] * N**3
    for i, j in [(0, 1), (1, 0)]:
        comps[tensor._flat(N, (i, j, 2))] = x if i < j else -x
    t = TensorField(TensorShape(2, 1, N), tuple(comps))
    even, odd = tensor._flat(N, (0, 1, 2)), tensor._flat(N, (1, 0, 2))
    for got, factor in [(-t, -1), (t.scale(-1), -1), (t.scale(Fraction(2, 3)), Fraction(2, 3))]:
        assert got.components[odd]._negated is got.components[even]
        assert got.components[even] == x.scale(factor)
        assert got.support == t.support


@given(sparse_fields())
@settings(max_examples=60)
def test_support_is_the_nonzero_positions(t):
    assert t.support == tuple(pos for pos, c in enumerate(t.components) if not c.is_zero)
    assert t.is_zero == (t.support == ())
    assert t.is_zero == all(c.is_zero for c in t.components)


@given(sparse_fields([(p, q) for p in range(2, 5) for q in range(5 - p)]))
@settings(max_examples=60)
def test_is_antisymmetric_on_sparse_fields_matches_permutation_reference(t):
    assert_antisymmetry_matches_reference(t)
    # and on a field that is antisymmetric in slots 1, 2, built by the loop
    anti = t - permute_covariant_loop(t, (2, 1, *range(3, t.shape.p + 1)))
    assert is_antisymmetric(anti, 1, 2)
    assert_antisymmetry_matches_reference(anti)


def test_zero_field_has_empty_support():
    z = zero(TensorShape(2, 1, 3))
    assert z.support == () and z.is_zero
    assert is_antisymmetric(z, 1, 2)
    assert contract(z, 1, 1).is_zero and permuted(z, (2, 1)).is_zero


def test_lone_component_below_the_diagonal_is_not_antisymmetric():
    # (2,1;1) sits below the diagonal of slots 1, 2 and its partner (1,2;1) is zero
    t = field_from({((2, 1), (1,)): "x1"}, 2, 1, n=3)
    assert t.support == (tensor._flat(3, (1, 0, 0)),)
    assert not is_antisymmetric(t, 1, 2)
    assert not is_antisymmetric(t, 2, 1)
    assert_antisymmetry_matches_reference(t)


def test_lone_diagonal_component_is_not_antisymmetric():
    t = field_from({((2, 1, 2), ()): "3/2"}, 3, 0, n=2)
    assert not is_antisymmetric(t, 1, 3)
    assert not is_antisymmetric(t, 1, 2)  # its partner (1,2,2) is zero
    assert_antisymmetry_matches_reference(t)


# -- sums of fields: one scatter, one combination per touched position -------------


@given(st.data())
@settings(max_examples=80)
def test_scatter_of_permuted_terms_matches_permute_scale_and_add(data):
    t = data.draw(sparse_fields())
    u = data.draw(sparse_fields([(t.shape.p, t.shape.q)]).filter(lambda f: f.n == t.n))
    slots = range(1, t.shape.p + 1)
    terms = data.draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.sampled_from([t, u]), st.permutations(slots)),
            max_size=4,
        )
    )
    contra = tuple(range(t.shape.p, t.shape.p + t.shape.q))
    scattered = [(c, f, tuple(s - 1 for s in pm) + contra, ()) for c, f, pm in terms]
    assert term_maps(tensor._scatter(t.shape, scattered)) == combine_terms_loop(t.shape, terms)
    # a pair term (t, u), u with its covariant slots permuted, adds 2 * t * u'
    # at every position; the factor read from u' may be zero
    perm = data.draw(st.permutations(slots))
    feeds = tuple(range(t.shape.p + t.shape.q)) + tuple(s - 1 for s in perm) + contra
    got = tensor._scatter(t.shape, scattered + [(2, (t, u), feeds, ())])
    u_permuted = permute_covariant_loop(u, perm)
    products = {
        pos: [(2, t.components[pos], u_permuted.components[pos])] for pos in range(t.shape.size)
    }
    assert term_maps(got) == combine_terms_loop(t.shape, terms, products)
    # + and - of two fields are the two terms with identity permutations
    identity = tuple(slots)
    assert term_maps(t + u) == combine_terms_loop(t.shape, [(1, t, identity), (1, u, identity)])
    assert term_maps(t - u) == combine_terms_loop(t.shape, [(1, t, identity), (-1, u, identity)])


@given(sparse_fields([(p, q) for p in range(2, 5) for q in range(5 - p)]))
@settings(max_examples=40)
def test_antisymmetrize_pair_matches_the_loop_reference_at_every_slot_pair(t):
    """The two-term scatter of t and t with slots s1, s2 swapped, in full
    at every slot pair and, at (1, 2), summed at i < j and alternated."""
    p, q = t.shape.p, t.shape.q
    identity = tuple(range(1, p + 1))
    contra = tuple(range(p, p + q))
    for s1, s2 in itertools.permutations(range(1, p + 1), 2):
        swap = swap_perm(p, s1, s2)
        want = combine_terms_loop(t.shape, [(1, t, identity), (-1, t, swap)])
        terms = [(1, t, tuple(range(p + q)), ()), (-1, t, tuple(s - 1 for s in swap) + contra, ())]
        assert term_maps(tensor._scatter(t.shape, terms)) == want, (s1, s2)
        if (s1, s2) == (1, 2):
            assert term_maps(antisymmetrized(t)) == want


def test_scatter_shares_a_lone_unit_term_and_records_a_lone_negation():
    t = field_from({((1, 2), (1,)): "x1 - 1/2*x3", ((2, 1), (2,)): "3"}, 2, 1)
    source = t.get((1, 2), (1,))
    got = permuted(t, (2, 1))
    assert equal(got, permute_covariant_loop(t, (2, 1)))
    assert got.get((2, 1), (1,)) is source
    # a lone (-1, p) is the negation of p, which records p
    negated = tensor._scatter(t.shape, [(-1, t, (1, 0, 2), ())]).get((2, 1), (1,))
    assert negated == -source and negated._negated is source
    # + and - land a lone component of either field the same way
    z = zero(t.shape)
    assert (z + t).get((1, 2), (1,)) is source and (t + z).get((1, 2), (1,)) is source
    assert (z - t).get((1, 2), (1,))._negated is source
    assert (t - t).is_zero
    # a lone term is still one combination, which refuses a coefficient that is not an int
    for c in (True, 1.0):
        with pytest.raises(TypeError, match="coefficients must be int"):
            tensor._scatter(t.shape, [(c, t, (0, 1, 2), ())])


# -- antisymmetry answered by negation identity ------------------------------------


def test_recorded_negation_is_antisymmetric_by_identity():
    x = parse("x1 + 2*x2", N)
    comps = [Polynomial.zero(N)] * N**3
    comps[tensor._flat(N, (0, 1, 0))], comps[tensor._flat(N, (1, 0, 0))] = x, -x
    t = TensorField(TensorShape(2, 1, N), tuple(comps))
    assert t.get((2, 1), (1,))._negated is t.get((1, 2), (1,))
    assert tensor._negatives(x, -x) and tensor._negatives(-x, x)
    assert is_antisymmetric(t, 1, 2) and is_antisymmetric(-t, 1, 2)


def test_separately_built_negations_are_compared_by_value():
    pair = {((1, 2), (1,)): "x1 + 2*x2"}
    # an equal-valued negation built on its own, not by negating x
    same = field_from({**pair, ((2, 1), (1,)): "-x1 - 2*x2"}, 2, 1)
    assert is_antisymmetric(same, 1, 2)
    x, partner = same.get((1, 2), (1,)), same.get((2, 1), (1,))
    assert partner._negated is None and tensor._negatives(x, partner)
    # the negation of a different polynomial is not a partner
    other = parse("x1 + 3*x2", N)
    comps = list(same.components)
    comps[tensor._flat(N, (1, 0, 0))] = -other
    assert not is_antisymmetric(TensorField(same.shape, tuple(comps)), 1, 2)
    assert not tensor._negatives(x, -other) and not tensor._negatives(-other, x)
    # nor is the negation of an equal-valued copy of a different component
    comps[tensor._flat(N, (1, 0, 0))] = -parse("x1 + 2*x2 + x3", N)
    assert not is_antisymmetric(TensorField(same.shape, tuple(comps)), 1, 2)


def test_a_recorded_negation_at_the_wrong_partner_fails():
    x, y = parse("x1", N), parse("x2", N)
    comps = [Polynomial.zero(N)] * N**3
    comps[tensor._flat(N, (0, 1, 0))], comps[tensor._flat(N, (1, 0, 0))] = x, -y
    comps[tensor._flat(N, (0, 2, 0))], comps[tensor._flat(N, (2, 0, 0))] = y, -x
    assert not is_antisymmetric(TensorField(TensorShape(2, 1, N), tuple(comps)), 1, 2)


# -- the symmetrization over one representative per orbit ----------------------------


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_symmetrization_vanishes_matches_the_six_permutation_reference(data):
    t = data.draw(sparse_fields([(3, 1)]))
    assert symmetrization_vanishes(t) == symmetrization_is_zero(t)
    # antisymmetric in one pair: the full symmetrization is zero
    s1, s2 = data.draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    anti = t - permute_covariant_loop(t, swap_perm(3, s1, s2))
    assert symmetrization_vanishes(anti) and symmetrization_is_zero(anti)
    # the sum of the two stays zero iff t's symmetrization does
    both = t + anti
    assert symmetrization_vanishes(both) == symmetrization_is_zero(both)
    assert symmetrization_vanishes(both) == symmetrization_is_zero(t)


@pytest.mark.parametrize(
    "entries, vanishes",
    [
        ({}, True),
        ({((1, 2, 3), (1,)): "x1"}, False),
        ({((1, 2, 3), (1,)): "x1", ((3, 1, 2), (1,)): "-x1"}, True),
        ({((1, 2, 3), (1,)): "x1", ((3, 1, 2), (2,)): "-x1"}, False),
        ({((1, 1, 2), (1,)): "x1", ((2, 1, 1), (1,)): "-1/2*x1"}, False),
        ({((1, 1, 2), (1,)): "x1", ((2, 1, 1), (1,)): "-x1"}, True),
        ({((2, 2, 2), (4,)): "3"}, False),
        ({((1, 2, 3), (1,)): "x1", ((2, 1, 3), (1,)): "x2", ((3, 2, 1), (1,)): "-x1 - x2"}, True),
    ],
)
def test_symmetrization_vanishes_on_pinned_fields(entries, vanishes):
    t = field_from(entries, 3, 1)
    assert symmetrization_vanishes(t) == symmetrization_is_zero(t) == vanishes


def test_symmetrization_of_curvature_terms():
    from natforms.geometry import Invariants, reference_connection

    q = Invariants(reference_connection())
    assert symmetrization_vanishes(q.normal1)
    r = q.curvature.tensor
    assert symmetrization_vanishes(r) == symmetrization_is_zero(r)


# -- the one constructor of alternating fields ---------------------------------------

@st.composite
def alternating_values(draw):
    """A shape, a count k of leading alternating covariant slots, 0 to 3,
    and up to 4 (position, value) pairs at strictly increasing indices
    there, some values zero."""
    n = draw(st.integers(2, 4))
    p, q = draw(st.integers(1, 4 if n < 4 else 3)), draw(st.integers(0, 1))
    k = draw(st.integers(0, min(p, 3)))
    increasing = [
        pos
        for pos, idx in enumerate(itertools.product(range(n), repeat=p + q))
        if all(a < b for a, b in zip(idx[:k], idx[1:k]))
    ]
    values = []
    if increasing:
        values_of = st.one_of(nonzero_polys(n), st.just(Polynomial.zero(n)))
        for pos in draw(st.lists(st.sampled_from(increasing), max_size=4, unique=True)):
            values.append((pos, draw(values_of)))
    return TensorShape(p, q, n), k, values


def assert_alternates(field, k, values):
    """Each even ordering of the first k slots holds the value given at
    increasing indices, each odd one the one recorded negation of it, and
    every other component, repeated indices and zero values included, the
    one zero."""
    n, comps, given = field.shape.n, field.components, dict(values)
    negations = {}
    for pos, idx in enumerate(itertools.product(range(n), repeat=field.shape.p + field.shape.q)):
        digits = idx[:k]
        sorted_idx = sorted(digits) + list(idx[k:])
        value = given.get(tensor._flat(n, sorted_idx)) if len(set(digits)) == len(digits) else None
        if value is None or not value.numerators:
            assert not comps[pos].numerators, pos
        elif sum(1 for a, b in itertools.combinations(digits, 2) if a > b) % 2:
            assert comps[pos]._negated is value, pos
            negations.setdefault(id(value), set()).add(id(comps[pos]))
        else:
            assert comps[pos] is value, pos
    zeros = {id(c) for c in comps if not c.numerators}
    assert len(zeros) <= 1  # a zero value is skipped, not stored
    assert all(len(held) == 1 for held in negations.values())
    if k < 2:
        assert not negations  # no odd ordering, so no negation is built


@given(alternating_values())
@settings(max_examples=30)
def test_alternating_holds_one_object_per_class(drawn):
    shape, k, values = drawn
    assert_alternates(tensor._alternating(shape, k, values), k, values)


@pytest.mark.parametrize("k", range(4))
def test_alternating_pinned_values(k):
    # a value at every increasing index tuple, every fifth of them zero
    shape = TensorShape(3, 1, 3)
    values = []
    for pos, idx in enumerate(itertools.product(range(3), repeat=4)):
        if all(a < b for a, b in zip(idx[:k], idx[1:k])):
            values.append((pos, parse(f"x1 + {pos}", 3) if pos % 5 else Polynomial.zero(3)))
    field = tensor._alternating(shape, k, values)
    assert_alternates(field, k, values)
    for s1, s2 in itertools.combinations(range(1, k + 1), 2):
        assert is_antisymmetric(field, s1, s2)
