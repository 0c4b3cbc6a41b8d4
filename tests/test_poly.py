"""Exact polynomial arithmetic: pinned examples, ring laws, parser round-trip."""

import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import natforms
from natforms.poly import _LAYOUTS, ParseError, Polynomial, _pack, grlex_key, parse, to_string
from reference_loops import (
    add_product_tuples,
    add_terms,
    combination_tuples,
    fraction_terms,
    mul_terms,
    partial_derivative_tuples,
    partial_terms,
    scale_terms,
    sub_terms,
    tuple_numerators,
    tuple_view,
)

# the directory natforms is imported from, for subprocesses
SRC = os.path.dirname(os.path.dirname(os.path.abspath(natforms.__file__)))


def p(text: str, n: int = 4) -> Polynomial:
    return parse(text, n)


# -- coefficient representation -----------------------------------------------

def test_rational_invariants():
    # lowest terms, positive denominator, zero canonical as 0/1
    c = Fraction(4, -6)
    assert (c.numerator, c.denominator) == (-2, 3)
    assert (Fraction(0, 5).numerator, Fraction(0, 5).denominator) == (0, 1)


def test_integral_coefficients_are_int():
    assert Polynomial.constant(4, Fraction(6, 3)).terms == {(0, 0, 0, 0): 2}
    assert type(Polynomial.constant(4, Fraction(6, 3)).terms[(0, 0, 0, 0)]) is int
    half = p("1/2*x1")
    assert type(half.terms[(1, 0, 0, 0)]) is Fraction
    assert type((half + half).terms[(1, 0, 0, 0)]) is int
    assert type(half.scale(4).terms[(1, 0, 0, 0)]) is int
    assert type((half * p("2")).terms[(1, 0, 0, 0)]) is int
    assert type(p("1/2*x1^2").partial_derivative(1).terms[(1, 0, 0, 0)]) is int


def packed(terms: dict) -> dict:
    """The numerator map of exponent-tuple terms, keyed as ``numerators`` is."""
    return {_pack(4, mono): c for mono, c in terms.items()}


def test_numerators_over_one_denominator():
    half = p("1/2*x1 - 1/3*x2 + 5/6")
    assert half.denominator == 6
    assert half.numerators == packed({(1, 0, 0, 0): 3, (0, 1, 0, 0): -2, (0, 0, 0, 0): 5})
    # the gcd step: (1/6 + 1/6) x1 is 1/3 x1, not 2/6 x1
    sixth = p("1/6*x1 + 1/6*x2")
    assert (sixth + sixth).numerators == packed({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
    assert (sixth + sixth).denominator == 3
    mixed = half + p("1/2*x1 - 1/6")
    assert (mixed.numerators, mixed.denominator) == (
        packed({(1, 0, 0, 0): 3, (0, 1, 0, 0): -1, (0, 0, 0, 0): 2}), 3
    )
    assert (p("1/3*x1") * p("3/2*x2")).denominator == 2
    assert (half - half).denominator == 1 and (half - half).is_zero
    assert p("1/2*x1^2").partial_derivative(1).denominator == 1
    assert half.scale(6).denominator == 1


def test_coefficient_view_decodes_the_numerators():
    half = p("1/2*x1 + x2")
    assert half.terms == {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): 1}
    whole = p("2*x1 + x2")
    assert whole.terms == {(1, 0, 0, 0): 2, (0, 1, 0, 0): 1}
    assert whole.numerators == packed(whole.terms)


@pytest.mark.parametrize("text", ["x1", "x2 + 1/2*x1"])
def test_changing_a_coefficient_view_leaves_the_polynomial_alone(text):
    poly = p(text)
    view = poly.terms
    view[(0, 0, 0, 0)] = 5
    del view[(1, 0, 0, 0)]
    assert poly.terms == p(text).terms and (1, 0, 0, 0) in poly.terms
    assert to_string(poly) == text
    assert poly == p(text)


# Values that are not an exact int or Fraction: a float, a string, a bool,
# None, a complex number and a Decimal.
INEXACT = [0.1, 0.5, 2.0, "1e-3", "1", True, False, None, 1 + 0j, Decimal("0.1")]


@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_inexact_coefficients_are_refused(value):
    x1 = Polynomial.variable(4, 1)
    with pytest.raises(TypeError, match="int or Fraction"):
        Polynomial(4, {(1, 0, 0, 0): value})
    with pytest.raises(TypeError, match="int or Fraction"):
        Polynomial.constant(4, value)
    for poly in (x1, Polynomial.zero(4)):
        with pytest.raises(TypeError, match="int or Fraction"):
            poly.scale(value)
        with pytest.raises(TypeError, match="int or Fraction"):
            poly * value
        with pytest.raises(TypeError, match="int or Fraction"):
            value * poly


@pytest.mark.parametrize("exponent", [2.0, True, "2", Fraction(2)], ids=repr)
def test_non_int_exponents_are_refused(exponent):
    with pytest.raises(TypeError, match="exponents must be int"):
        Polynomial.variable(4, 1) ** exponent


@pytest.mark.parametrize("flag", [True, False, 1.0, "1"], ids=repr)
def test_bool_exponents_and_indices_are_refused(flag):
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        Polynomial(2, {(flag, 0): 3})
    with pytest.raises(ValueError, match="variable index"):
        Polynomial.variable(2, flag)
    with pytest.raises(ValueError, match="coordinate index"):
        Polynomial.variable(2, 1).partial_derivative(flag)


# -- addition ------------------------------------------------------------------

def test_add_inverse_cancels():
    assert (p("x3") + p("-x3")).is_zero


def test_add_doubles_equal_monomials():
    assert p("x1*x4") + p("x1*x4") == p("2*x1*x4")


def test_add_hand_expansion():
    # (x1 + x2) + (x2 + x3) = x1 + 2*x2 + x3, expanded by hand
    assert p("x1 + x2") + p("x2 + x3") == p("x1 + 2*x2 + x3")


def test_add_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        p("x1", 3) + p("x1", 4)


# -- multiplication ------------------------------------------------------------

def test_mul_absorbing_zero():
    assert (p("x3") * Polynomial.zero(4)).is_zero


def test_mul_monomials():
    assert p("x2*x4") * p("x3") == p("x2*x3*x4")


def test_square_hand_expansion():
    # (x1 + x2)^2 = x1^2 + 2*x1*x2 + x2^2
    assert p("x1 + x2") ** 2 == p("x1^2 + 2*x1*x2 + x2^2")


def test_power_equals_repeated_multiplication():
    base = p("x1 - 1/2*x3")
    product = Polynomial.constant(4, 1)
    for exponent in range(6):
        assert base ** exponent == product, exponent
        product = product * base


def test_huge_power_is_one_monomial():
    # repeated squaring takes ~27 multiplications of one monomial; the
    # subprocess timeout turns a regression to linear multiplication into a
    # failure, not a hang
    code = (
        "from natforms.poly import Polynomial; "
        "print(list((Polynomial.variable(4, 3) ** 99999999).terms.items()))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[((0, 0, 99999999, 0), 1)]"


def test_scale_by_rational():
    assert p("x1").scale(Fraction(1, 2)) == p("1/2*x1")
    assert 2 * p("x1") == p("2*x1")


# -- partial derivatives ---------------------------------------------------------

def test_derivative_of_coordinate():
    assert p("x3").partial_derivative(3) == p("1")


def test_derivative_product_of_coordinates():
    assert p("x1*x4").partial_derivative(1) == p("x4")


def test_derivative_power_rule():
    # d/dx4 (x2*x4^2) = 2*x2*x4
    assert p("x2*x4^2").partial_derivative(4) == p("2*x2*x4")


def test_derivative_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        p("x1").partial_derivative(5)
    with pytest.raises(ValueError, match="out of range"):
        p("x1").partial_derivative(0)



def test_derivative_of_zero_is_the_operand_after_the_index_check():
    z = Polynomial.zero(3)
    assert z.partial_derivative(2) is z
    for bad in (4, True):
        with pytest.raises(ValueError, match="out of range"):
            z.partial_derivative(bad)

# -- parsing ---------------------------------------------------------------------

def test_parse_single_variable():
    assert parse("x3", 4) == Polynomial.variable(4, 3)


def test_parse_sum_of_terms():
    got = parse("x1*x4 + 2*x2^2", 4)
    expected = Polynomial(4, {(1, 0, 0, 1): 1, (0, 2, 0, 0): 2})
    assert got == expected


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError, match="x5 out of range"):
        parse("x5", 4)


def test_parse_rational_and_unary_minus():
    got = parse("-1/2*x2^2 + 3", 4)
    expected = Polynomial(4, {(0, 2, 0, 0): Fraction(-1, 2), (0, 0, 0, 0): 3})
    assert got == expected


def test_parse_parentheses_and_nested_negation():
    assert parse("-(x1 - (2 - x2))", 4) == parse("-x1 + 2 - x2", 4)


def test_parse_sums_cancel_to_the_surviving_terms():
    assert parse("x1 + x2 - x1", 4) == Polynomial.variable(4, 2)
    assert parse("x1 - x1", 4).is_zero
    assert parse("x1 - (x1 - x2) - x2", 4).is_zero


def test_parse_parenthesised_sums_equal_polynomial_arithmetic():
    x1, x2, x3 = (Polynomial.variable(4, i) for i in (1, 2, 3))
    half = Polynomial.constant(4, Fraction(1, 2))
    got = parse("(x1 + 2*x2)*(x1 - x2) - (x3 - (x1 + 1/2)) + 3*(x2 - x1)*(x2 - x1)", 4)
    want = (x1 + x2 * 2) * (x1 - x2) - (x3 - (x1 + half)) + (x2 - x1) * (x2 - x1) * 3
    assert got == want
    # the coefficient contract: int if and only if integral
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.terms.values())
    assert got.terms[(1, 1, 0, 0)] == -5 and got.terms[(0, 0, 0, 0)] == Fraction(1, 2)


def test_parse_long_sum_is_linear_time():
    # a quadratic-time sum takes minutes on 100,000 terms; the subprocess
    # timeout turns such a regression into a failure, not a hang
    code = (
        "from natforms.poly import parse; "
        "text = ' + '.join(f'{i + 1}*x1^{i}*x2' for i in range(100000)); "
        "print(len(parse(text, 4).terms))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "100000"


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + @", 4)
    assert err.value.position == 5


LONG = "7" * 5000  # past Python's default limit of 4300 digits for int(str)


@pytest.mark.parametrize(
    "text, position",
    [
        (LONG, 0),
        (f"x1 + 1/{LONG}", 7),
        (f"x2^{LONG}", 3),
        (f"3*x{LONG}", 3),  # the digits after the x
    ],
    ids=["coefficient", "denominator", "exponent", "variable-index"],
)
def test_parse_refuses_a_numeral_too_long_for_int_at_its_position(text, position):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError, match="numeral of 5000 digits is too long") as err:
            parse(text, 4)
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [("\u0663*x1", 0), ("x\u0663", 0), ("x1^\u0662", 3), ("3*x1\u0661", 4), ("\uff11 + x1", 0)],
    ids=["arabic-indic-coefficient", "arabic-indic-index", "exponent", "index-tail", "fullwidth"],
)
def test_parse_refuses_digits_outside_ascii(text, position):
    # the grammar's uint is ASCII 0-9; other Unicode decimal digits are refused
    with pytest.raises(ParseError) as err:
        parse(text, 4)
    assert err.value.position == position


def test_parse_rejects_negative_exponent():
    with pytest.raises(ParseError):
        parse("x2^-1", 4)


def test_parse_power_is_one_monomial():
    assert parse("x3^0", 4) == Polynomial.constant(4, 1)
    assert parse("2*x2^3*x2", 4) == Polynomial(4, {(0, 4, 0, 0): 2})
    # a huge exponent must parse at once, not by repeated multiplication; a
    # subprocess with a timeout turns a regression into a failure, not a hang
    code = (
        "from natforms.poly import parse; "
        "print(list(parse('x3^99999999', 4).terms.items()))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[((0, 0, 99999999, 0), 1)]"


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse("x1 x2", 4)
    with pytest.raises(ParseError):
        parse("x1/2", 4)


# -- printing --------------------------------------------------------------------

def test_to_string_zero():
    assert to_string(Polynomial.zero(4)) == "0"


def test_to_string_graded_lex_order():
    # both terms have degree 2; x2^2 = (0,2,0,0) precedes x1*x4 = (1,0,0,1)
    assert to_string(p("x1*x4 + 2*x2^2")) == "2*x2^2 + x1*x4"


def test_to_string_leading_negative():
    assert to_string(p("-x3")) == "-x3"


def test_to_string_mixed_degrees_and_fractions():
    assert to_string(p("-1/2*x2^2 + 3")) == "3 - 1/2*x2^2"


def test_grlex_key_orders_by_degree_first():
    assert grlex_key((0, 0, 1, 0)) < grlex_key((0, 2, 0, 0)) < grlex_key((1, 0, 0, 1))


# -- randomized algebraic laws -----------------------------------------------

N_VARS = 4

coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda c: c != 0)

monomials = st.tuples(*[st.integers(min_value=0, max_value=3)] * N_VARS)

polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(
    lambda terms: Polynomial(N_VARS, terms)
)


@given(polynomials, polynomials, polynomials)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polynomials, polynomials)
@settings(max_examples=60)
def test_leibniz_rule(a, b):
    for k in range(1, N_VARS + 1):
        lhs = (a * b).partial_derivative(k)
        rhs = a.partial_derivative(k) * b + a * b.partial_derivative(k)
        assert lhs == rhs


@given(polynomials)
def test_partials_commute(a):
    assert a.partial_derivative(1).partial_derivative(2) == a.partial_derivative(2).partial_derivative(1)


@given(polynomials)
def test_parse_to_string_round_trip(a):
    assert parse(to_string(a), N_VARS) == a


@given(polynomials)
def test_subtraction_is_canonical(a):
    assert (a - a).terms == {}


mixed_coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)

term_maps = st.dictionaries(monomials, mixed_coefficients, max_size=5)


def _reference_text(terms: dict) -> str:
    """Polynomial text written straight from a term map, without to_string."""
    pieces = [
        f"({c})" + "".join(f"*x{i}^{e}" for i, e in enumerate(m, start=1))
        for m, c in terms.items()
    ]
    return " + ".join(pieces) or "0"


def _has_coefficient_contract(poly: Polynomial) -> bool:
    """int if and only if integral, a Fraction otherwise, never zero."""
    return all(
        c != 0 and type(c) is (int if c.denominator == 1 else Fraction)
        for c in poly.terms.values()
    )


def _has_lowest_terms(poly: Polynomial) -> bool:
    """Nonzero int numerators over a positive int denominator, with no factor
    common to all of them; zero over 1."""
    den, nums = poly.denominator, poly.numerators
    return (
        type(den) is int
        and den >= 1
        and all(type(c) is int and c for c in nums.values())
        and math.gcd(den, *nums.values()) == 1
        and (den == 1 or bool(nums))
    )


@given(term_maps, term_maps, mixed_coefficients)
@settings(max_examples=150)
def test_arithmetic_equals_the_all_fraction_reference(ta, tb, factor):
    a, b = Polynomial(N_VARS, ta), Polynomial(N_VARS, tb)
    results = {
        "init": (a, fraction_terms(ta)),
        "add": (a + b, add_terms(ta, tb)),
        "sub": (a - b, sub_terms(ta, tb)),
        "neg": (-a, sub_terms({}, ta)),
        "mul": (a * b, mul_terms(ta, tb)),
        "scale": (a.scale(factor), scale_terms(ta, factor)),
        "partial": (a.partial_derivative(2), partial_terms(ta, 2)),
        "parse": (parse(_reference_text(ta), N_VARS), fraction_terms(ta)),
        "parse sum": (
            parse(f"({_reference_text(ta)}) - ({_reference_text(tb)})", N_VARS),
            sub_terms(ta, tb),
        ),
        "parse product": (
            parse(f"({_reference_text(ta)})*({_reference_text(tb)})", N_VARS),
            mul_terms(ta, tb),
        ),
    }
    for name, (got, want) in results.items():
        assert got.terms == want, name
        assert _has_coefficient_contract(got), name
        assert _has_lowest_terms(got), name


def test_zero_operands_and_unit_factors_are_shared():
    x = p("x1 - 1/2*x3")
    z = Polynomial.zero(4)
    assert x + z is x
    assert z + x is x
    assert x - z is x
    assert -z is z
    assert x.scale(1) is x
    assert x.scale(Fraction(2, 2)) is x
    assert x * 1 is x and 1 * x is x
    assert x * z is z and z * x is z
    assert z.scale(Fraction(1, 3)) is z
    assert z - x == -x
    # a zero operand of another dimension is still refused
    with pytest.raises(ValueError, match="dimension mismatch"):
        x + Polynomial.zero(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Polynomial.zero(3) - x


# -- term-count bounds --------------------------------------------------------

def test_product_above_the_term_pair_bound_is_refused_before_multiplying():
    from natforms.poly import _MAX_TERM_PAIRS

    n = 2
    a = Polynomial(n, {(e, 0): 1 for e in range(1001)})
    b = Polynomial(n, {(0, e): 1 for e in range(_MAX_TERM_PAIRS // 1001 + 1)})
    assert len(a.terms) * len(b.terms) > _MAX_TERM_PAIRS
    with pytest.raises(ValueError, match="term pairs"):
        a * b
    with pytest.raises(ValueError, match="term pairs"):
        a ** 2


def test_parse_refuses_a_product_of_many_sums():
    # 40 copies of a 4-term sum expand to 12,341 terms; the budget of this
    # 559-character text runs out after about a dozen copies
    text = "*".join(["(x1+x2+x3+x4)"] * 40)
    with pytest.raises(ParseError, match="term pairs"):
        parse(text, 4)


def test_parse_budget_admits_small_products_and_expanded_text():
    assert len(parse("*".join(["(x1+x2+x3+x4)"] * 8), 4).terms) == 165
    expanded = " + ".join(f"{i + 1}*x1^{i}*x2*x3^2*x4" for i in range(3000))
    assert len(parse(expanded, 4).terms) == 3000


# -- the fused combination kernel ---------------------------------------------------

int_factors = st.integers(min_value=-5, max_value=5)


@given(
    st.lists(st.tuples(int_factors, term_maps), max_size=4),
    st.lists(st.tuples(int_factors, term_maps, term_maps), max_size=3),
)
@settings(max_examples=150)
def test_combination_equals_the_all_fraction_reference(pairs, products):
    want: dict = {}
    for c, t in pairs:
        want = add_terms(want, scale_terms(t, c))
    for c, ta, tb in products:
        want = add_terms(want, scale_terms(mul_terms(ta, tb), c))
    got = Polynomial.combination(
        N_VARS,
        [(c, Polynomial(N_VARS, t)) for c, t in pairs],
        [(c, Polynomial(N_VARS, ta), Polynomial(N_VARS, tb)) for c, ta, tb in products],
    )
    assert got.terms == want
    assert _has_coefficient_contract(got)
    assert _has_lowest_terms(got)


def test_combination_that_cancels_fully_is_zero_over_one():
    a, b = p("1/3*x1 - 1/6*x2^2"), p("1/2*x3 + 2/5")
    one = Polynomial.constant(4, 1)
    got = Polynomial.combination(4, [(3, a), (-1, a * b)], [(-3, a, one), (1, a, b)])
    assert got.is_zero
    assert (got.numerators, got.denominator) == ({}, 1)
    assert got == Polynomial.zero(4)


def test_combination_of_a_lone_unit_pair_is_the_operand():
    x = p("x1 - 1/2*x3")
    assert Polynomial.combination(4, [(1, x)]) is x
    negated = Polynomial.combination(4, [(-1, x)])
    assert negated == -x and negated._negated is x
    assert Polynomial.combination(4, []) == Polynomial.zero(4)


@pytest.mark.parametrize(
    "a, b",
    [
        ("x1 + 2*x2", "x1 - x3"),  # one denominator: the first map is copied
        ("1/2*x1 + x2", "1/2*x1 - 1/2*x3"),
        ("x1 + x2", "1/3*x2 - x1"),  # the first operand is rescaled
        ("x1 + x2", "x1 + x2"),  # a - b cancels to zero
    ],
)
def test_sums_leave_their_operands_unchanged(a, b):
    a, b = p(a), p(b)
    before = [(dict(q.numerators), q.denominator) for q in (a, b)]
    results = [
        a + b,
        a - b,
        b - a,
        Polynomial.combination(4, [(1, a), (2, b)]),
        Polynomial.combination(4, [(1, a), (-1, b)], [(1, a, b)], 3),
    ]
    for result in results:
        for q, (numerators, denominator) in zip((a, b), before):
            assert (q.numerators, q.denominator) == (numerators, denominator)
            assert result.numerators is not q.numerators


@given(
    st.lists(st.tuples(int_factors, term_maps), max_size=3),
    st.lists(st.tuples(int_factors, term_maps, term_maps), max_size=2),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60)
def test_combination_with_a_divisor_equals_the_scaled_combination(pairs, products, divisor):
    pairs = [(c, Polynomial(N_VARS, t)) for c, t in pairs]
    products = [(c, Polynomial(N_VARS, ta), Polynomial(N_VARS, tb)) for c, ta, tb in products]
    got = Polynomial.combination(N_VARS, pairs, products, divisor)
    assert got == Polynomial.combination(N_VARS, pairs, products).scale(Fraction(1, divisor))
    assert _has_coefficient_contract(got)
    assert _has_lowest_terms(got)


def test_combination_divides_a_lone_unit_pair():
    x = p("x1 - 1/2*x3")
    assert Polynomial.combination(4, [(1, x)], divisor=12) == p("1/12*x1 - 1/24*x3")
    assert Polynomial.combination(4, [(6, x)], divisor=12) == p("1/2*x1 - 1/4*x3")
    assert Polynomial.combination(4, [(3, x), (-3, x)], divisor=12) == Polynomial.zero(4)


def test_negation_records_the_polynomial_it_negated():
    x = p("x1 - 1/2*x3")
    negated = -x
    assert negated._negated is x and negated == p("-x1 + 1/2*x3")
    assert -negated == x and (-negated)._negated is negated
    # which shares the numerators of x rather than copying them
    assert (-negated).numerators is x.numerators
    zero = Polynomial.zero(4)
    assert -zero is zero
    # arithmetic that is not a negation records nothing: every polynomial
    # reads the record, as None from the class unless it is a negation
    assert (x - x - x)._negated is None and x.scale(-1)._negated is None
    assert x._negated is None and x.partial_derivative(1)._negated is None
    assert type(negated) is not Polynomial and isinstance(negated, Polynomial)
    assert type(x - x - x) is Polynomial and type(-negated) is type(negated)
    # a negation stays slotted and immutable, its record included
    assert not hasattr(negated, "__dict__")
    with pytest.raises(AttributeError):
        negated._negated = x


def test_combination_refuses_bad_terms():
    x = p("x1")
    with pytest.raises(TypeError, match="must be int"):
        Polynomial.combination(4, [(Fraction(1, 2), x)])
    with pytest.raises(TypeError, match="must be int"):
        Polynomial.combination(4, [], [(True, x, x)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        Polynomial.combination(4, [(1, p("x1", 3))])
    with pytest.raises(ValueError, match="dimension mismatch"):
        Polynomial.combination(4, [], [(1, x, p("x1", 3))])
    # the divisor is refused before any term is read, a bad term included
    for divisor in (0, -2):
        with pytest.raises(ValueError, match="divisors must be positive"):
            Polynomial.combination(4, [(1, x)], (), divisor)
        with pytest.raises(ValueError, match="divisors must be positive"):
            Polynomial.combination(4, [(Fraction(1, 2), x)], (), divisor)
    for divisor in (True, 2.0, Fraction(2)):
        with pytest.raises(TypeError, match="divisors must be int"):
            Polynomial.combination(4, [(1, x)], (), divisor)


def test_combination_refuses_a_product_above_the_bound_before_any_work(monkeypatch):
    from natforms import poly
    from natforms.poly import _MAX_TERM_PAIRS

    a = Polynomial(2, {(e, 0): 1 for e in range(1001)})
    b = Polynomial(2, {(0, e): 1 for e in range(_MAX_TERM_PAIRS // 1001 + 1)})
    added = []
    monkeypatch.setattr(poly, "_add_product", lambda *args: added.append(args))
    # the refused product comes after one of 1001 * 1000 pairs, within the bound
    with pytest.raises(ValueError, match="term pairs"):
        Polynomial.combination(2, [(1, a)], [(1, a, a.partial_derivative(1)), (2, a, b)])
    assert added == []


# -- packed monomials: the tuple-keyed oracle and the exponent bound ----------------

BOUND = 2**31

near_bound = st.sampled_from([2**30 - 1, 2**30, BOUND - 2, BOUND - 1])


@st.composite
def monomials_near_bound(draw, n):
    """Small exponents, one of them near 2^31 in every fourth monomial."""
    mono = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        mono[draw(st.integers(min_value=0, max_value=n - 1))] = draw(near_bound)
    return tuple(mono)


def near_bound_polynomials(n):
    return st.dictionaries(monomials_near_bound(n), mixed_coefficients, max_size=4).map(
        lambda terms: Polynomial(n, terms)
    )


def overflows(numerators: dict) -> bool:
    return any(e >= BOUND for mono in numerators for e in mono)


def assert_matches(got, want, name):
    """``got`` (a thunk) equals the oracle's (numerators, denominator), read
    through ``terms`` item by item, order included, or raises at the bound
    when the oracle formed an exponent of 2^31 or more."""
    if overflows(want[0]):
        with pytest.raises(ValueError, match="bound 2\\^31"):
            got()
        return
    result = got()
    assert list(result.terms.items()) == list(tuple_view(*want).items()), name
    assert _has_coefficient_contract(result), name
    assert _has_lowest_terms(result), name


@given(st.data())
@settings(max_examples=50)
def test_packed_kernels_equal_the_tuple_keyed_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    a, b, c = (data.draw(near_bound_polynomials(n)) for _ in range(3))
    ta, tb, tc = tuple_numerators(a), tuple_numerators(b), tuple_numerators(c)
    factor = data.draw(mixed_coefficients)
    k = data.draw(st.integers(min_value=1, max_value=n))
    c1, c2, c3 = (data.draw(int_factors) for _ in range(3))

    product: dict = {}
    add_product_tuples(product, ta[0], tb[0], 1)
    assert_matches(lambda: a * b, (product, ta[1] * tb[1]), "mul")
    assert_matches(lambda: a + b, combination_tuples([(1, ta), (1, tb)]), "add")
    assert_matches(lambda: a - b, combination_tuples([(1, ta), (-1, tb)]), "sub")
    assert_matches(lambda: -a, combination_tuples([(-1, ta)]), "neg")
    assert_matches(lambda: a.partial_derivative(k), partial_derivative_tuples(*ta, k), "partial")
    f = Fraction(factor)
    scaled = {mono: num * f.numerator for mono, num in ta[0].items()}
    assert_matches(lambda: a.scale(factor), (scaled, ta[1] * f.denominator), "scale")
    assert_matches(
        lambda: Polynomial.combination(n, [(c1, a), (c2, c)], [(c3, b, c), (c1, a, b)]),
        combination_tuples([(c1, ta), (c2, tc)], [(c3, tb, tc), (c1, ta, tb)]),
        "combination",
    )
    assert parse(to_string(a), n) == a


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(monomials_near_bound(n), min_size=1, max_size=8)
))
@settings(max_examples=50)
def test_sorted_codes_decode_to_sorted_tuples(monos):
    # integer order on codes is lexicographic order on exponent tuples,
    # which grlex_key and sorted_terms rely on
    n = len(monos[0])
    decode = _LAYOUTS[n].decode
    codes = [_pack(n, mono) for mono in monos]
    assert [decode(code) for code in codes] == monos
    assert [decode(code) for code in sorted(codes)] == sorted(monos)
    poly = Polynomial(n, {mono: 1 for mono in monos})
    assert [mono for mono, _ in poly.sorted_terms()] == sorted(set(monos), key=grlex_key)


def test_exponent_bound_is_refused_on_construction():
    with pytest.raises(ValueError, match="exponent 2147483648 is not below the bound 2\\^31"):
        Polynomial(4, {(0, BOUND, 0, 0): 1})
    with pytest.raises(ValueError, match="bound 2\\^31"):
        Polynomial(1, {(2**40,): 1})
    top = Polynomial(4, {(BOUND - 1, 0, 0, BOUND - 1): 3})
    assert top.terms == {(BOUND - 1, 0, 0, BOUND - 1): 3}
    assert to_string(top) == "3*x1^2147483647*x4^2147483647"
    assert parse(to_string(top), 4) == top


def monomial(**exponents):
    """The monomial in 4 variables with the given exponents, x1=... to x4=..."""
    mono = [0] * 4
    for name, e in exponents.items():
        mono[int(name[1:]) - 1] = e
    return Polynomial(4, {tuple(mono): 1})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_products_past_the_bound_are_refused_and_never_carry(k):
    # x_k next to a neighbouring variable at 5, so that a carry would show
    var, neighbour = f"x{k}", f"x{k - 1 if k > 1 else 2}"
    top = monomial(**{var: BOUND - 1, neighbour: 5})
    x_k, half = Polynomial.variable(4, k), monomial(**{var: 2**30})
    for refused in (
        lambda: top * x_k,
        lambda: x_k * top,
        lambda: half * half,
        lambda: Polynomial.combination(4, [(1, top)], [(1, top, x_k)]),
        lambda: Polynomial.combination(4, [], [(2, half, half), (-2, half, half)]),
        lambda: x_k**BOUND,
        lambda: half**2,
    ):
        with pytest.raises(ValueError, match="bound 2\\^31"):
            refused()
    # the near miss: x_k reaches 2^31 - 1 exactly and its neighbour keeps 5
    lower = monomial(**{var: 2**30 - 1, neighbour: 5})
    assert lower * half == top
    assert Polynomial.combination(4, [], [(1, half, lower)]) == top
    assert x_k ** (BOUND - 1) == monomial(**{var: BOUND - 1})
    assert top.partial_derivative(k) == monomial(**{var: BOUND - 2, neighbour: 5}).scale(BOUND - 1)


def test_parse_refuses_an_exponent_at_the_bound():
    with pytest.raises(ParseError, match="exponent 2147483648 is not below the bound") as err:
        parse("x2^2147483648", 4)
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse("x1 + x3^99999999999", 4)
    assert err.value.position == 8
    assert parse("x2^2147483647", 4).terms == {(0, BOUND - 1, 0, 0): 1}

