"""Exact polynomial arithmetic: pinned examples, ring laws, parser round-trip."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import natforms
from natforms.poly import ParseError, Polynomial, grlex_key, parse, to_string

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
    assert out.stdout.strip() == "[((0, 0, 99999999, 0), Fraction(1, 1))]"


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
    # certificates render only Fraction coefficients as strings
    assert all(type(c) is Fraction for c in got.terms.values())


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
    assert out.stdout.strip() == "[((0, 0, 99999999, 0), Fraction(1, 1))]"


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
