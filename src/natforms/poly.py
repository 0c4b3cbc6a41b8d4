"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in n variables x1..xn is stored as a map from packed monomials
to nonzero ``int`` numerators and one positive ``int`` denominator, kept
coprime to the numerators' content; zero has denominator 1.  Equality is
exact and canonical: two polynomials are equal iff their dimensions,
denominators and numerator maps are.  Sums, products, scalings and partial
derivatives run in integer arithmetic: a sum brings the two denominators to
their lcm, a product multiplies them, and one gcd over the result restores
lowest terms, skipped when the denominator is 1, as it is for the integral
polynomials that make up most of the work.

A monomial x1^e1 ... xn^en is packed into one ``int`` code, the key of
:attr:`Polynomial.numerators`: each exponent fills a field of 32 bits, x1
the most significant and xn the least, so the code is
e1 * 2^(32(n-1)) + ... + en.  The code of a product monomial is the sum of
its factors' codes, one integer addition, and a lookup hashes one ``int``
rather than a tuple.  Among codes of one dimension, integer order is
lexicographic order on exponent tuples: the most significant field that
differs decides both.  Every exponent is below 2^31, so the top bit of each
field is a guard bit that no valid code sets.  A product whose exponent
would reach 2^31 sets it, and is refused with ``ValueError`` before the
field can carry into its neighbour; ``Polynomial(n, terms)`` and the parser
refuse such an exponent too.  Codes stay inside this module: callers give
exponent tuples to ``Polynomial(n, terms)`` and read them from ``terms``.

:attr:`Polynomial.terms` is the coefficient view, keyed by exponent tuples:
a coefficient is an ``int`` when it is integral and a
``fractions.Fraction`` with denominator > 1 otherwise.  Each read decodes
the numerators into a new dict, which the caller owns; the printer reads
the same view.
Coefficients given from outside must be ``int`` (not ``bool``) or
``Fraction``, and exponents and coordinate indices ``int`` (not ``bool``):
a float or string is refused, never converted.
Every polynomial carries its ambient dimension n, checked on
each binary operation; silent mixing of dimensions is the error this
guards against.

Polynomials are immutable, so arithmetic shares rather than copies: a sum
or product with a zero operand, a scaling by 1 and a partial derivative of
zero return an operand itself.  Each dimension has one kept zero, which
``Polynomial.zero(n)``, a scaling by 0 and every result with no term left
return, so fields share it and compare zeros by identity; only the
constructor ``Polynomial(n)`` makes a fresh one.  A negation, of a private subclass, records the
polynomial it negated, so an antisymmetry check that meets the pair
answers by identity; other polynomials read ``_negated`` as None.

Two accumulators add terms into numerator maps, with one gcd per map at
the end.  :meth:`Polynomial.combination` sums integer multiples of
polynomials and of products of two over the lcm of the term denominators;
``+`` and ``-`` are two-pair combinations, and a first pair with factor 1
starts as one C-level copy.  The private ``_Sums`` holds one map per output
of the curvature, differential and N1 kernels of :mod:`natforms.geometry`,
which add every multiple, derivative and product straight into it over one
common denominator.  One loop each for multiples, products and derivatives
serves every caller.

The canonical term order is graded lexicographic on exponent tuples
(total degree first, then the tuple itself).  It fixes the printed form.
"""

from __future__ import annotations

import math
import re
import struct
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator, Mapping, Sequence

# Exponent tuple, one non-negative entry per coordinate x1..xn.
Monomial = tuple[int, ...]

# A coefficient: an int when integral, else a Fraction with denominator > 1.
Coefficient = int | Fraction

# Bits per exponent field of a packed monomial; the struct format "I" of
# ``_Layout`` unpacks fields of exactly this width.
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
# Every exponent is below this, so the top bit of each field is a guard bit.
_EXPONENT_BOUND = 1 << (_FIELD_BITS - 1)


def _exponent_message(exponent: int) -> str:
    return f"exponent {exponent} is not below the bound 2^{_FIELD_BITS - 1} = {_EXPONENT_BOUND}"


def _pack(dimension: int, mono: Sequence[int]) -> int:
    """The code of an exponent sequence given from outside, validated in the
    same pass that packs it."""
    mono = tuple(mono)
    if len(mono) != dimension:
        raise ValueError(f"exponent tuple {mono} has length {len(mono)}, expected {dimension}")
    code = 0
    for e in mono:
        if type(e) is not int or e < 0:
            raise ValueError(f"exponents must be non-negative integers, got {mono}")
        if e >= _EXPONENT_BOUND:
            raise ValueError(_exponent_message(e))
        code = code << _FIELD_BITS | e
    return code


class _Layout:
    """The packing of monomials in one dimension: ``guard`` has the top bit of
    every field set, and ``decode`` turns a code into its exponent tuple."""

    __slots__ = ("guard", "decode")

    def __init__(self, dimension: int):
        self.guard = sum(1 << (_FIELD_BITS * i + _FIELD_BITS - 1) for i in range(dimension))
        unpack = struct.Struct(f">{dimension}I").unpack
        size = _FIELD_BITS // 8 * dimension
        self.decode: Callable[[int], Monomial] = lambda code: unpack(code.to_bytes(size, "big"))


class _Layouts(dict):
    """dimension -> its ``_Layout``, made on the first lookup, so a lookup that
    hits is one dict subscript and no Python call."""

    def __missing__(self, dimension: int) -> _Layout:
        layout = self[dimension] = _Layout(dimension)
        return layout


_LAYOUTS = _Layouts()

# A product of polynomials with |a| and |b| terms pairs every term of one with
# every term of the other.  Products of more than this many term pairs are
# refused before any work; the largest product natforms forms, on a dense
# dimension-5 connection, pairs far fewer.
_MAX_TERM_PAIRS = 1_000_000

# Parsing one polynomial text may multiply at most this many term pairs in
# all, plus one per character of the text.  An expanded polynomial needs one
# pair per '*', so any of them parses; a product of many parenthesised sums
# grows without bound and is refused once it has spent the budget.
_PARSE_TERM_PAIRS = 10_000

# Parenthesised subexpressions and unary minus signs may nest at most this
# deep, so that the recursive-descent parser never runs out of stack.
_MAX_NESTING = 100


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Graded-lexicographic sort key: total degree, then the exponent tuple."""
    return (sum(mono), mono)


def _coefficient(value: object) -> Coefficient:
    """The canonical coefficient for an exact rational value: ``int`` when it
    is integral, ``Fraction`` otherwise.  Anything but an ``int`` or a
    ``Fraction`` is refused, ``bool`` included."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(
        f"polynomial coefficients must be int or Fraction, got {type(value).__name__} {value!r}"
    )


def _numerators(coeffs: Mapping[int, Coefficient]) -> tuple[dict[int, int], int]:
    """The nonzero values of a map of exact coefficients as ``int`` numerators
    over their least common denominator.  A map of ``int`` values only is its
    own numerator map over 1, and no lcm is taken."""
    nonzero = {mono: c for mono, c in coeffs.items() if c}
    if all(type(c) is int for c in nonzero.values()):
        return nonzero, 1
    # every value is in lowest terms, so the numerators over the lcm of the
    # denominators have no factor in common with it
    den = math.lcm(*[c.denominator for c in nonzero.values()])
    return {mono: c.numerator * (den // c.denominator) for mono, c in nonzero.items()}, den


def _check_pairs(a: Mapping, b: Mapping) -> None:
    """Refuse a product of more than ``_MAX_TERM_PAIRS`` term pairs."""
    if len(a) * len(b) > _MAX_TERM_PAIRS:
        raise ValueError(
            f"product of {len(a)} and {len(b)} terms exceeds {_MAX_TERM_PAIRS} term pairs"
        )


def _add_product(
    out: dict[int, int], a: Mapping[int, int], b: Mapping[int, int], factor: int, guard: int
) -> None:
    """Add factor * a * b into the numerator map ``out``; entries may cancel
    to 0 and are left for the caller to drop.  A product monomial that sets
    a ``guard`` bit has an exponent of at least 2^31 and is refused."""
    get = out.get
    for ma, ca in a.items():
        ca *= factor
        for mb, cb in b.items():
            mono = ma + mb
            if mono & guard:
                raise ValueError(
                    f"a product has an exponent not below the bound 2^{_FIELD_BITS - 1}"
                )
            out[mono] = get(mono, 0) + ca * cb


def _add_scaled(out: dict[int, int], a: Mapping[int, int], factor: int) -> None:
    """Add factor * a into the numerator map ``out``."""
    get = out.get
    for code, c in a.items():
        out[code] = get(code, 0) + c * factor


def _add_partial(out: dict[int, int], a: Mapping[int, int], shift: int, factor: int) -> None:
    """Add factor * d a / d x into the numerator map ``out``, x the variable
    whose exponent field starts at bit ``shift``; each term of a lands on
    its own monomial."""
    get = out.get
    unit = 1 << shift
    for code, c in a.items():
        if e := code >> shift & _FIELD_MASK:
            code -= unit
            out[code] = get(code, 0) + c * e * factor


def _nonzero(out: dict[int, int]) -> dict[int, int]:
    """The numerator map without the entries that cancelled to 0."""
    return {mono: c for mono, c in out.items() if c} if 0 in out.values() else out


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients,
    held as ``int`` numerators over one positive ``int`` denominator.

    Values are never mutated after construction and may be shared freely.
    """

    __slots__ = ("dimension", "numerators", "denominator")

    dimension: int
    numerators: dict[int, int]  # packed monomial -> nonzero; gcd(denominator, *values) == 1
    denominator: int  # positive; 1 for zero
    _negated: Polynomial | None = None  # set on a ``_Negation`` only

    def __init__(self, dimension: int, terms: Mapping[Monomial, Coefficient] | None = None):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        coeffs: dict[int, Coefficient] = {}
        for mono, coeff in (terms or {}).items():
            code = _pack(dimension, mono)
            coeff = _coefficient(coeff)
            if coeff:
                coeffs[code] = coeffs.get(code, 0) + coeff
        numerators, denominator = _numerators(coeffs)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, dimension: int, numerators: dict[int, int], denominator: int) -> Polynomial:
        """Wrap, unchecked and uncopied, numerators known to be clean: codes of
        monomials in ``dimension`` variables, nonzero ``int`` numerators in
        lowest terms over the positive ``denominator``, which is 1 if there
        are none."""
        result = cls.__new__(cls)
        object.__setattr__(result, "dimension", dimension)
        object.__setattr__(result, "numerators", numerators)
        object.__setattr__(result, "denominator", denominator)
        return result

    @classmethod
    def _lowest_terms(
        cls, dimension: int, numerators: dict[int, int], denominator: int
    ) -> Polynomial:
        """Wrap nonzero ``int`` numerators over a positive denominator, divided
        by the gcd of all of them; over denominator 1 there is nothing to do.
        No numerators give the kept zero of the dimension."""
        if not numerators:
            return Polynomial.zero(dimension)
        if denominator != 1:
            g = math.gcd(denominator, *numerators.values())
            if g != 1:
                denominator //= g
                numerators = {mono: c // g for mono, c in numerators.items()}
        return cls._make(dimension, numerators, denominator)

    @classmethod
    def combination(
        cls,
        dimension: int,
        pairs: Sequence[tuple[int, Polynomial]],
        products: Sequence[tuple[int, Polynomial, Polynomial]] = (),
    ) -> Polynomial:
        """sum c * p over the (c, p) pairs plus sum c * p * q over the
        (c, p, q) products, each c an ``int``.

        Every term is added into one numerator map over the lcm of the term
        denominators, and lowest terms are restored once.  Each product is
        held to the term-pair bound of ``*``, and all of them are checked
        before any term is added.  A lone pair (1, p) is p itself, and a
        lone pair (-1, p) is ``-p``, which records p.
        """
        den = 1
        for c, p in pairs:
            if type(c) is not int or p.dimension != dimension:
                cls._refuse_term(dimension, c, p)
            if p.denominator != 1:
                den = math.lcm(den, p.denominator)
        for c, p, q in products:
            if type(c) is not int or p.dimension != dimension or q.dimension != dimension:
                cls._refuse_term(dimension, c, p, q)
            _check_pairs(p.numerators, q.numerators)
            if p.denominator != 1 or q.denominator != 1:
                den = math.lcm(den, p.denominator * q.denominator)
        if not products and len(pairs) == 1 and pairs[0][0] in (1, -1):
            c, p = pairs[0]
            return p if c == 1 else -p
        out: dict[int, int] = {}
        rest = pairs
        if pairs and pairs[0][0] == 1 and pairs[0][1].denominator == den:
            # factor 1: the map starts as one C-level copy of the first
            # operand's numerators rather than being built term by term
            out = dict(pairs[0][1].numerators)
            rest = pairs[1:]
        for c, p in rest:
            _add_scaled(out, p.numerators, c * (den // p.denominator))
        if products:
            guard = _LAYOUTS[dimension].guard
        for c, p, q in products:
            factor = c * (den // (p.denominator * q.denominator))
            _add_product(out, p.numerators, q.numerators, factor, guard)
        return cls._lowest_terms(dimension, _nonzero(out), den)

    @staticmethod
    def _refuse_term(dimension: int, c: object, *polys: Polynomial) -> None:
        """Raise for a combination term whose coefficient is not an ``int`` or
        whose polynomials are not in ``dimension`` variables."""
        if type(c) is not int:
            raise TypeError(
                f"combination coefficients must be int, got {type(c).__name__} {c!r}"
            )
        for poly in polys:
            if poly.dimension != dimension:
                raise ValueError(f"dimension mismatch: {dimension} vs {poly.dimension}")

    @staticmethod
    @cache
    def zero(dimension: int) -> Polynomial:
        """The one kept zero in ``dimension`` variables."""
        return Polynomial(dimension)

    @classmethod
    def constant(cls, dimension: int, value: Coefficient) -> Polynomial:
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, index: int) -> Polynomial:
        """The coordinate polynomial x_index (1-based)."""
        if type(index) is not int or not 1 <= index <= dimension:
            raise ValueError(f"variable index {index} out of range 1..{dimension}")
        exps = [0] * dimension
        exps[index - 1] = 1
        return cls(dimension, {tuple(exps): 1})

    # -- coefficients and predicates ----------------------------------------

    @property
    def terms(self) -> dict[Monomial, Coefficient]:
        """The coefficients by exponent tuple: ``int`` when integral,
        ``Fraction`` otherwise.  Decoded from the numerators on every read,
        so the dict returned is the caller's own."""
        decode = _LAYOUTS[self.dimension].decode
        den = self.denominator
        if den == 1:
            return {decode(code): c for code, c in self.numerators.items()}
        return {
            decode(code): _coefficient(Fraction(c, den)) for code, c in self.numerators.items()
        }

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic --------------------------------------------------------
    #
    # A sum or product with a zero operand and a scaling by 1 make no new
    # polynomial: the result is an operand itself.  Any other sum or
    # difference is a two-pair combination.

    def _check_dimension(self, other: Polynomial) -> None:
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        if not other.numerators:
            return self
        if not self.numerators:
            return other
        return Polynomial.combination(self.dimension, [(1, self), (1, other)])

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        if not other.numerators:
            return self
        return Polynomial.combination(self.dimension, [(1, self), (-1, other)])

    def __neg__(self) -> Polynomial:
        """-self; the result records self as ``_negated``, so that a caller
        holding both can tell they are negatives without comparing terms.
        Negating a negation shares the map of what that negated."""
        if not self.numerators:
            return self
        negated = self._negated
        if negated is None:
            numerators = {m: -c for m, c in self.numerators.items()}
        else:
            numerators = negated.numerators
        result = _Negation._make(self.dimension, numerators, self.denominator)
        # without this record dense_thm32 ran in 0.115 s, not 0.103 s (6-pair medians)
        object.__setattr__(result, "_negated", self)
        return result

    def __mul__(self, other: Polynomial | Coefficient) -> Polynomial:
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_dimension(other)
        a, b = self.numerators, other.numerators
        if not a:
            return self
        if not b:
            return other
        _check_pairs(a, b)
        out: dict[int, int] = {}
        _add_product(out, a, b, 1, _LAYOUTS[self.dimension].guard)
        return Polynomial._lowest_terms(
            self.dimension, _nonzero(out), self.denominator * other.denominator
        )

    def __rmul__(self, other: Coefficient) -> Polynomial:
        return self.scale(other)

    def scale(self, factor: Coefficient) -> Polynomial:
        factor = _coefficient(factor)
        if factor == 1 or not self.numerators:
            return self
        if not factor:
            return Polynomial.zero(self.dimension)
        num = factor.numerator
        out = {m: c * num for m, c in self.numerators.items()}
        return Polynomial._lowest_terms(self.dimension, out, self.denominator * factor.denominator)

    def __pow__(self, exponent: int) -> Polynomial:
        if type(exponent) is not int:
            raise TypeError(
                f"polynomial exponents must be int, got {type(exponent).__name__} {exponent!r}"
            )
        if exponent < 0:
            raise ValueError("negative powers are not defined for polynomials")
        # repeated squaring: one squaring per bit of the exponent
        result = Polynomial.constant(self.dimension, 1)
        square = self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def partial_derivative(self, index: int) -> Polynomial:
        """Formal partial derivative with respect to x_index (1-based)."""
        if type(index) is not int or not 1 <= index <= self.dimension:
            raise ValueError(f"coordinate index {index} out of range 1..{self.dimension}")
        if not self.numerators:
            return self
        # each numerator * e is nonzero; only the common factor may change
        out: dict[int, int] = {}
        _add_partial(out, self.numerators, _FIELD_BITS * (self.dimension - index), 1)
        return Polynomial._lowest_terms(self.dimension, out, self.denominator)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        """The ``terms`` items in the canonical graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda term: grlex_key(term[0]))

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {to_string(self)!r})"


class _Negation(Polynomial):
    """A polynomial built by negation, holding the polynomial it negated."""

    __slots__ = ("_negated",)


class _Sums(dict):
    """Numerator maps by output key, each made when its first term lands,
    all over one common denominator that the caller keeps.  Products are
    held to the term-pair bound and the exponent guard of ``*``."""

    __slots__ = ("dimension", "_guard")

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension
        self._guard = _LAYOUTS[dimension].guard

    def __missing__(self, key: int) -> dict[int, int]:
        out = self[key] = {}
        return out

    def add_partial(self, key: int, p: Polynomial, index: int, factor: int) -> None:
        """Add factor * (d p / d x_index) at key; index is 1-based."""
        if p.dimension != self.dimension:
            Polynomial._refuse_term(self.dimension, factor, p)
        _add_partial(self[key], p.numerators, _FIELD_BITS * (self.dimension - index), factor)

    def add_product(self, key: int, a: Polynomial, b: Polynomial, factor: int) -> None:
        """Add factor * a * b at key."""
        if a.dimension != self.dimension or b.dimension != self.dimension:
            Polynomial._refuse_term(self.dimension, factor, a, b)
        a_nums, b_nums = a.numerators, b.numerators
        if len(a_nums) * len(b_nums) > _MAX_TERM_PAIRS:
            _check_pairs(a_nums, b_nums)
        _add_product(self[key], a_nums, b_nums, factor, self._guard)

    def polynomials(self, denominator: int) -> Iterator[tuple[int, Polynomial]]:
        """(key, its sum over the denominator, in lowest terms) per nonzero sum."""
        for key, out in self.items():
            out = _nonzero(out)
            if out:
                yield key, Polynomial._lowest_terms(self.dimension, out, denominator)


def _monomial_string(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def to_string(poly: Polynomial) -> str:
    """Render in canonical graded-lexicographic order; round-trips through parse."""
    if poly.is_zero:
        return "0"
    pieces: list[str] = []
    for mono, coeff in poly.sorted_terms():
        mono_str = _monomial_string(mono)
        mag = abs(coeff)
        if not mono_str:
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


class ParseError(ValueError):
    """Syntax or range error in polynomial text, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<var>x[0-9]+)|(?P<int>[0-9]+)|(?P<op>[-+*/^()])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | var ('^' uint)? | '(' expr ')' | '-' factor
    rational := uint ('/' uint)? ;  var := 'x' uint (1-based, <= n)

    '(' and unary '-' nest at most ``_MAX_NESTING`` deep.
    """

    def __init__(self, text: str, dimension: int):
        self.text = text
        self.dimension = dimension
        self.tokens = _tokenize(text)
        self.index = 0
        self.pairs_left = _PARSE_TERM_PAIRS + len(text)
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.peek()
        if token is None or token[0] != "op" or token[1] != op:
            pos = token[2] if token else len(self.text)
            raise ParseError(f"expected {op!r}", pos)
        self.index += 1

    @staticmethod
    def numeral(digits: str, pos: int) -> int:
        """The value of a numeral token; one too long for ``int`` is refused
        at its position rather than with Python's conversion error."""
        try:
            return int(digits)
        except ValueError:
            raise ParseError(f"numeral of {len(digits)} digits is too long", pos) from None

    def parse(self) -> Polynomial:
        result = self.expr()
        token = self.peek()
        if token is not None:
            raise ParseError(f"unexpected token {token[1]!r}", token[2])
        return result

    def expr(self) -> Polynomial:
        # one combination for the whole sum, so a sum of T terms costs O(T)
        # rather than a copy of the running sum per '+'
        pairs = [(1, self.term())]
        while True:
            token = self.peek()
            if token is not None and token[0] == "op" and token[1] in "+-":
                self.index += 1
                pairs.append((-1 if token[1] == "-" else 1, self.term()))
            else:
                return Polynomial.combination(self.dimension, pairs)

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            token = self.peek()
            if token is not None and token[0] == "op" and token[1] == "*":
                self.index += 1
                rhs = self.factor()
                self.pairs_left -= len(result.numerators) * len(rhs.numerators)
                if self.pairs_left < 0:
                    raise ParseError(
                        f"products exceed {_PARSE_TERM_PAIRS} + {len(self.text)} term "
                        "pairs, the budget of this text",
                        token[2],
                    )
                result = result * rhs
            else:
                return result

    def factor(self) -> Polynomial:
        token = self.advance()
        kind, value, pos = token
        if kind == "op" and value in ("-", "("):
            if self.depth == _MAX_NESTING:
                raise ParseError(f"nesting deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            if value == "-":
                inner = -self.factor()
            else:
                inner = self.expr()
                self.expect_op(")")
            self.depth -= 1
            return inner
        if kind == "int":
            numerator = self.numeral(value, pos)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.index += 1
                den_token = self.advance()
                if den_token[0] != "int":
                    raise ParseError("expected denominator", den_token[2])
                denominator = self.numeral(den_token[1], den_token[2])
                if denominator == 0:
                    raise ParseError("zero denominator", den_token[2])
                return Polynomial.constant(self.dimension, Fraction(numerator, denominator))
            return Polynomial.constant(self.dimension, numerator)
        if kind == "var":
            index = self.numeral(value[1:], pos + 1)
            if not 1 <= index <= self.dimension:
                raise ParseError(
                    f"variable {value} out of range 1..{self.dimension}", pos
                )
            exponent = 1
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
                self.index += 1
                exp_token = self.advance()
                if exp_token[0] != "int":
                    raise ParseError("expected non-negative integer exponent", exp_token[2])
                exponent = self.numeral(exp_token[1], exp_token[2])
                if exponent >= _EXPONENT_BOUND:
                    raise ParseError(_exponent_message(exponent), exp_token[2])
            # one monomial, packed directly, so a large exponent costs no
            # repeated multiplication
            code = exponent << (_FIELD_BITS * (self.dimension - index))
            return Polynomial._make(self.dimension, {code: 1}, 1)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str, dimension: int) -> Polynomial:
    """Parse polynomial text in variables x1..x<dimension>."""
    return _Parser(text, dimension).parse()
