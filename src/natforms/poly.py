"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in n variables x1..xn is stored as a map from exponent tuples
to nonzero rational coefficients (``fractions.Fraction``), so equality is
exact and canonical: two polynomials are equal iff their term maps are.
Every polynomial carries its ambient dimension n, checked on each binary
operation; silent mixing of dimensions is the error this guards against.

The canonical term order is graded lexicographic on exponent tuples
(total degree first, then the tuple itself).  It fixes both the printed
form and the coefficient-vector order used by :mod:`natforms.exactla`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Mapping

# Exponent tuple, one non-negative entry per coordinate x1..xn.
Monomial = tuple[int, ...]

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


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Graded-lexicographic sort key: total degree, then the exponent tuple."""
    return (sum(mono), mono)


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients.

    Values are never mutated after construction and may be shared freely.
    """

    __slots__ = ("dimension", "terms")

    dimension: int
    terms: dict[Monomial, Fraction]

    def __init__(self, dimension: int, terms: Mapping[Monomial, Fraction | int] | None = None):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        object.__setattr__(self, "dimension", dimension)
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != dimension:
                raise ValueError(
                    f"exponent tuple {mono} has length {len(mono)}, expected {dimension}"
                )
            if any(e < 0 or not isinstance(e, int) for e in mono):
                raise ValueError(f"exponents must be non-negative integers, got {mono}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[mono] = clean.get(mono, Fraction(0)) + coeff
                if clean[mono] == 0:
                    del clean[mono]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _clean(cls, dimension: int, terms: dict[Monomial, Fraction]) -> Polynomial:
        """Wrap, unchecked and uncopied, a term map known to be clean: monomials
        of length ``dimension``, nonzero ``Fraction`` coefficients."""
        result = cls.__new__(cls)
        object.__setattr__(result, "dimension", dimension)
        object.__setattr__(result, "terms", terms)
        return result

    @classmethod
    def zero(cls, dimension: int) -> Polynomial:
        return cls(dimension)

    @classmethod
    def constant(cls, dimension: int, value: Fraction | int) -> Polynomial:
        return cls(dimension, {(0,) * dimension: Fraction(value)})

    @classmethod
    def variable(cls, dimension: int, index: int) -> Polynomial:
        """The coordinate polynomial x_index (1-based)."""
        if not 1 <= index <= dimension:
            raise ValueError(f"variable index {index} out of range 1..{dimension}")
        exps = [0] * dimension
        exps[index - 1] = 1
        return cls(dimension, {tuple(exps): Fraction(1)})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic --------------------------------------------------------

    def _check_dimension(self, other: Polynomial) -> None:
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                acc = acc + coeff
                if acc == 0:
                    del out[mono]
                else:
                    out[mono] = acc
        return Polynomial._clean(self.dimension, out)

    def __neg__(self) -> Polynomial:
        return Polynomial._clean(self.dimension, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        pairs = len(self.terms) * len(other.terms)
        if pairs > _MAX_TERM_PAIRS:
            raise ValueError(
                f"product of {len(self.terms)} and {len(other.terms)} terms exceeds "
                f"{_MAX_TERM_PAIRS} term pairs"
            )
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(a + b for a, b in zip(ma, mb))
                acc = out.get(mono)
                if acc is None:
                    out[mono] = ca * cb
                else:
                    acc = acc + ca * cb
                    if acc == 0:
                        del out[mono]
                    else:
                        out[mono] = acc
        return Polynomial._clean(self.dimension, out)

    def __rmul__(self, other: Fraction | int) -> Polynomial:
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: Fraction | int) -> Polynomial:
        factor = Fraction(factor)
        if factor == 0:
            return Polynomial(self.dimension)
        return Polynomial._clean(self.dimension, {m: c * factor for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> Polynomial:
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
        if not 1 <= index <= self.dimension:
            raise ValueError(f"coordinate index {index} out of range 1..{self.dimension}")
        k = index - 1
        # lowering x_index is one-to-one on the monomials it keeps, and each
        # coeff * e is a nonzero Fraction, so the map is clean as built
        out = {
            mono[:k] + (mono[k] - 1,) + mono[k + 1 :]: coeff * mono[k]
            for mono, coeff in self.terms.items()
            if mono[k]
        }
        return Polynomial._clean(self.dimension, out)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in the canonical graded-lexicographic order."""
        for mono in sorted(self.terms, key=grlex_key):
            yield mono, self.terms[mono]

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {to_string(self)!r})"


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


_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<var>x\d+)|(?P<int>\d+)|(?P<op>[-+*/^()])")


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
    """

    def __init__(self, text: str, dimension: int):
        self.text = text
        self.dimension = dimension
        self.tokens = _tokenize(text)
        self.index = 0
        self.pairs_left = _PARSE_TERM_PAIRS + len(text)

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

    def parse(self) -> Polynomial:
        result = self.expr()
        token = self.peek()
        if token is not None:
            raise ParseError(f"unexpected token {token[1]!r}", token[2])
        return result

    def expr(self) -> Polynomial:
        # one running term map for the whole sum, so a sum of T terms costs
        # O(T) rather than a copy of the running sum per '+'
        terms = dict(self.term().terms)
        while True:
            token = self.peek()
            if token is not None and token[0] == "op" and token[1] in "+-":
                self.index += 1
                negate = token[1] == "-"
                for mono, coeff in self.term().terms.items():
                    terms[mono] = terms.get(mono, 0) + (-coeff if negate else coeff)
            else:
                clean = {mono: coeff for mono, coeff in terms.items() if coeff}
                return Polynomial._clean(self.dimension, clean)

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            token = self.peek()
            if token is not None and token[0] == "op" and token[1] == "*":
                self.index += 1
                rhs = self.factor()
                self.pairs_left -= len(result.terms) * len(rhs.terms)
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
        if kind == "op" and value == "-":
            return -self.factor()
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "int":
            numerator = int(value)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.index += 1
                den_token = self.advance()
                if den_token[0] != "int":
                    raise ParseError("expected denominator", den_token[2])
                denominator = int(den_token[1])
                if denominator == 0:
                    raise ParseError("zero denominator", den_token[2])
                return Polynomial.constant(self.dimension, Fraction(numerator, denominator))
            return Polynomial.constant(self.dimension, numerator)
        if kind == "var":
            index = int(value[1:])
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
                exponent = int(exp_token[1])
            # one monomial, so a large exponent costs no repeated multiplication
            exps = [0] * self.dimension
            exps[index - 1] = exponent
            return Polynomial(self.dimension, {tuple(exps): 1})
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str, dimension: int) -> Polynomial:
    """Parse polynomial text in variables x1..x<dimension>."""
    return _Parser(text, dimension).parse()
