"""Polynomial text parsing; str(MultiPoly) is the canonical text it inverts.

Grammar: integer literals, declared variable names, + - * ^ with the usual
precedence, parentheses, unary minus.  Juxtaposition is not multiplication
(write 2*m, not 2m) and exponents are nonnegative integer literals.  Errors
carry the 1-based character position of the offending token.  Parentheses
and unary minus nest at most MAX_NESTING deep: at four parser frames per
level, 100 levels stay far inside Python's limit of 1000 frames.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ParseError
from .kernel import MultiPoly

_OPS = set("+-*^()")
MAX_NESTING = 100


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    # (kind, text, 1-based position)
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], pos))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], pos))
            i = j
        elif ch in _OPS:
            tokens.append((ch, ch, pos))
            i += 1
        else:
            raise ParseError(pos, f"unexpected character {ch!r}")
    tokens.append(("end", "", len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, src: str, variables: Sequence[str], max_degree: int | None):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = tuple(variables)
        self.max_degree = max_degree
        # the product of the nested exponents inside the factor being parsed
        self.power = 1

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        poly = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], f"unexpected {tok[1]!r}")
        return poly

    # depth counts the parentheses and unary minuses around the current token
    def expression(self, depth: int = 0) -> MultiPoly:
        left = self.term(depth)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term(depth)
            left = left + right if op == "+" else left - right
        return left

    def check_degree(self, degree: int, pos: int, what: str) -> None:
        if self.max_degree is not None and degree > self.max_degree:
            raise ParseError(pos, f"{what} {degree} exceeds the degree cap {self.max_degree}")

    def term(self, depth: int) -> MultiPoly:
        left = self.factor(depth)
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            right = self.factor(depth)
            self.check_degree(left.total_degree() + right.total_degree(), pos, "product of total degree")
            left = left * right
        return left

    def factor(self, depth: int) -> MultiPoly:
        tok = self.peek()
        if tok[0] in ("-", "(") and depth == MAX_NESTING:
            raise ParseError(tok[2], f"nesting exceeds the depth cap {MAX_NESTING}")
        if tok[0] == "-":
            self.advance()
            return -self.factor(depth + 1)
        outer, self.power = self.power, 1
        base = self.atom(depth)
        if self.peek()[0] == "^":
            pos = self.advance()[2]
            exp_tok = self.peek()
            if exp_tok[0] != "int":
                raise ParseError(
                    exp_tok[2],
                    "exponent must be a nonnegative integer literal",
                )
            self.advance()
            exp = int(exp_tok[1])
            self.power *= exp
            nested = "exponent" if self.power == exp else "nested exponent product"
            self.check_degree(self.power, pos, nested)
            self.check_degree(base.total_degree() * exp, pos, "power of total degree")
            base = base**exp
        self.power = max(outer, self.power)
        return base

    def atom(self, depth: int) -> MultiPoly:
        tok = self.advance()
        kind, text, pos = tok
        if kind == "int":
            return MultiPoly.constant(int(text), self.variables)
        if kind == "name":
            if text not in self.variables:
                raise ParseError(pos, f"unknown variable {text!r}")
            return MultiPoly.variable(text, self.variables)
        if kind == "(":
            inner = self.expression(depth + 1)
            closing = self.peek()
            if closing[0] != ")":
                raise ParseError(closing[2], "expected ')'")
            self.advance()
            return inner
        raise ParseError(pos, f"expected number, variable, or '(', found {text or 'end of input'!r}")


def parse_poly(
    src: str, variables: Sequence[str], max_degree: int | None = None
) -> MultiPoly:
    """Parse polynomial text over the given variables.

    With ``max_degree`` set, the work is bounded before any arithmetic
    runs: a ``*`` whose operands' total degrees sum past the cap, a ``^``
    whose exponent, times the exponents inside its base, exceeds it, and a
    ``^`` whose result would exceed it raise ParseError at the operator.
    The nesting rule bounds constants too: ((9^2)^2)^2 ... would square
    their digits at every level without raising a degree.  None, the
    default, leaves the text uncapped."""
    return _Parser(src, variables, max_degree).parse()
