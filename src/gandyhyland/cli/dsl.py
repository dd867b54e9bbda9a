"""Expression DSL for defining continuous functionals at the command line.

Grammar, whitespace-insensitive:

    expr := term ('+' term)*
    term := atom ('*' atom)*
    atom := nat | 'f' '(' expr ')' | 'ifz' '(' expr ',' expr ',' expr ')'
          | 'least' '(' nat ',' expr ')' | '(' expr ')'

f(e) probes the argument point at index e. ifz(c, a, b) evaluates a when c
is zero and b otherwise. least(k, e) evaluates e against the argument
shifted right by j for j = 0..k-1 and returns the first j where it lands
on zero, or k; the literal bound keeps every expression total, so what
one evaluation reads is all its value depends on (functionals.settled
reads continuity off that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ArityError, ParseError
from ..functionals import Functional
from ..sequences import Point


class FunctionalSpecAst:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(FunctionalSpecAst):
    value: int


@dataclass(frozen=True)
class Probe(FunctionalSpecAst):
    arg: FunctionalSpecAst


@dataclass(frozen=True)
class Add(FunctionalSpecAst):
    left: FunctionalSpecAst
    right: FunctionalSpecAst


@dataclass(frozen=True)
class Mul(FunctionalSpecAst):
    left: FunctionalSpecAst
    right: FunctionalSpecAst


@dataclass(frozen=True)
class Ifz(FunctionalSpecAst):
    cond: FunctionalSpecAst
    if_zero: FunctionalSpecAst
    if_nonzero: FunctionalSpecAst


@dataclass(frozen=True)
class Least(FunctionalSpecAst):
    bound: int
    body: FunctionalSpecAst


@dataclass(frozen=True)
class _Tok:
    kind: str  # nat, name, sym, end
    text: str
    offset: int


_SYMBOLS = set("+*(),")


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isascii() and ch.isdigit():
            j = i
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            toks.append(_Tok("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Tok("sym", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, ch: str) -> None:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == ch:
            self.advance()
            return
        raise ParseError(f"expected {ch!r}", tok.offset, self.text)

    def parse_expr(self) -> FunctionalSpecAst:
        node = self.parse_term()
        while self.peek().kind == "sym" and self.peek().text == "+":
            self.advance()
            node = Add(node, self.parse_term())
        return node

    def parse_term(self) -> FunctionalSpecAst:
        node = self.parse_atom()
        while self.peek().kind == "sym" and self.peek().text == "*":
            self.advance()
            node = Mul(node, self.parse_atom())
        return node

    def parse_atom(self) -> FunctionalSpecAst:
        tok = self.peek()
        if tok.kind == "nat":
            self.advance()
            return Lit(int(tok.text))
        if tok.kind == "name":
            self.advance()
            return self.parse_call(tok)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        raise ParseError("expected an expression", tok.offset, self.text)

    def parse_call(self, head: _Tok) -> FunctionalSpecAst:
        if head.text not in ("f", "ifz", "least"):
            raise ParseError(f"unknown name {head.text!r}", head.offset, self.text)
        self.expect_sym("(")
        args = [self.parse_expr()]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect_sym(")")
        wanted = {"f": 1, "ifz": 3, "least": 2}[head.text]
        if len(args) != wanted:
            raise ArityError(
                f"{head.text} takes {wanted} argument{'s' if wanted > 1 else ''}, got {len(args)}",
                head.offset,
                self.text,
            )
        if head.text == "f":
            return Probe(args[0])
        if head.text == "ifz":
            return Ifz(args[0], args[1], args[2])
        if not isinstance(args[0], Lit):
            raise ParseError("least bound must be a numeral", head.offset, self.text)
        return Least(args[0].value, args[1])


def parse_spec(text: str) -> FunctionalSpecAst:
    """Parse an expression, rejecting trailing input."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError("unexpected trailing input", tok.offset, text)
    return node


_PREC = {Add: 1, Mul: 2}


def _prec(node: FunctionalSpecAst) -> int:
    return _PREC.get(type(node), 3)


def render(node: FunctionalSpecAst) -> str:
    """Canonical text form; reparsing it yields an equal tree."""
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Probe):
        return f"f({render(node.arg)})"
    if isinstance(node, Ifz):
        return f"ifz({render(node.cond)},{render(node.if_zero)},{render(node.if_nonzero)})"
    if isinstance(node, Least):
        return f"least({node.bound},{render(node.body)})"
    if isinstance(node, (Add, Mul)):
        op = "+" if isinstance(node, Add) else "*"
        me = _prec(node)

        def wrap(child: FunctionalSpecAst, right: bool) -> str:
            text = render(child)
            cp = _prec(child)
            if cp < me or (cp == me and right):
                return f"({text})"
            return text

        return f"{wrap(node.left, False)}{op}{wrap(node.right, True)}"
    raise TypeError(f"not an expression node: {node!r}")


def functional_from_ast(node: FunctionalSpecAst) -> Functional:
    """Compile an expression into a Functional.

    The tree is compiled once into nested closures. A sum or product
    evaluates its left operand first, ifz evaluates only the branch it
    picks, and least() evaluates its body against shifted views of the
    argument, so reads happen in the order the expression spells them.
    The shifted views forward reads to the argument, so a point that
    watches its reads, as settled's does, sees each at its absolute
    position.
    """

    def compile_node(node: FunctionalSpecAst) -> Callable[[Point], int]:
        if isinstance(node, Lit):
            value = node.value
            return lambda point: value
        if isinstance(node, Probe):
            if isinstance(node.arg, Lit):
                index = node.arg.value
                return lambda point: point.value_at(index)
            arg = compile_node(node.arg)
            return lambda point: point.value_at(arg(point))
        if isinstance(node, Add):
            left, right = compile_node(node.left), compile_node(node.right)
            return lambda point: left(point) + right(point)
        if isinstance(node, Mul):
            left, right = compile_node(node.left), compile_node(node.right)
            return lambda point: left(point) * right(point)
        if isinstance(node, Ifz):
            cond = compile_node(node.cond)
            if_zero, if_nonzero = compile_node(node.if_zero), compile_node(node.if_nonzero)
            return lambda point: if_zero(point) if cond(point) == 0 else if_nonzero(point)
        if isinstance(node, Least):
            bound, body = node.bound, compile_node(node.body)

            def least(point: Point) -> int:
                for j in range(bound):
                    view = Point(
                        lambda i, _j=j: point.value_at(i + _j), lambda _j=j: f"{point.name}>>{_j}"
                    )
                    if body(view) == 0:
                        return j
                return bound

            return least
        raise TypeError(f"not an expression node: {node!r}")

    return Functional(apply=compile_node(node), name=render(node))
