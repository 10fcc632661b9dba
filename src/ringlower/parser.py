"""Parser and printer for the formula and polynomial grammar.

Grammar (whitespace-insensitive, ``#`` starts a comment to end of line)::

    formula := "params" ident* "." ["exists" ident+ "."] body
    body    := or
    or      := and ("|" and)*
    and     := unit ("&" unit)*
    unit    := "!" unit | "(" body ")" | atom
    atom    := poly ("=" | "!=") poly
    poly    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := "-" factor | base ["^" integer]
    base    := integer | ident | "(" poly ")"

``^`` admits positive integer exponents only.  Identifiers match
``[A-Za-z_][A-Za-z0-9_]*``; names beginning with ``_`` are reserved for
compiler-generated variables (accepted on input so that printed formulas
round-trip).  Atoms are normalized to ``p - q = 0`` / ``p - q != 0`` form,
general negation is compiled away into negation normal form, and AND/OR
nodes are flattened, so ``parse(print(f)) == f`` on the AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .formula import (
    And,
    Atom,
    Body,
    Formula,
    Or,
    Relation,
    conjunction,
    disjunction,
)
from .poly import Polynomial


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "ident", or the operator text itself
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""(?P<skip>\s+|\#[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>!=|[+\-*^=&|!().])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"params", "exists"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        column = match.start() - line_start + 1
        if match.lastgroup == "skip":
            newlines = match.group().count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + match.group().rindex("\n") + 1
        elif match.lastgroup == "int":
            tokens.append(_Token("int", match.group(), line, column))
        elif match.lastgroup == "ident":
            tokens.append(_Token("ident", match.group(), line, column))
        else:
            tokens.append(_Token(match.group(), match.group(), line, column))
        pos = match.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# Negation is parsed into a private node and compiled away before the
# Formula is built, so the public AST never carries it.
@dataclass(frozen=True)
class _Not:
    child: object


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_uses: list[tuple[str, _Token]] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {tok.text or 'end of input'!r}", tok)
        return self.advance()

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    # -- formula level -----------------------------------------------------

    def formula(self) -> Formula:
        kw = self.expect("ident", "'params'")
        if kw.text != "params":
            self.fail("formula must start with 'params'", kw)
        params = self.ident_list()
        self.expect(".", "'.'")
        bound: list[str] = []
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "exists":
            self.advance()
            bound = self.ident_list()
            if not bound:
                self.fail("'exists' needs at least one variable")
            self.expect(".", "'.'")
        raw = self.or_level()
        self.expect("eof", "end of input")
        body = _to_nnf(raw, negate=False)
        self._check_names(params, bound)
        self._check_declared({name for name, _ in params + bound})
        return Formula(
            tuple(name for name, _ in params),
            tuple(name for name, _ in bound),
            body,
        )

    def ident_list(self) -> list[tuple[str, _Token]]:
        out = []
        while self.peek().kind == "ident" and self.peek().text not in _KEYWORDS:
            tok = self.advance()
            out.append((tok.text, tok))
        return out

    def _check_names(self, params, bound) -> None:
        seen: set[str] = set()
        for name, tok in params:
            if name in seen:
                raise ParseError(f"duplicate parameter {name!r}", tok.line, tok.column)
            seen.add(name)
        for name, tok in bound:
            if name in {p for p, _ in params}:
                raise ParseError(
                    f"bound variable {name!r} shadows a parameter", tok.line, tok.column
                )
            if name in seen:
                raise ParseError(
                    f"duplicate bound variable {name!r}", tok.line, tok.column
                )
            seen.add(name)

    def _check_declared(self, declared: set[str]) -> None:
        for name, tok in self.var_uses:
            if name not in declared:
                raise ParseError(f"undeclared variable {name!r}", tok.line, tok.column)

    # -- body level ----------------------------------------------------------

    def or_level(self):
        parts = [self.and_level()]
        while self.peek().kind == "|":
            self.advance()
            parts.append(self.and_level())
        return parts[0] if len(parts) == 1 else ("or", parts)

    def and_level(self):
        parts = [self.unit()]
        while self.peek().kind == "&":
            self.advance()
            parts.append(self.unit())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def unit(self):
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return _Not(self.unit())
        if tok.kind == "(" and self._paren_is_body():
            self.advance()
            inner = self.or_level()
            self.expect(")", "')'")
            return inner
        return self.atom()

    def _paren_is_body(self) -> bool:
        """Decide whether the '(' at the cursor opens a Boolean group or a
        parenthesized polynomial: only bodies can contain a relation or a
        Boolean operator before the matching ')'."""
        depth = 0
        for tok in self.tokens[self.pos :]:
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif tok.kind in ("=", "!=", "&", "|", "!"):
                return True
            elif tok.kind == "eof":
                break
        return False

    def atom(self) -> Atom:
        lhs = self.poly()
        tok = self.peek()
        if tok.kind == "=":
            self.advance()
            rhs = self.poly()
            return Atom(lhs - rhs, Relation.EQ)
        if tok.kind == "!=":
            self.advance()
            rhs = self.poly()
            return Atom(lhs - rhs, Relation.NEQ)
        self.fail(f"expected '=' or '!=', found {tok.text or 'end of input'!r}", tok)

    # -- polynomial level ------------------------------------------------------

    def poly(self) -> Polynomial:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return -self.factor()
        base = self.base()
        if self.peek().kind == "^":
            self.advance()
            exp_tok = self.expect("int", "a positive integer exponent")
            exponent = int(exp_tok.text)
            if exponent < 1:
                self.fail("exponent must be positive", exp_tok)
            return base**exponent
        return base

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Polynomial.constant(int(tok.text))
        if tok.kind == "ident":
            if tok.text in _KEYWORDS:
                self.fail(f"keyword {tok.text!r} cannot be used as a variable", tok)
            self.advance()
            self.var_uses.append((tok.text, tok))
            return Polynomial.variable(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.poly()
            self.expect(")", "')'")
            return inner
        self.fail(
            f"expected a polynomial, found {tok.text or 'end of input'!r}", tok
        )


def _to_nnf(node, negate: bool) -> Body:
    """Push negation to the atoms and flatten AND/OR."""
    if isinstance(node, _Not):
        return _to_nnf(node.child, not negate)
    if isinstance(node, Atom):
        if not negate:
            return node
        flipped = Relation.NEQ if node.relation is Relation.EQ else Relation.EQ
        return Atom(node.poly, flipped)
    tag, children = node
    parts = [_to_nnf(c, negate) for c in children]
    if (tag == "and") != negate:
        return conjunction(parts)
    return disjunction(parts)


def parse_formula(text: str) -> Formula:
    return _Parser(text).formula()


def parse_polynomial(text: str) -> Polynomial:
    parser = _Parser(text)
    value = parser.poly()
    parser.expect("eof", "end of input")
    return value


# -- printing ------------------------------------------------------------------


def format_body(body: Body) -> str:
    if isinstance(body, Atom):
        return f"{body.poly} {body.relation.value} 0"
    if isinstance(body, And):
        pieces = [
            f"({format_body(c)})" if isinstance(c, Or) else format_body(c)
            for c in body.children
        ]
        return " & ".join(pieces)
    return " | ".join(format_body(c) for c in body.children)


def format_formula(f: Formula) -> str:
    head = "params" + "".join(f" {p}" for p in f.params) + " ."
    if f.bound:
        head += " exists" + "".join(f" {b}" for b in f.bound) + " ."
    return f"{head} {format_body(f.body)}"
