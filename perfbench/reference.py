"""Reference semantics for checking ringlower's outputs.

Everything here reads formulas and polynomials as printed text and works
on plain integers, so no answer depends on the ringlower code under test
(its parser, polynomial arithmetic or oracle).  Only finite ``zmod:n``
rings and products of them are handled: an element of a product is the
tuple of its residues, one per factor.
"""

from __future__ import annotations

import itertools
import re

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(!=|[-+*^=&|!().]))")


class ReferenceError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out, pos, text = [], 0, text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ReferenceError(f"cannot read {text[pos:pos + 20]!r}")
        out.append(match.group(match.lastindex))
        pos = match.end()
    return out + [""]


# A polynomial is a dict {monomial: coefficient}; a monomial is a sorted
# tuple of (variable, exponent) pairs.


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            merged = dict(m1)
            for var, exp in m2:
                merged[var] = merged.get(var, 0) + exp
            mono = tuple(sorted(merged.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for mono, coeff in q.items():
        out[mono] = out.get(mono, 0) + sign * coeff
    return {m: c for m, c in out.items() if c}


class _Reader:
    def __init__(self, text: str) -> None:
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def take(self, expected: str | None = None) -> str:
        tok = self.toks[self.pos]
        if expected is not None and tok != expected:
            raise ReferenceError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def names(self) -> tuple[str, ...]:
        out = []
        while self.peek() not in (".", ""):
            out.append(self.take())
        self.take(".")
        return tuple(out)

    def formula(self):
        self.take("params")
        params = self.names()
        bound: tuple[str, ...] = ()
        if self.peek() == "exists":
            self.take()
            bound = self.names()
        body = self.disjunction()
        self.take("")
        return params, bound, body

    def disjunction(self):
        parts = [self.conjunction()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else ("or", parts)

    def conjunction(self):
        parts = [self.unit()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unit())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def unit(self):
        if self.peek() == "!":
            self.take()
            return ("not", self.unit())
        if self.peek() == "(" and self._paren_holds_body():
            self.take("(")
            body = self.disjunction()
            self.take(")")
            return body
        left = self.sum()
        relation = self.take()
        if relation not in ("=", "!="):
            raise ReferenceError(f"expected '=' or '!=', found {relation!r}")
        diff = _add(left, self.sum(), -1)
        return ("atom", diff, relation == "=")

    def _paren_holds_body(self) -> bool:
        # A polynomial never contains '=', so a parenthesis that encloses
        # one opens a sub-formula.
        depth = 0
        for tok in self.toks[self.pos :]:
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif tok in ("=", "!="):
                return True
        return False

    def sum(self) -> dict:
        # Accumulates in place: printed folds run to thousands of terms.
        total: dict = {}
        sign = -1 if self.peek() == "-" else 1
        if sign < 0:
            self.take()
        while True:
            for mono, coeff in self.product().items():
                total[mono] = total.get(mono, 0) + sign * coeff
            if self.peek() not in ("+", "-"):
                return {m: c for m, c in total.items() if c}
            sign = 1 if self.take() == "+" else -1

    def product(self) -> dict:
        value = self.power()
        while self.peek() == "*":
            self.take()
            value = _mul(value, self.power())
        return value

    def power(self) -> dict:
        base = self.base()
        if self.peek() != "^":
            return base
        self.take()
        out: dict = {(): 1}
        for _ in range(int(self.take())):
            out = _mul(out, base)
        return out

    def base(self) -> dict:
        tok = self.take()
        if tok == "(":
            inner = self.sum()
            self.take(")")
            return inner
        if tok == "-":
            return _add({}, self.base(), -1)
        if tok.isdigit():
            return {(): int(tok)} if int(tok) else {}
        if tok and (tok[0].isalpha() or tok[0] == "_"):
            return {((tok, 1),): 1}
        raise ReferenceError(f"unexpected token {tok!r}")


def parse_formula(text: str):
    """``(params, bound, body)``; a body is ``("atom", poly, is_eq)``,
    ``("and", parts)``, ``("or", parts)`` or ``("not", body)``, and an atom
    states ``poly = 0`` or ``poly != 0``."""
    return _Reader(text).formula()


def parse_polynomial(text: str) -> dict:
    reader = _Reader(text)
    poly = reader.sum()
    reader.take("")
    return poly


def atoms(body) -> list:
    if body[0] == "atom":
        return [body]
    if body[0] == "not":
        return atoms(body[1])
    return [a for part in body[1] for a in atoms(part)]


def term_count(body) -> int:
    return sum(len(atom[1]) for atom in atoms(body))


def evaluate(poly: dict, env: dict) -> int:
    """Exact integer value at a point (a dict from variable to int)."""
    total = 0
    for mono, coeff in poly.items():
        for var, exp in mono:
            coeff *= env[var] ** exp
        total += coeff
    return total


def is_conjunction_of_equations(body) -> bool:
    parts = body[1] if body[0] == "and" else [body]
    return all(part[0] == "atom" and part[2] for part in parts)


# -- membership over zmod:n ---------------------------------------------------


def _truth(body, env: dict, n: int) -> bool:
    tag = body[0]
    if tag == "atom":
        return (evaluate(body[1], env) % n == 0) == body[2]
    if tag == "not":
        return not _truth(body[1], env, n)
    if tag == "and":
        return all(_truth(part, env, n) for part in body[1])
    return any(_truth(part, env, n) for part in body[1])


def member(formula, point: tuple, n: int) -> bool:
    """Does some assignment of residues mod ``n`` to the bound variables
    satisfy the body at this parameter point?"""
    params, bound, body = formula
    env = dict(zip(params, point))
    if not is_conjunction_of_equations(body):
        for values in itertools.product(range(n), repeat=len(bound)):
            env.update(zip(bound, values))
            if _truth(body, env, n):
                return True
        return False
    # A conjunction of equations: check each equation as soon as its last
    # bound variable is assigned, and backtrack on the first failure.
    equations = [part[1] for part in atoms(body)]
    level = {var: i for i, var in enumerate(bound)}
    due: list[list[dict]] = [[] for _ in range(len(bound) + 1)]
    for poly in equations:
        deepest = max((level[v] + 1 for m in poly for v, _ in m if v in level), default=0)
        due[deepest].append(poly)

    def holds(depth: int) -> bool:
        return all(evaluate(p, env) % n == 0 for p in due[depth])

    def search(depth: int) -> bool:
        if depth == len(bound):
            return True
        var = bound[depth]
        for value in range(n):
            env[var] = value
            if holds(depth + 1) and search(depth + 1):
                return True
        return False

    return holds(0) and search(0)


def defined_set(formula, n: int) -> list[tuple]:
    arity = len(formula[0])
    return [p for p in itertools.product(range(n), repeat=arity) if member(formula, p, n)]


def is_crt_product_set(points: list[tuple], moduli: tuple[int, ...]) -> bool:
    """Is this set of tuples over ``zmod:prod(moduli)`` (pairwise coprime
    moduli) a product of one set per factor?  Every conjunctively
    definable set has this shape, so a set without it cannot survive a
    lowering to conjunctive form."""
    # The set lies inside the product of its projections, and the CRT map
    # is injective, so it equals that product exactly when the sizes agree.
    members = set(points)
    size = 1
    for m in moduli:
        size *= len({tuple(v % m for v in p) for p in members})
    return len(members) == size or not members


# -- gadget properties ----------------------------------------------------------


def origin_zeros_only_at_origin(poly: dict, moduli: tuple[int, ...]) -> bool:
    """Over the product of ``zmod:m`` for ``m`` in ``moduli``, does the
    two-variable polynomial (in ``x`` and ``y``) vanish exactly at (0, 0)?
    Integer coefficients act componentwise, so ``g`` vanishes at a point
    exactly when it vanishes in every factor."""
    variables = {v for mono in poly for v, _ in mono}
    if not variables <= {"x", "y"}:
        raise ReferenceError(f"origin gadget uses {sorted(variables)}")
    for m in moduli:
        for a in range(m):
            for b in range(m):
                vanishes = evaluate(poly, {"x": a, "y": b}) % m == 0
                if vanishes != (a == 0 and b == 0):
                    return False
    return True


def fold(origin: dict, values: list[int]) -> int:
    """``g(...g(g(v1, v2), v3)..., vr)`` evaluated over the integers."""
    acc = values[0]
    for value in values[1:]:
        acc = evaluate(origin, {"x": acc, "y": value})
    return acc
