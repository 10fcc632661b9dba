"""Existential formulas in negation normal form, and their syntactic classes.

A formula is a list of parameter variables, a list of existentially bound
witness variables, and a Boolean body whose leaves are atoms ``p = 0`` or
``p != 0``.  Negation exists only at atoms (as ``!=``); AND/OR nodes are
flattened and always have at least two children.  The class lattice is the
chain

    SINGLE_EQUATION < CONJUNCTIVE < POSITIVE_EXISTENTIAL < EXISTENTIAL

and :func:`classify` returns the least class containing a formula.

Identifiers beginning with ``_`` are reserved for compiler-generated
fresh variables; see :class:`NameAllocator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Iterator, Union

from .poly import Polynomial

RESERVED_PREFIX = "_"


class Relation(Enum):
    EQ = "="
    NEQ = "!="


class SyntacticClass(IntEnum):
    SINGLE_EQUATION = 0
    CONJUNCTIVE = 1
    POSITIVE_EXISTENTIAL = 2
    EXISTENTIAL = 3

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Atom:
    """``poly = 0`` or ``poly != 0``; parsed ``p = q`` is stored as ``p - q``."""

    poly: Polynomial
    relation: Relation = Relation.EQ


@dataclass(frozen=True)
class And:
    children: tuple["Body", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("AND nodes need at least two children")
        if any(isinstance(c, And) for c in self.children):
            raise ValueError("AND nodes must be flattened")


@dataclass(frozen=True)
class Or:
    children: tuple["Body", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("OR nodes need at least two children")
        if any(isinstance(c, Or) for c in self.children):
            raise ValueError("OR nodes must be flattened")


Body = Union[Atom, And, Or]


def conjunction(parts: Iterable[Body]) -> Body:
    """AND of the given bodies, flattened; the empty conjunction is ``0 = 0``."""
    flat: list[Body] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        return Atom(Polynomial.zero(), Relation.EQ)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(parts: Iterable[Body]) -> Body:
    flat: list[Body] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        raise ValueError("empty disjunction has no representation")
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


@dataclass(frozen=True)
class Formula:
    params: tuple[str, ...]
    bound: tuple[str, ...]
    body: Body

    def __post_init__(self) -> None:
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter variable")
        if len(set(self.bound)) != len(self.bound):
            raise ValueError("duplicate bound variable")
        shadowed = set(self.params) & set(self.bound)
        if shadowed:
            raise ValueError(f"bound variable shadows parameter: {sorted(shadowed)}")
        declared = set(self.params) | set(self.bound)
        undeclared = body_variables(self.body) - declared
        if undeclared:
            raise ValueError(f"undeclared variables in body: {sorted(undeclared)}")

    def __str__(self) -> str:
        from .parser import format_formula

        return format_formula(self)


def atoms(body: Body) -> Iterator[Atom]:
    if isinstance(body, Atom):
        yield body
    else:
        for child in body.children:
            yield from atoms(child)


def body_variables(body: Body) -> frozenset[str]:
    out: set[str] = set()
    for atom in atoms(body):
        out.update(atom.poly.variables())
    return frozenset(out)


def all_variables(formula: Formula) -> frozenset[str]:
    return frozenset(formula.params) | frozenset(formula.bound) | body_variables(formula.body)


def max_degree(formula: Formula) -> int:
    return max((a.poly.degree() for a in atoms(formula.body)), default=0)


def classify(formula: Formula) -> SyntacticClass:
    """Least syntactic class containing the formula."""
    body = formula.body
    if isinstance(body, Atom) and body.relation is Relation.EQ:
        return SyntacticClass.SINGLE_EQUATION
    if isinstance(body, And) and all(
        isinstance(c, Atom) and c.relation is Relation.EQ for c in body.children
    ):
        return SyntacticClass.CONJUNCTIVE
    if all(a.relation is Relation.EQ for a in atoms(body)):
        return SyntacticClass.POSITIVE_EXISTENTIAL
    return SyntacticClass.EXISTENTIAL


class NameAllocator:
    """Hands out reserved-prefix names that never collide with a growing
    set of used names.  Counters are per stem so generated formulas read
    naturally (_x1, _x2, _e1, ...)."""

    def __init__(self, used: Iterable[str] = ()) -> None:
        self._used = set(used)
        self._counters: dict[str, int] = {}

    def take(self, stem: str) -> str:
        n = self._counters.get(stem, 0)
        while True:
            n += 1
            name = f"{RESERVED_PREFIX}{stem}{n}"
            if name not in self._used:
                self._counters[stem] = n
                self._used.add(name)
                return name
