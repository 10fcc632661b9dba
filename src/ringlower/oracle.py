"""Ground-truth semantics by exhaustive enumeration over finite backends.

The defined set of a formula is the set of parameter tuples for which some
assignment of ring elements to the bound variables satisfies the body.
Parameter tuples are always enumerated in full.  The witness search is a
complete backtracking search: it prunes a branch only when the partially
evaluated body is already false, and it restricts a variable to the roots
of an equation only when that equation sits in purely conjunctive context
(every witness must satisfy it, so no witness is ever missed).  The result
is identical to the naive product enumeration, just affordable.

What an enumeration ranges over is decided in one place, :class:`Domain`:
the whole ring for a finite backend (exact), or a window of a ``ZBox``
(heuristic; results carry ``exhaustive=False``).  Every consumer, here and
in the gadget verifiers and the CLI, takes that decision from it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence

from .formula import And, Atom, Body, Formula, Relation
from .poly import Polynomial
from .ring import ProductRing, RingBackend, ZBox

DEFAULT_WITNESS_FACTOR = 4


@dataclass(frozen=True)
class DefinableSet:
    """The parameter tuples satisfying a formula, in canonical sorted order."""

    ring: RingBackend
    arity: int
    tuples: tuple[tuple, ...]
    exhaustive: bool

    def __contains__(self, item: tuple) -> bool:
        i = bisect_left(self.tuples, item)
        return i < len(self.tuples) and self.tuples[i] == item

    def __len__(self) -> int:
        return len(self.tuples)

    def to_lines(self) -> list[str]:
        if self.arity == 0:
            return ["()" for _ in self.tuples]
        return [
            " ".join(self.ring.format_element(e) for e in t) for t in self.tuples
        ]

    def to_json(self) -> dict:
        return {
            "ring": self.ring.descriptor(),
            "arity": self.arity,
            "exhaustive": self.exhaustive,
            "tuples": [[self.ring.element_to_json(e) for e in t] for t in self.tuples],
        }


class Verdict(Enum):
    EQUAL = "EQUAL"
    DIFFER = "DIFFER"
    HEURISTIC_EQUAL = "HEURISTIC_EQUAL"


@dataclass(frozen=True)
class EqualityResult:
    verdict: Verdict
    witness: tuple | None = None


class ProductVerdict(Enum):
    PRODUCT = "PRODUCT"
    NOT_PRODUCT = "NOT_PRODUCT"


@dataclass(frozen=True)
class ProductResult:
    verdict: ProductVerdict
    witness: tuple | None = None


@dataclass(frozen=True)
class Domain:
    """What one enumeration ranges over, and whether that is the whole ring.

    A finite backend is enumerated in full: ``exhaustive`` is True and
    ``box`` is None.  A ``ZBox`` is enumerated in windows: parameters in
    ``[-box, box]``, witnesses in a window ``DEFAULT_WITNESS_FACTOR`` times
    wider unless given, and a difference found there is re-checked with
    witnesses in ``[-recheck_box, recheck_box]`` before it counts.
    """

    params: tuple
    witnesses: tuple
    exhaustive: bool
    box: int | None = None
    recheck_box: int | None = None

    @classmethod
    def of(
        cls, ring: RingBackend, param_box: int | None = None,
        witness_box: int | None = None,
    ) -> "Domain":
        for name, value in (("param", param_box), ("witness", witness_box)):
            if value is not None and value < 0:
                raise ValueError(f"{name} box must be non-negative, got {value}")
        if isinstance(ring, ZBox):
            box = ring.bound if param_box is None else param_box
            wbox = DEFAULT_WITNESS_FACTOR * box if witness_box is None else witness_box
            return cls(
                tuple(range(-box, box + 1)), tuple(range(-wbox, wbox + 1)), False,
                box, DEFAULT_WITNESS_FACTOR * wbox,
            )
        if ring.is_finite:
            elements = tuple(ring.elements())
            return cls(elements, elements, True)
        raise ValueError(
            f"enumeration over {ring.descriptor()} is not supported (infinite backend)"
        )


# -- compiled bodies -----------------------------------------------------------


class _CompiledAtom:
    __slots__ = ("evaluate", "var_ids", "is_eq", "conj_context")

    def __init__(self, evaluate, var_ids, is_eq, conj_context):
        self.evaluate = evaluate
        self.var_ids = var_ids
        self.is_eq = is_eq
        self.conj_context = conj_context


def _compile_poly(p: Polynomial, var_id: dict[str, int], ring: RingBackend):
    """Turn a polynomial into a fast evaluator over an assignment list.

    Elements of ``ZMod`` and ``ZBox`` are integers, so one integer closure
    serves both, reducing modulo the characteristic when it is nonzero;
    only a product backend goes through the ring operations."""
    terms = tuple(
        (coeff, tuple((var_id[v], e) for v, e in mono.exps)) for mono, coeff in p.terms
    )
    if not isinstance(ring, ProductRing):

        def evaluate(assign, _terms=terms, _n=ring.characteristic()):
            total = 0
            for coeff, factors in _terms:
                value = coeff
                for vid, exp in factors:
                    value *= assign[vid] ** exp
                total += value
            return total % _n if _n else total

        return evaluate

    canon = {coeff: ring.canonical(coeff) for coeff, _ in terms}

    def evaluate(assign, _terms=terms, _ring=ring, _canon=canon):
        total = _ring.zero()
        for coeff, factors in _terms:
            value = _canon[coeff]
            for vid, exp in factors:
                value = _ring.mul(value, _ring.pow(assign[vid], exp))
            total = _ring.add(total, value)
        return total

    return evaluate


def _compile_body(body: Body, var_id: dict[str, int], ring: RingBackend):
    """Returns (tree, compiled_atoms); tree leaves are atom indices."""
    compiled: list[_CompiledAtom] = []
    zero = ring.zero()

    def walk(node: Body, conj_context: bool):
        if isinstance(node, Atom):
            idx = len(compiled)
            compiled.append(
                _CompiledAtom(
                    _compile_poly(node.poly, var_id, ring),
                    tuple(sorted(var_id[v] for v in node.poly.variables())),
                    node.relation is Relation.EQ,
                    conj_context,
                )
            )
            return ("atom", idx)
        if isinstance(node, And):
            return ("and", tuple(walk(c, conj_context) for c in node.children))
        return ("or", tuple(walk(c, False) for c in node.children))

    tree = walk(body, True)
    return tree, compiled, zero


def _eval3(tree, compiled, assign, zero):
    """Three-valued evaluation: True / False / None (undetermined)."""
    tag, payload = tree
    if tag == "atom":
        atom = compiled[payload]
        for vid in atom.var_ids:
            if assign[vid] is None:
                return None
        value = atom.evaluate(assign)
        return (value == zero) if atom.is_eq else (value != zero)
    if tag == "and":
        result = True
        for child in payload:
            v = _eval3(child, compiled, assign, zero)
            if v is False:
                return False
            if v is None:
                result = None
        return result
    result = False
    for child in payload:
        v = _eval3(child, compiled, assign, zero)
        if v is True:
            return True
        if v is None:
            result = None
    return result


def _search(tree, compiled, assign, zero, bound_ids, domain) -> bool:
    """Complete backtracking witness search; True iff some assignment of
    ``domain`` values to ``bound_ids`` satisfies the body."""
    state = _eval3(tree, compiled, assign, zero)
    if state is not None:
        return state

    # Unit propagation: an undetermined equation in conjunctive context with
    # a single unassigned variable restricts that variable to its roots.
    for atom in compiled:
        if not (atom.conj_context and atom.is_eq):
            continue
        pending = [vid for vid in atom.var_ids if assign[vid] is None]
        if len(pending) != 1:
            continue
        vid = pending[0]
        for value in domain:
            assign[vid] = value
            if atom.evaluate(assign) == zero and _search(
                tree, compiled, assign, zero, bound_ids, domain
            ):
                assign[vid] = None
                return True
        assign[vid] = None
        return False

    for vid in bound_ids:
        if assign[vid] is None:
            for value in domain:
                assign[vid] = value
                if _search(tree, compiled, assign, zero, bound_ids, domain):
                    assign[vid] = None
                    return True
            assign[vid] = None
            return False
    raise AssertionError("undetermined body with no unassigned variable")


class _Body:
    """A formula's body compiled once for repeated witness searches; the
    assignment list holds the parameters first, then the bound variables."""

    def __init__(self, formula: Formula, ring: RingBackend) -> None:
        names = formula.params + formula.bound
        var_id = {name: i for i, name in enumerate(names)}
        self.tree, self.compiled, self.zero = _compile_body(formula.body, var_id, ring)
        self.arity = len(formula.params)
        self.bound_ids = list(range(self.arity, len(names)))
        self.assign: list = [None] * len(names)

    def holds(self, point: tuple, witnesses: Sequence) -> bool:
        """Does some assignment of ``witnesses`` satisfy the body at ``point``?"""
        self.assign[: self.arity] = point
        return _search(
            self.tree, self.compiled, self.assign, self.zero, self.bound_ids, witnesses
        )


def _point_body(formula: Formula, point: tuple, ring: RingBackend) -> _Body:
    if len(point) != len(formula.params):
        raise ValueError("point arity does not match the formula")
    return _Body(formula, ring)


def definable_set(
    formula: Formula,
    ring: RingBackend,
    *,
    param_box: int | None = None,
    witness_box: int | None = None,
) -> DefinableSet:
    """The set of parameter tuples for which a witness exists."""
    domain = Domain.of(ring, param_box, witness_box)
    body = _Body(formula, ring)
    found = [
        point
        for point in product(domain.params, repeat=body.arity)
        if body.holds(point, domain.witnesses)
    ]
    found.sort()
    return DefinableSet(ring, body.arity, tuple(found), domain.exhaustive)


def has_witness(
    formula: Formula,
    point: tuple,
    ring: RingBackend,
    *,
    witness_box: int | None = None,
) -> bool:
    """Does this specific parameter tuple belong to the defined set?"""
    body = _point_body(formula, point, ring)
    return body.holds(point, Domain.of(ring, None, witness_box).witnesses)


def first_witness(
    formula: Formula,
    point: tuple,
    ring: RingBackend,
    *,
    witness_box: int | None = None,
) -> tuple | None:
    """The lexicographically first witness (in backend enumeration order),
    or None.  Uses plain ordered enumeration, so it is for audit trails at
    small scale; membership checks should use :func:`has_witness`."""
    body = _point_body(formula, point, ring)
    witnesses = Domain.of(ring, None, witness_box).witnesses
    for witness in product(witnesses, repeat=len(body.bound_ids)):
        body.assign[:] = (*point, *witness)
        if _eval3(body.tree, body.compiled, body.assign, body.zero):
            return witness
    return None


def sets_equal(
    f1: Formula,
    f2: Formula,
    ring: RingBackend,
    *,
    param_box: int | None = None,
    witness_box: int | None = None,
) -> EqualityResult:
    """Compare defined sets over the :class:`Domain`.  Exact on an
    exhaustive domain, where the witness is the least differing tuple.  On
    a window a tuple found on one side only counts as a difference when
    the other side still rejects it under the re-check witness window;
    otherwise the verdict is HEURISTIC_EQUAL."""
    if len(f1.params) != len(f2.params):
        raise ValueError("formulas have different parameter arity")
    domain = Domain.of(ring, param_box, witness_box)
    s1 = definable_set(f1, ring, param_box=param_box, witness_box=witness_box)
    s2 = definable_set(f2, ring, param_box=param_box, witness_box=witness_box)
    in1, in2 = set(s1.tuples), set(s2.tuples)
    one_sided = [(p, f2) for p in s1.tuples if p not in in2]
    one_sided += [(p, f1) for p in s2.tuples if p not in in1]
    if domain.exhaustive:
        one_sided.sort(key=lambda pair: pair[0])
    for point, other in one_sided:
        if domain.exhaustive or not has_witness(
            other, point, ring, witness_box=domain.recheck_box
        ):
            return EqualityResult(Verdict.DIFFER, point)
    return EqualityResult(Verdict.EQUAL if domain.exhaustive else Verdict.HEURISTIC_EQUAL)


def is_product_set(s: DefinableSet) -> ProductResult:
    """Is a set over a product backend a product of componentwise sets?

    Projects to the two factors, then looks for a recombination of
    projections that the set misses; the witness is such a mixed tuple.
    """
    if not isinstance(s.ring, ProductRing):
        raise ValueError("is_product_set needs a set over a product backend")
    if not s.exhaustive:
        raise ValueError("is_product_set needs an exhaustively computed set")
    left = sorted({tuple(e[0] for e in t) for t in s.tuples})
    right = sorted({tuple(e[1] for e in t) for t in s.tuples})
    members = set(s.tuples)
    for a in left:
        for b in right:
            mixed = tuple(zip(a, b))
            if mixed not in members:
                return ProductResult(ProductVerdict.NOT_PRODUCT, mixed)
    return ProductResult(ProductVerdict.PRODUCT)


def count_solutions(
    p: Polynomial, ring: RingBackend, variables: tuple[str, ...] | None = None
) -> int:
    """Number of zeros of ``p`` over ``ring**len(variables)``.

    ``variables`` defaults to the variables occurring in ``p``; pass it
    explicitly to count over a larger ambient space (e.g. the zero
    polynomial in one variable).
    """
    if not Domain.of(ring).exhaustive:
        raise ValueError("count_solutions needs a finite backend")
    names = tuple(sorted(p.variables())) if variables is None else tuple(variables)
    if not p.variables() <= set(names):
        raise ValueError("variables must cover the polynomial")
    zero_formula = Formula(names, (), Atom(p, Relation.EQ))
    return len(definable_set(zero_formula, ring))
