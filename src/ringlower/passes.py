"""Semantics-preserving lowering passes and the pipeline driver.

Three passes walk a formula down the class chain, each consuming one
gadget kind:

* ``eliminate_inequalities``: every ``p != 0`` becomes a fresh copy of the
  nonzero gadget applied to ``p``.
* ``eliminate_disjunctions``: OR nodes are removed innermost-first; a
  binary OR of two conjunctions becomes a fresh copy of the axes gadget
  applied to every pair of their polynomials (over a domain, ``p = 0 |
  q = 0`` becomes ``p*q = 0``).
* ``fold_to_single``: a conjunction folds left through the origin gadget
  ``g``: the system ``f1 = ... = fr = 0`` has the same solutions as
  ``g(...g(g(f1, f2), f3)..., fr) = 0``.

``encode_union`` is the fourth rewrite: the union of two conjunctive
systems as one conjunctive system via pairwise products and an indicator
variable.  It is sound exactly over rings with connected (or empty)
spectrum; over anything else the output is still built but flagged, since
the failure itself is a deliverable.

A gadget's defining formula evaluated at a polynomial is itself a
definition, so the passes apply gadgets directly to atom polynomials.
Gadget copies are renamed per use site, so nested rewrites can never
capture variables; the renamed gadget witnesses are the only fresh
variables the passes introduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from .formula import (
    And,
    Atom,
    Body,
    Formula,
    NameAllocator,
    Relation,
    SyntacticClass,
    all_variables,
    atoms,
    classify,
    conjunction,
    disjunction,
    max_degree,
)
from .poly import Polynomial

if TYPE_CHECKING:
    from .gadgets import AxesGadget, GadgetSet, NonzeroGadget, OriginGadget
    from .ring import RingBackend


class PassError(ValueError):
    pass


class MissingGadgetError(PassError):
    def __init__(self, entries: list[tuple[str, str, str]]) -> None:
        self.entries = entries
        lines = [f"{pass_name} needs the {kind} gadget: {why}" for pass_name, kind, why in entries]
        super().__init__("; ".join(lines))


@dataclass(frozen=True)
class PassTrace:
    name: str
    input_class: SyntacticClass
    output_class: SyntacticClass
    fresh_variables: int  # renamed gadget witnesses added to the bound list
    max_degree_before: int
    max_degree_after: int
    gadgets_used: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "input_class": self.input_class.name,
            "output_class": self.output_class.name,
            "fresh_variables": self.fresh_variables,
            "max_degree_before": self.max_degree_before,
            "max_degree_after": self.max_degree_after,
            "gadgets_used": list(self.gadgets_used),
        }


def _check_usable(
    gadget, kind: str, pass_name: str, allow_unverified: bool
) -> tuple[str, str, str] | None:
    """The missing-gadget entry for this use of ``gadget``; None if usable."""
    if gadget is None:
        return (pass_name, kind, "no gadget registered for this ring")
    if not allow_unverified and not gadget.is_usable():
        return (pass_name, kind, f"gadget status is {gadget.status.status.value}")
    return None


def _map_atoms(body: Body, rewrite: Callable[[Atom], Body]) -> Body:
    """``body`` with every atom replaced by ``rewrite(atom)``; AND/OR nodes
    are rebuilt flat, so a rewrite may return any body."""
    if isinstance(body, Atom):
        return rewrite(body)
    rebuild = conjunction if isinstance(body, And) else disjunction
    return rebuild(_map_atoms(c, rewrite) for c in body.children)


def _instantiate(
    gadget_formula: Formula,
    arguments: Mapping[str, Polynomial],
    names: NameAllocator,
) -> tuple[Body, list[str]]:
    """Copy a gadget body with parameters substituted and bound variables
    renamed fresh."""
    renames = {}
    for bound_name in gadget_formula.bound:
        stem = bound_name.lstrip("_").rstrip("0123456789") or "v"
        renames[bound_name] = names.take(stem)
    substitution: dict[str, Polynomial] = dict(arguments)
    substitution.update(
        {old: Polynomial.variable(new) for old, new in renames.items()}
    )
    body = _map_atoms(
        gadget_formula.body,
        lambda a: Atom(a.poly.substitute(substitution), a.relation),
    )
    return body, list(renames.values())


def _trace(name, before: Formula, after: Formula, fresh: int, used) -> PassTrace:
    return PassTrace(
        name,
        classify(before),
        classify(after),
        fresh,
        max_degree(before),
        max_degree(after),
        tuple(used),
    )


def eliminate_inequalities(
    f: Formula, nonzero: "NonzeroGadget", allow_unverified: bool = False
) -> tuple[Formula, PassTrace]:
    """Rewrite every ``p != 0`` atom as the nonzero gadget applied to ``p``;
    output is positive-existential."""
    if all(a.relation is Relation.EQ for a in atoms(f.body)):
        return f, _trace("eliminate_inequalities", f, f, 0, ())
    if entry := _check_usable(nonzero, "nonzero", "eliminate_inequalities", allow_unverified):
        raise MissingGadgetError([entry])
    names = NameAllocator(all_variables(f) | all_variables(nonzero.formula))
    new_bound: list[str] = []
    (param,) = nonzero.formula.params

    def rewrite(atom: Atom) -> Body:
        if atom.relation is Relation.EQ:
            return atom
        gadget_body, gadget_bound = _instantiate(
            nonzero.formula, {param: atom.poly}, names
        )
        new_bound.extend(gadget_bound)
        return gadget_body

    new_body = _map_atoms(f.body, rewrite)
    out = Formula(f.params, f.bound + tuple(new_bound), new_body)
    return out, _trace(
        "eliminate_inequalities", f, out, len(new_bound), ("nonzero",)
    )


def eliminate_disjunctions(
    f: Formula, axes: "AxesGadget", allow_unverified: bool = False
) -> tuple[Formula, PassTrace]:
    """Remove OR nodes innermost-first; output is conjunctive.

    A k-ary OR is right-folded into k-1 binary steps, each with one rule:
    ``(A1 & ... & Am) | (B1 & ... & Bk)`` (a side may be a single atom) is
    equivalent to the conjunction over all ``(i, j)`` of ``Ai = 0 | Bj = 0``,
    and membership of ``(Ai, Bj)`` in the axes set is exactly the gadget
    body with its parameters replaced by ``(Ai, Bj)``.  Over a domain the
    axes gadget is ``z*w = 0``, so ``p = 0 | q = 0`` becomes ``p*q = 0``
    with no fresh variable.
    """
    if any(a.relation is Relation.NEQ for a in atoms(f.body)):
        raise PassError(
            "eliminate_disjunctions needs positive-existential input (no '!=' atoms)"
        )
    # AND nodes are flat, so past the '!=' check anything above
    # CONJUNCTIVE has an OR node.
    if classify(f) <= SyntacticClass.CONJUNCTIVE:
        return f, _trace("eliminate_disjunctions", f, f, 0, ())
    if entry := _check_usable(axes, "axes", "eliminate_disjunctions", allow_unverified):
        raise MissingGadgetError([entry])
    names = NameAllocator(all_variables(f) | all_variables(axes.formula))
    new_bound: list[str] = []
    axis_z, axis_w = axes.formula.params

    def axes_copy(left_poly: Polynomial, right_poly: Polynomial) -> Body:
        gadget_body, gadget_bound = _instantiate(
            axes.formula, {axis_z: left_poly, axis_w: right_poly}, names
        )
        new_bound.extend(gadget_bound)
        return gadget_body

    def or2(left: Body, right: Body) -> Body:
        # left and right are OR-free (atoms or conjunctions)
        return conjunction(
            axes_copy(a.poly, b.poly) for a in atoms(left) for b in atoms(right)
        )

    def walk(node: Body) -> Body:
        if isinstance(node, Atom):
            return node
        if isinstance(node, And):
            return conjunction(walk(c) for c in node.children)
        parts = [walk(c) for c in node.children]
        acc = parts[-1]
        for part in reversed(parts[:-1]):
            acc = or2(part, acc)
        return acc

    new_body = walk(f.body)
    out = Formula(f.params, f.bound + tuple(new_bound), new_body)
    return out, _trace("eliminate_disjunctions", f, out, len(new_bound), ("axes",))


def fold_to_single(
    f: Formula, origin: "OriginGadget", allow_unverified: bool = False
) -> tuple[Formula, PassTrace]:
    """Fold a conjunction of equations into a single equation through the
    origin gadget; no fresh variables are introduced."""
    if classify(f) > SyntacticClass.CONJUNCTIVE:
        raise PassError("fold_to_single needs conjunctive input")
    parts = list(atoms(f.body))
    if len(parts) == 1:
        return f, _trace("fold_to_single", f, f, 0, ())
    if entry := _check_usable(origin, "origin", "fold_to_single", allow_unverified):
        raise MissingGadgetError([entry])
    var_x, var_y = origin.variables
    folded = parts[0].poly
    for part in parts[1:]:
        folded = origin.poly.substitute({var_x: folded, var_y: part.poly})
    out = Formula(f.params, f.bound, Atom(folded, Relation.EQ))
    return out, _trace("fold_to_single", f, out, 0, ("origin",))


# -- union encoding ---------------------------------------------------------------


@dataclass(frozen=True)
class UnionResult:
    formula: Formula
    sound: bool  # False when the ring's spectrum is disconnected


def encode_union(
    sys0: Formula, sys1: Formula, ring: "RingBackend"
) -> UnionResult:
    """One conjunctive system defining the union of two conjunctive systems.

    Bound variables are renamed apart and padded to equal length, a fresh
    indicator ``e`` is appended, and the output atoms are all pairwise
    products ``p * q = 0`` for ``p`` among the first system's polynomials
    plus ``e`` and ``q`` among the second system's plus ``e - 1``.  Over a
    ring with connected (or empty) spectrum this defines exactly the
    union; otherwise the result is flagged unsound (and the defect is
    observable: the defined set strictly contains the union).
    """
    if sys0.params != sys1.params:
        raise PassError("encode_union needs systems over the same parameter list")
    for system in (sys0, sys1):
        if classify(system) > SyntacticClass.CONJUNCTIVE:
            raise PassError("encode_union needs conjunctive systems")
    names = NameAllocator(
        all_variables(sys0) | all_variables(sys1) | set(sys0.params)
    )

    body0, bound0 = _instantiate(sys0, {}, names)
    body1, bound1 = _instantiate(sys1, {}, names)
    while len(bound0) < len(bound1):
        bound0.append(names.take("pad"))
    while len(bound1) < len(bound0):
        bound1.append(names.take("pad"))
    indicator = names.take("e")
    e = Polynomial.variable(indicator)

    left = [a.poly for a in atoms(body0)] + [e]
    right = [a.poly for a in atoms(body1)] + [e - 1]
    new_atoms = [Atom(p * q, Relation.EQ) for p in left for q in right]
    out = Formula(
        sys0.params,
        tuple(bound0) + tuple(bound1) + (indicator,),
        conjunction(new_atoms),
    )
    return UnionResult(out, ring.is_connected_spectrum())


# -- pipeline -----------------------------------------------------------------------


@dataclass(frozen=True)
class CompileResult:
    formula: Formula
    traces: tuple[PassTrace, ...]
    stages: tuple[Formula, ...]  # formula after each executed pass


_STAGES = (
    (SyntacticClass.POSITIVE_EXISTENTIAL, "eliminate_inequalities", "nonzero"),
    (SyntacticClass.CONJUNCTIVE, "eliminate_disjunctions", "axes"),
    (SyntacticClass.SINGLE_EQUATION, "fold_to_single", "origin"),
)

_PASS_FUNCTIONS = {
    "eliminate_inequalities": eliminate_inequalities,
    "eliminate_disjunctions": eliminate_disjunctions,
    "fold_to_single": fold_to_single,
}


def compile_formula(
    f: Formula,
    ring: "RingBackend",
    gadgets: "GadgetSet",
    target: SyntacticClass,
    allow_unverified: bool = False,
) -> CompileResult:
    """Run the passes in order until the formula's class is at most
    ``target``; passes whose work is already done are skipped and produce
    no trace."""
    current = f
    traces: list[PassTrace] = []
    stages: list[Formula] = []
    for stage_class, pass_name, kind in _STAGES:
        if target > stage_class or classify(current) <= stage_class:
            continue
        gadget = gadgets.get(kind)
        if entry := _check_usable(gadget, kind, pass_name, allow_unverified):
            # Report everything else this compilation would still need.
            later = (
                _check_usable(gadgets.get(later_kind), later_kind, later_name, allow_unverified)
                for later_class, later_name, later_kind in _STAGES
                if later_class < stage_class and target <= later_class
            )
            raise MissingGadgetError([entry, *filter(None, later)])
        current, trace = _PASS_FUNCTIONS[pass_name](current, gadget, allow_unverified)
        traces.append(trace)
        stages.append(current)
        if classify(current) > stage_class:
            raise PassError(
                f"{pass_name} failed to reach {stage_class.name}; "
                f"output is {classify(current).name}"
            )
    return CompileResult(current, tuple(traces), tuple(stages))
