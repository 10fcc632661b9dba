import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringlower.formula import (
    Atom,
    Formula,
    Relation,
    SyntacticClass,
    all_variables,
    atoms,
    classify,
    conjunction,
    disjunction,
)
from ringlower.poly import Polynomial
from ringlower.gadgets import default_gadgets
from ringlower.oracle import Verdict, definable_set, sets_equal
from ringlower.parser import parse_formula, parse_polynomial
from ringlower.passes import (
    MissingGadgetError,
    PassError,
    compile_formula,
    eliminate_disjunctions,
    eliminate_inequalities,
    encode_union,
    fold_to_single,
)
from ringlower.ring import ProductRing, ZBox, ZMod

from _corpus import corpus
from _naive import naive_definable_set

GADGETS = {n: default_gadgets(ZMod(n)) for n in (2, 3, 4, 5, 7)}


class TestEliminateInequalities:
    def test_nonzero_over_z5(self):
        f = parse_formula("params t . t != 0")
        out, trace = eliminate_inequalities(f, GADGETS[5].nonzero)
        assert classify(out) <= SyntacticClass.POSITIVE_EXISTENTIAL
        assert out == parse_formula("params t . exists _x1 . _x1*t - 1 = 0")
        assert trace.fresh_variables == 1  # the gadget witness copy
        assert sets_equal(f, out, ZMod(5)).verdict is Verdict.EQUAL
        assert definable_set(out, ZMod(5)).tuples == ((1,), (2,), (3,), (4,))

    def test_identity_on_positive_input(self):
        f = parse_formula("params t . t = 0 | t - 1 = 0")
        out, trace = eliminate_inequalities(f, GADGETS[5].nonzero)
        assert out is f
        assert trace.fresh_variables == 0
        assert trace.gadgets_used == ()

    def test_zbox_gadget(self):
        box = ZBox(20)
        gs = default_gadgets(box)
        f = parse_formula("params t . t != 0")
        out, _ = eliminate_inequalities(f, gs.nonzero)
        members = definable_set(out, box).tuples
        assert members == tuple((t,) for t in range(-20, 21) if t != 0)


class TestEliminateDisjunctions:
    def test_two_point_set_over_z5(self):
        f = parse_formula("params t . t = 0 | t - 1 = 0")
        out, trace = eliminate_disjunctions(f, GADGETS[5].axes)
        assert out == parse_formula("params t . t^2 - t = 0")  # t*(t - 1) = 0
        assert trace.fresh_variables == 0  # the domain axes gadget has no witness
        assert sets_equal(f, out, ZMod(5)).verdict is Verdict.EQUAL
        assert definable_set(out, ZMod(5)).tuples == ((0,), (1,))

    def test_single_atom_unchanged(self):
        f = parse_formula("params t . t = 0")
        out, trace = eliminate_disjunctions(f, GADGETS[5].axes)
        assert out is f
        assert trace.gadgets_used == ()

    def test_union_axes_over_z4(self):
        f = parse_formula("params t . t = 0 | t - 2 = 0")
        out, _ = eliminate_disjunctions(f, GADGETS[4].axes)
        assert classify(out) <= SyntacticClass.CONJUNCTIVE
        assert definable_set(out, ZMod(4)).tuples == ((0,), (2,))

    def test_rejects_inequations(self):
        f = parse_formula("params t . t != 0")
        with pytest.raises(PassError, match="positive-existential"):
            eliminate_disjunctions(f, GADGETS[5].axes)

    def test_three_way_disjunction(self):
        f = parse_formula("params t . t = 0 | t - 1 = 0 | t - 2 = 0")
        for n in (4, 5):
            out, _ = eliminate_disjunctions(f, GADGETS[n].axes)
            assert classify(out) <= SyntacticClass.CONJUNCTIVE
            assert sets_equal(f, out, ZMod(n)).verdict is Verdict.EQUAL


class TestFoldToSingle:
    def test_two_atoms_over_z3(self):
        f = parse_formula("params t . t = 0 & t - 1 = 0")
        gadget = GADGETS[3].origin  # x^2 + y^2
        out, trace = fold_to_single(f, gadget)
        assert out.body == Atom(parse_polynomial("2*t^2 - 2*t + 1"), Relation.EQ)
        values = [out.body.poly.evaluate({"t": t}, ZMod(3)) for t in (0, 1, 2)]
        assert values == [1, 1, 2]
        assert definable_set(out, ZMod(3)).tuples == ()
        assert trace.fresh_variables == 0

    def test_repeated_atom(self):
        f = parse_formula("params t . t = 0 & t = 0")
        out, _ = fold_to_single(f, GADGETS[3].origin)
        assert out.body == Atom(parse_polynomial("2*t^2"), Relation.EQ)
        assert definable_set(out, ZMod(3)).tuples == ((0,),)

    def test_single_equation_is_identity(self):
        f = parse_formula("params t . exists x . t*x - 1 = 0")
        out, trace = fold_to_single(f, GADGETS[5].origin)
        assert out is f
        assert trace.gadgets_used == ()

    def test_rejects_non_conjunctive_input(self):
        f = parse_formula("params t . t = 0 | t - 1 = 0")
        with pytest.raises(PassError, match="conjunctive"):
            fold_to_single(f, GADGETS[5].origin)

    def test_degree_bound_single_step(self):
        gadget = GADGETS[3].origin
        f1 = parse_polynomial("t^2 - u")
        f2 = parse_polynomial("t*u - 1")
        folded = gadget.poly.substitute({"x": f1, "y": f2})
        assert folded.degree() <= gadget.poly.degree() * max(f1.degree(), f2.degree())

    def test_degree_bound_whole_fold(self):
        f = parse_formula("params t . t = 0 & t - 1 = 0 & t^2 - t = 0")
        gadget = GADGETS[5].origin
        out, trace = fold_to_single(f, gadget)
        r = 3
        bound = gadget.poly.degree() ** (r - 1) * 2
        assert trace.max_degree_after <= bound


class TestEncodeUnion:
    def test_axes_over_z4(self):
        sys0 = parse_formula("params t1 t2 . t1 = 0")
        sys1 = parse_formula("params t1 t2 . t2 = 0")
        result = encode_union(sys0, sys1, ZMod(4))
        assert result.sound
        e = result.formula.bound[-1]
        expected = {
            parse_polynomial("t1*t2"),
            parse_polynomial(f"t1*{e} - t1"),
            parse_polynomial(f"{e}*t2"),
            parse_polynomial(f"{e}^2 - {e}"),
        }
        assert {a.poly for a in atoms(result.formula.body)} == expected
        points = definable_set(result.formula, ZMod(4)).tuples
        assert len(points) == 7
        assert all(t1 == 0 or t2 == 0 for t1, t2 in points)

    def test_disconnected_ring_is_flagged_and_leaks(self):
        sys0 = parse_formula("params t1 t2 . t1 = 0")
        sys1 = parse_formula("params t1 t2 . t2 = 0")
        result = encode_union(sys0, sys1, ZMod(6))
        assert not result.sound
        points = set(definable_set(result.formula, ZMod(6)).tuples)
        axes = {(t1, t2) for t1 in range(6) for t2 in range(6) if t1 == 0 or t2 == 0}
        assert axes < points
        assert (3, 2) in points - axes

    def test_union_with_itself(self):
        system = parse_formula("params t . exists x . t - x^2 = 0")
        result = encode_union(system, system, ZMod(5))
        assert (
            definable_set(result.formula, ZMod(5)).tuples
            == definable_set(system, ZMod(5)).tuples
        )

    def test_union_is_exact_over_connected_rings(self):
        pairs = [
            ("params t . t = 0", "params t . t - 1 = 0"),
            ("params t . exists x . t - x^2 = 0", "params t . t - 2 = 0"),
            ("params t u . t = 0 & u = 0", "params t u . t - u = 0"),
        ]
        for n in (2, 3, 4, 9):
            ring = ZMod(n)
            for left, right in pairs:
                sys0, sys1 = parse_formula(left), parse_formula(right)
                result = encode_union(sys0, sys1, ring)
                assert result.sound
                union = set(definable_set(sys0, ring).tuples) | set(
                    definable_set(sys1, ring).tuples
                )
                assert set(definable_set(result.formula, ring).tuples) == union

    def test_bound_lists_are_padded_to_equal_length(self):
        sys0 = parse_formula("params t . exists x y . t - x*y = 0")
        sys1 = parse_formula("params t . t = 0")
        result = encode_union(sys0, sys1, ZMod(3))
        # 2 renamed + 2 pad + indicator
        assert len(result.formula.bound) == 5

    def test_parameter_mismatch(self):
        with pytest.raises(PassError, match="parameter"):
            encode_union(
                parse_formula("params t . t = 0"),
                parse_formula("params u . u = 0"),
                ZMod(3),
            )

    def test_rejects_disjunctive_systems(self):
        with pytest.raises(PassError, match="conjunctive"):
            encode_union(
                parse_formula("params t . t = 0 | t - 1 = 0"),
                parse_formula("params t . t = 0"),
                ZMod(3),
            )


class TestCompile:
    def test_full_pipeline_over_z5(self):
        f = parse_formula("params t . t != 0 | t - 1 = 0")
        result = compile_formula(f, ZMod(5), GADGETS[5], SyntacticClass.SINGLE_EQUATION)
        # t*x - 1 = 0 | t - 1 = 0 is one atom over a domain: nothing to fold
        assert [t.name for t in result.traces] == [
            "eliminate_inequalities",
            "eliminate_disjunctions",
        ]
        assert result.formula == parse_formula(
            "params t . exists _x1 . (_x1*t - 1)*(t - 1) = 0"
        )
        previous = f
        for stage in result.stages:
            assert sets_equal(previous, stage, ZMod(5)).verdict is Verdict.EQUAL
            previous = stage
        assert definable_set(result.formula, ZMod(5)).tuples == (
            (1,), (2,), (3,), (4,),
        )

        f = parse_formula("params t . t != 0 & t - 1 = 0")
        result = compile_formula(f, ZMod(5), GADGETS[5], SyntacticClass.SINGLE_EQUATION)
        assert [t.name for t in result.traces] == [
            "eliminate_inequalities",
            "fold_to_single",
        ]
        previous = f
        for stage in result.stages:
            assert sets_equal(previous, stage, ZMod(5)).verdict is Verdict.EQUAL
            previous = stage
        assert definable_set(result.formula, ZMod(5)).tuples == ((1,),)

    def test_disjunction_of_equations_needs_no_fresh_variable(self):
        f = parse_formula("params t . t = 0 | t - 1 = 0 | t - 2 = 0")
        result = compile_formula(f, ZMod(5), GADGETS[5], SyntacticClass.SINGLE_EQUATION)
        assert [(t.name, t.fresh_variables) for t in result.traces] == [
            ("eliminate_disjunctions", 0),
        ]
        assert result.formula == parse_formula("params t . t*(t - 1)*(t - 2) = 0")
        assert definable_set(result.formula, ZMod(5)).tuples == ((0,), (1,), (2,))

    def test_already_single_equation_runs_no_passes(self):
        f = parse_formula("params t . exists x . t*x - 1 = 0")
        result = compile_formula(f, ZMod(5), GADGETS[5], SyntacticClass.SINGLE_EQUATION)
        assert result.traces == ()
        assert result.formula is f

    def test_positive_target_on_positive_input_is_identity(self):
        f = parse_formula("params t . t = 0 | t - 1 = 0")
        result = compile_formula(
            f, ZMod(5), GADGETS[5], SyntacticClass.POSITIVE_EXISTENTIAL
        )
        assert result.traces == ()
        assert result.formula is f

    def test_missing_gadgets_are_aggregated(self):
        ring = ProductRing(ZMod(2), ZMod(2))
        gs = default_gadgets(ring)
        f = parse_formula("params t . t != 0 | t - 1 = 0")
        with pytest.raises(MissingGadgetError) as err:
            compile_formula(f, ring, gs, SyntacticClass.SINGLE_EQUATION)
        kinds = {kind for _, kind, _ in err.value.entries}
        assert "nonzero" in kinds
        assert "axes" in kinds

    def test_refuted_axes_blocks_descent(self):
        gs = default_gadgets(ZMod(6))
        f = parse_formula("params t . t = 0 | t - 1 = 0")
        with pytest.raises(MissingGadgetError, match="REFUTED"):
            compile_formula(f, ZMod(6), gs, SyntacticClass.CONJUNCTIVE)

    def test_allow_unverified_override(self):
        gs = default_gadgets(ZMod(6))
        f = parse_formula("params t . t = 0 | t - 1 = 0")
        result = compile_formula(
            f, ZMod(6), gs, SyntacticClass.CONJUNCTIVE, allow_unverified=True
        )
        # the pass runs, and the oracle then catches the unsoundness
        assert sets_equal(f, result.formula, ZMod(6)).verdict is Verdict.DIFFER


def test_zero_ring_pipeline():
    # over the zero ring every equation holds, so lowering must preserve
    # "everything": {0} stays {0}
    ring = ZMod(1)
    gs = default_gadgets(ring)
    f = parse_formula("params t . t = 0 | t - 1 = 0")
    result = compile_formula(f, ring, gs, SyntacticClass.SINGLE_EQUATION)
    previous = f
    for stage in result.stages:
        assert sets_equal(previous, stage, ring).verdict is Verdict.EQUAL
        previous = stage
    assert definable_set(result.formula, ring).tuples == ((0,),)


def test_nested_product_backend_pipeline():
    from ringlower.ring import parse_ring

    ring = parse_ring("product:(zmod:2,product:(zmod:3,zmod:5))")
    gs = default_gadgets(ring)
    assert gs.nonzero is not None and gs.nonzero.is_usable()
    assert gs.origin is not None and gs.origin.is_usable()
    assert gs.axes is not None and not gs.axes.is_usable()
    f = parse_formula("params t . t != 0")
    result = compile_formula(f, ring, gs, SyntacticClass.POSITIVE_EXISTENTIAL)
    assert sets_equal(f, result.formula, ring).verdict is Verdict.EQUAL


def test_zbox_pipeline_to_conjunctive():
    ring = ZBox(4)
    gs = default_gadgets(ring)
    f = parse_formula("params t . t = 0 | t - 1 = 0")
    result = compile_formula(f, ring, gs, SyntacticClass.CONJUNCTIVE)
    outcome = sets_equal(f, result.formula, ring)
    assert outcome.verdict is Verdict.HEURISTIC_EQUAL


def test_class_monotonicity_and_hygiene_over_corpus():
    for n in (3, 5):
        ring = ZMod(n)
        gs = GADGETS[n]
        for f in corpus():
            result = compile_formula(f, ring, gs, SyntacticClass.CONJUNCTIVE)
            previous = f
            seen = set(all_variables(f))
            for trace, stage in zip(result.traces, result.stages):
                target = {
                    "eliminate_inequalities": SyntacticClass.POSITIVE_EXISTENTIAL,
                    "eliminate_disjunctions": SyntacticClass.CONJUNCTIVE,
                    "fold_to_single": SyntacticClass.SINGLE_EQUATION,
                }[trace.name]
                assert classify(stage) <= target
                introduced = set(stage.bound) - set(previous.bound)
                assert len(introduced) == trace.fresh_variables
                assert not introduced & seen  # fresh names never collide
                seen |= introduced
                previous = stage


def test_semantic_preservation_sample():
    sample = corpus()[:12]
    for n in (2, 3):
        ring = ZMod(n)
        gs = GADGETS[n]
        for f in sample:
            result = compile_formula(f, ring, gs, SyntacticClass.CONJUNCTIVE)
            previous = f
            for stage in result.stages:
                assert sets_equal(previous, stage, ring).verdict is Verdict.EQUAL
                previous = stage


@st.composite
def pipeline_formulas(draw):
    params = draw(st.sampled_from([("t",), ("t", "u")]))
    bound = draw(st.sampled_from([(), ("v",)]))
    names = params + bound

    def poly():
        p = Polynomial.constant(draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(1, 2))):
            term = Polynomial.constant(draw(st.integers(-2, 2)))
            for var in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)):
                term = term * Polynomial.variable(var)
            p = p + term
        return p

    def body(depth):
        if depth == 0 or draw(st.booleans()):
            rel = draw(st.sampled_from([Relation.EQ, Relation.NEQ]))
            return Atom(poly(), rel)
        parts = [body(depth - 1) for _ in range(2)]
        return conjunction(parts) if draw(st.booleans()) else disjunction(parts)

    return Formula(params, bound, body(2))


@given(pipeline_formulas(), st.sampled_from([2, 3]))
@settings(max_examples=50, deadline=None)
def test_pipeline_agrees_with_naive_oracle(f, n):
    # end-to-end: lower to conjunctive form and let the independent naive
    # enumerator referee the defined sets
    ring = ZMod(n)
    result = compile_formula(f, ring, GADGETS[n], SyntacticClass.CONJUNCTIVE)
    assume(len(result.formula.bound) <= 6)  # keep the naive referee affordable
    assert naive_definable_set(f, ring) == naive_definable_set(result.formula, ring)
    assert (
        definable_set(result.formula, ring).tuples
        == naive_definable_set(result.formula, ring)
    )
