import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlower.formula import Atom, Formula, Relation, conjunction, disjunction
from ringlower.gadgets import Status, default_gadgets
from ringlower.oracle import (
    ProductVerdict,
    Verdict,
    count_solutions,
    definable_set,
    has_witness,
    is_product_set,
    sets_equal,
)
from ringlower.parser import parse_formula, parse_polynomial
from ringlower.poly import Polynomial
from ringlower.ring import ProductRing, ZBox, ZMod, parse_ring

from _corpus import corpus
from _naive import naive_definable_set


class TestDefinableSet:
    def test_units_of_z6(self):
        f = parse_formula("params t . exists x . t*x - 1 = 0")
        assert definable_set(f, ZMod(6)).tuples == ((1,), (5,))

    def test_trivial_equation_defines_everything(self):
        f = parse_formula("params t . 0 = 0")
        assert definable_set(f, ZMod(3)).tuples == ((0,), (1,), (2,))

    def test_xy_zero_over_z4_has_extra_point(self):
        f = parse_formula("params x y . x*y = 0")
        result = definable_set(f, ZMod(4))
        assert len(result) == 8
        assert (2, 2) in result  # so x*y = 0 is not the axes over zmod:4

    def test_arity_zero(self):
        satisfiable = parse_formula("params . exists x . x - 1 = 0")
        unsatisfiable = parse_formula("params . 1 = 0")
        assert definable_set(satisfiable, ZMod(3)).tuples == ((),)
        assert definable_set(unsatisfiable, ZMod(3)).tuples == ()

    def test_zbox_is_flagged_heuristic(self):
        f = parse_formula("params t . exists x . t*x - 1 = 0")
        result = definable_set(f, ZBox(10))
        assert result.tuples == ((-1,), (1,))
        assert not result.exhaustive

    def test_zbox_witness_box_defaults_to_four_times(self):
        # witnesses for t - 4*x = 0 with |t| <= 10 need |x| <= 2.5, and for
        # param box 10 the default witness window is 40
        f = parse_formula("params t . exists x . t - 4*x = 0")
        result = definable_set(f, ZBox(10))
        assert result.tuples == ((-8,), (-4,), (0,), (4,), (8,))

    def test_product_backend(self):
        f = parse_formula("params t . t^2 - t = 0")
        ring = ProductRing(ZMod(2), ZMod(3))
        result = definable_set(f, ring)
        assert result.tuples == (((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),))

    def test_infinite_product_rejected(self):
        f = parse_formula("params t . t = 0")
        with pytest.raises(ValueError):
            definable_set(f, ProductRing(ZBox(5), ZMod(2)))


class TestSetsEqual:
    def test_reflexive(self):
        f = parse_formula("params t . exists x . t*x - 1 = 0")
        assert sets_equal(f, f, ZMod(7)).verdict is Verdict.EQUAL

    def test_differ_with_witness(self):
        f1 = parse_formula("params t . t = 0")
        f2 = parse_formula("params t . t^2 = 0")
        result = sets_equal(f1, f2, ZMod(4))
        assert result.verdict is Verdict.DIFFER
        assert result.witness == (2,)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            sets_equal(
                parse_formula("params t . t = 0"),
                parse_formula("params t u . t = 0"),
                ZMod(3),
            )

    def test_heuristic_equal_over_zbox(self):
        f1 = parse_formula("params t . exists x . t - 2*x = 0")
        f2 = parse_formula("params t . exists x y . t - x - x + 2*y - 2*y = 0")
        result = sets_equal(f1, f2, ZBox(8))
        assert result.verdict is Verdict.HEURISTIC_EQUAL

    def test_zbox_differ(self):
        f1 = parse_formula("params t . t = 0")
        f2 = parse_formula("params t . t^2 - t = 0")
        result = sets_equal(f1, f2, ZBox(8))
        assert result.verdict is Verdict.DIFFER
        assert result.witness == (1,)

    def test_axes_vs_union_encoding_over_z6(self):
        from ringlower.passes import encode_union

        axes = parse_formula("params z w . z = 0 | w = 0")
        union = encode_union(
            parse_formula("params z w . z = 0"),
            parse_formula("params z w . w = 0"),
            ZMod(6),
        ).formula
        result = sets_equal(axes, union, ZMod(6))
        assert result.verdict is Verdict.DIFFER
        # the leaked points are exactly the CRT-mixed ones
        assert result.witness in {(2, 3), (3, 2), (3, 4), (4, 3)}
        z, w = result.witness
        assert z != 0 and w != 0


class TestIsProductSet:
    @staticmethod
    def axes_set(ring):
        f = parse_formula("params z w . z = 0 | w = 0")
        return definable_set(f, ring)

    def test_axes_are_not_a_product(self):
        result = is_product_set(self.axes_set(ProductRing(ZMod(2), ZMod(3))))
        assert result.verdict is ProductVerdict.NOT_PRODUCT
        z, w = result.witness
        # mixed recombination: nonzero in one factor on each side
        assert z != (0, 0) and w != (0, 0)

    def test_polynomial_zero_sets_are_products(self):
        ring = ProductRing(ZMod(2), ZMod(3))
        for text in ("params z w . z*w = 0", "params t . t^2 - 1 = 0"):
            result = is_product_set(definable_set(parse_formula(text), ring))
            assert result.verdict is ProductVerdict.PRODUCT

    def test_empty_set_is_a_product(self):
        ring = ProductRing(ZMod(2), ZMod(2))
        result = is_product_set(definable_set(parse_formula("params t . 1 = 0"), ring))
        assert result.verdict is ProductVerdict.PRODUCT

    def test_needs_product_backend(self):
        with pytest.raises(ValueError):
            is_product_set(definable_set(parse_formula("params t . t = 0"), ZMod(4)))


class TestCountSolutions:
    def test_crt_origin_gadget_over_z6(self):
        assert count_solutions(parse_polynomial("x^2 + 3*x*y + y^2"), ZMod(6)) == 1

    def test_axes_over_a_field(self):
        assert count_solutions(parse_polynomial("x*y"), ZMod(5)) == 9

    def test_zero_polynomial_in_one_variable(self):
        assert count_solutions(Polynomial.zero(), ZMod(3), variables=("t",)) == 3

    def test_rejects_infinite_backend(self):
        with pytest.raises(ValueError):
            count_solutions(parse_polynomial("x"), ZBox(5))


def test_alpha_equivalence():
    for n in range(2, 7):
        f = parse_formula("params t . exists x y . t - x*y = 0 & x - y != 0")
        g = parse_formula("params t . exists u v . t - u*v = 0 & u - v != 0")
        assert definable_set(f, ZMod(n)).tuples == definable_set(g, ZMod(n)).tuples


def test_crt_projection_consistency():
    # the defined set of a conjunctive formula over zmod:n is the CRT
    # recombination of the sets over its prime-power factors
    from ringlower.ring import crt_split

    texts = [
        "params t . exists x . t - x^2 = 0",
        "params t u . t*u = 0 & t - u = 0",
        "params t . t = 0 & 2*t - 2 = 0",
    ]
    for n in (6, 12):
        split = crt_split(ZMod(n))
        for text in texts:
            f = parse_formula(text)
            whole = set(definable_set(f, ZMod(n)).tuples)
            factor_sets = [set(definable_set(f, factor).tuples) for factor, _ in split]
            recombined = set()
            first = factor_sets[0]
            rest = factor_sets[1:]

            def grow(prefix, remaining):
                if not remaining:
                    recombined.add(prefix)
                    return
                for choice in remaining[0]:
                    grow(prefix + (choice,), remaining[1:])

            for start in first:
                grow((start,), rest)
            rebuilt = set()
            for combo in recombined:
                point = []
                for coordinate in range(len(f.params)):
                    value = sum(
                        combo[i][coordinate] * idem
                        for i, (_, idem) in enumerate(split)
                    ) % n
                    point.append(value)
                rebuilt.add(tuple(point))
            assert whole == rebuilt


def test_conjunctive_sets_over_products_are_products():
    ring = ProductRing(ZMod(2), ZMod(3))
    texts = [
        "params t . exists x . t - x^2 = 0",
        "params z w . z*w = 0 & z - w = 0",
        "params t u . exists x . t*x - u = 0 & x^2 - x = 0",
    ]
    for text in texts:
        result = is_product_set(definable_set(parse_formula(text), ring))
        assert result.verdict is ProductVerdict.PRODUCT


def test_unused_parameter_scales_set_size():
    for n in (2, 3, 5):
        f = parse_formula("params t . exists x . t - x^2 = 0")
        g = parse_formula("params t u . exists x . t - x^2 = 0")
        assert len(definable_set(g, ZMod(n))) == n * len(definable_set(f, ZMod(n)))


def test_has_witness_matches_membership():
    f = parse_formula("params t . exists x . t*x - 1 = 0")
    ring = ZMod(6)
    members = set(definable_set(f, ring).tuples)
    for t in range(6):
        assert has_witness(f, (t,), ring) == ((t,) in members)


def test_first_witness_is_lexicographic():
    from ringlower.oracle import first_witness

    f = parse_formula("params t . exists x y . t - x*y = 0")
    ring = ZMod(5)
    assert first_witness(f, (0,), ring) == (0, 0)
    assert first_witness(f, (2,), ring) == (1, 2)  # first (x, y) with x*y = 2
    g = parse_formula("params t . exists x . t*x - 1 = 0")
    assert first_witness(g, (0,), ZMod(4)) is None
    assert first_witness(g, (3,), ZMod(4)) == (3,)


def test_serialization_is_deterministic():
    f = parse_formula("params z w . z = 0 | w = 0")
    ring = ProductRing(ZMod(2), ZMod(2))
    result = definable_set(f, ring)
    assert result.to_lines() == [
        "(0,0) (0,0)",
        "(0,0) (0,1)",
        "(0,0) (1,0)",
        "(0,0) (1,1)",
        "(0,1) (0,0)",
        "(1,0) (0,0)",
        "(1,1) (0,0)",
    ]
    assert result.to_json()["tuples"][0] == [[0, 0], [0, 0]]
    assert result.to_json()["exhaustive"] is True


@st.composite
def small_formulas(draw):
    params = draw(st.sampled_from([("t",), ("t", "u")]))
    bound = draw(st.sampled_from([(), ("x",), ("x", "y")]))
    names = params + bound

    def poly():
        p = Polynomial.constant(draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(0, 2))):
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


@given(small_formulas(), st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_backtracking_oracle_matches_naive_enumeration(f, n):
    ring = ZMod(n)
    assert definable_set(f, ring).tuples == naive_definable_set(f, ring)


@given(small_formulas())
@settings(max_examples=25, deadline=None)
def test_backtracking_matches_naive_over_a_product(f):
    ring = ProductRing(ZMod(2), ZMod(2))
    assert definable_set(f, ring).tuples == naive_definable_set(f, ring)


README_RINGS = [f"zmod:{n}" for n in range(1, 10)] + [
    "product:(zmod:2,zmod:3)",
    "product:(zmod:2,zmod:2)",
    "zbox:3",
]


@pytest.mark.parametrize("descriptor", README_RINGS)
def test_domain_consumers_match_naive_enumeration(descriptor):
    """The gadget verifiers and sets_equal against plain product
    enumeration over the same windows: a ZBox enumerates parameters in its
    box, witnesses in a window 4x wider, and re-checks a one-sided tuple
    with witnesses in a window 4x wider again."""
    ring = parse_ring(descriptor)
    zero = ring.zero()
    exhaustive = not isinstance(ring, ZBox)
    if exhaustive:
        window = witnesses = recheck = list(ring.elements())
    else:
        window, witnesses, recheck = (
            range(-k * ring.bound, k * ring.bound + 1) for k in (1, 4, 16)
        )

    expected = {
        "origin": {(zero, zero)},
        "axes": {(a, zero) for a in window} | {(zero, b) for b in window},
        "nonzero": {(a,) for a in window if a != zero},
    }
    gadget_set = default_gadgets(ring)
    for kind, want in expected.items():
        gadget = gadget_set.get(kind)
        if gadget is None:
            continue
        if kind == "origin":
            formula = Formula(gadget.variables, (), Atom(gadget.poly, Relation.EQ))
        else:
            formula = gadget.formula
        found = set(naive_definable_set(formula, ring, window, witnesses))
        usable = gadget.status.status in (Status.VERIFIED, Status.HEURISTIC)
        assert usable == (found == want), (kind, gadget.status)

    # Over zbox:3, t = +-3 needs the witness x = +-15, outside the witness
    # window and inside the re-check window.
    formulas = corpus() + [parse_formula("params t . exists x . x - 5*t = 0")]
    cache: dict = {}

    def naive(i, wide=False):
        if (i, wide) not in cache:
            cache[i, wide] = set(
                naive_definable_set(formulas[i], ring, window, recheck if wide else witnesses)
            )
        return cache[i, wide]

    for i, f1 in enumerate(formulas):
        for j, f2 in enumerate(formulas):
            if len(f1.params) != len(f2.params):
                continue
            result = sets_equal(f1, f2, ring)
            if exhaustive:
                differing = naive(i) ^ naive(j)
            else:
                differing = (naive(i) - naive(j, True)) | (naive(j) - naive(i, True))
            if differing:
                assert result.verdict is Verdict.DIFFER, (i, j)
                assert result.witness in differing
                if exhaustive:
                    assert result.witness == min(differing)
            else:
                equal = Verdict.EQUAL if exhaustive else Verdict.HEURISTIC_EQUAL
                assert result.verdict is equal, (i, j)
