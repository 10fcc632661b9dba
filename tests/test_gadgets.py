import random

import pytest

from ringlower.formula import SyntacticClass, classify
from ringlower.gadgets import (
    AxesGadget,
    GadgetError,
    NonzeroGadget,
    OriginGadget,
    Status,
    crt_combine_origin,
    default_gadgets,
    norm_form_gadget,
    parse_gadget_config,
    render_gadget_config,
    search_origin_gadget,
    verify_axes_gadget,
    verify_gadget_set,
    verify_nonzero_gadget,
    verify_origin_gadget,
)
from ringlower.oracle import count_solutions, definable_set
from ringlower.parser import parse_formula, parse_polynomial
from ringlower.poly import Polynomial
from ringlower.ring import ProductRing, ZBox, ZMod


class TestVerifyOrigin:
    def test_quadratic_over_z2(self):
        result = verify_origin_gadget(parse_polynomial("x^2 + x*y + y^2"), ZMod(2))
        assert result.status is Status.VERIFIED
        assert result.points_checked == 4

    def test_sum_of_squares_fails_over_z5(self):
        result = verify_origin_gadget(parse_polynomial("x^2 + y^2"), ZMod(5))
        assert result.status is Status.REFUTED
        assert result.witness == (1, 2)  # 1 + 4 = 5

    def test_sum_of_squares_heuristic_over_integers(self):
        result = verify_origin_gadget(parse_polynomial("x^2 + y^2"), ZBox(100))
        assert result.status is Status.HEURISTIC
        assert result.box == 100

    def test_rejects_wrong_variable_count(self):
        with pytest.raises(GadgetError):
            verify_origin_gadget(parse_polynomial("x + y + z"), ZMod(2))
        with pytest.raises(GadgetError):
            verify_origin_gadget(parse_polynomial("x^2"), ZMod(2))

    def test_gadget_object_with_designated_pair(self):
        gadget = OriginGadget(parse_polynomial("x^2"), ("x", "y"))
        result = verify_origin_gadget(gadget, ZMod(2))
        assert result.status is Status.REFUTED
        assert result.witness == (0, 1)


class TestSearch:
    def test_z2_finds_the_quadratic(self):
        found = search_origin_gadget(ZMod(2), 2)
        assert found.poly == parse_polynomial("x^2 + x*y + y^2")
        assert found.status.status is Status.VERIFIED

    def test_z3_finds_sum_of_squares(self):
        found = search_origin_gadget(ZMod(3), 2)
        assert found.poly == parse_polynomial("x^2 + y^2")

    def test_zero_ring_accepts_the_zero_polynomial(self):
        found = search_origin_gadget(ZMod(1), 2)
        assert found.poly == Polynomial.zero()
        assert found.status.status is Status.VERIFIED

    def test_no_quadratic_gadget_over_square_moduli(self):
        for n in (4, 8, 9):
            assert search_origin_gadget(ZMod(n), 2) is None

    def test_deterministic(self):
        first = search_origin_gadget(ZMod(6), 2)
        second = search_origin_gadget(ZMod(6), 2)
        assert first.poly == second.poly
        assert count_solutions(first.poly, ZMod(6)) == 1

    def test_rejects_infinite_backend(self):
        with pytest.raises(GadgetError):
            search_origin_gadget(ZBox(5), 2)


class TestNormForm:
    def test_gaussian_integers(self):
        gadget = norm_form_gadget(-1)
        assert gadget.poly == parse_polynomial("x^2 + y^2")
        assert gadget.status.status is Status.UNVERIFIED
        assert verify_origin_gadget(gadget, ZBox(50)).status is Status.HEURISTIC

    def test_nonresidue_over_z5(self):
        gadget = norm_form_gadget(2)
        assert gadget.poly == parse_polynomial("x^2 - 2*y^2")
        assert verify_origin_gadget(gadget, ZMod(5)).status is Status.VERIFIED

    def test_square_d_must_fail(self):
        gadget = norm_form_gadget(4)
        result = verify_origin_gadget(gadget, ZBox(10))
        assert result.status is Status.REFUTED
        assert result.witness == (-10, -5)
        a, b = result.witness
        assert a * a - 4 * b * b == 0 and (a, b) != (0, 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            norm_form_gadget(0)


class TestCrtCombine:
    def test_two_and_three(self):
        g2 = search_origin_gadget(ZMod(2), 2)
        g3 = search_origin_gadget(ZMod(3), 2)
        combined = crt_combine_origin(g2, ZMod(2), g3, ZMod(3))
        # 3*(x^2 + x*y + y^2) + 4*(x^2 + y^2) = x^2 + 3*x*y + y^2 (mod 6)
        assert combined.poly == parse_polynomial("x^2 + 3*x*y + y^2")
        assert combined.status.status is Status.VERIFIED
        assert combined.poly.evaluate({"x": 3, "y": 2}, ZMod(6)) == 1
        assert count_solutions(combined.poly, ZMod(6)) == 1

    def test_identical_gadgets_combine_to_themselves(self):
        # one polynomial with 0/1 coefficients that is an origin gadget over
        # both factors: x^3*y + x*y^3 + x^2*y^2 + x^2 + y^2
        poly = parse_polynomial("x^3*y + x*y^3 + x^2*y^2 + x^2 + y^2")
        g = OriginGadget(poly)
        assert verify_origin_gadget(g, ZMod(2)).status is Status.VERIFIED
        assert verify_origin_gadget(g, ZMod(3)).status is Status.VERIFIED
        combined = crt_combine_origin(g, ZMod(2), g, ZMod(3))
        assert combined.poly == poly

    def test_rejects_shared_factor(self):
        g4 = OriginGadget(parse_polynomial("x^2 + y^2"))
        g2 = OriginGadget(parse_polynomial("x^2 + x*y + y^2"))
        with pytest.raises(GadgetError, match="coprime"):
            crt_combine_origin(g4, ZMod(4), g2, ZMod(2))

    def test_rejects_unverified_inputs(self):
        bad = OriginGadget(parse_polynomial("x*y"))
        good = search_origin_gadget(ZMod(3), 2)
        with pytest.raises(GadgetError, match="not verified"):
            crt_combine_origin(bad, ZMod(2), good, ZMod(3))


class TestDefaults:
    def test_field_nonzero_defines_the_units(self):
        gs = default_gadgets(ZMod(5))
        assert gs.nonzero.status.status is Status.VERIFIED
        assert definable_set(gs.nonzero.formula, ZMod(5)).tuples == (
            (1,), (2,), (3,), (4,),
        )

    def test_prime_power_nonzero(self):
        for n in (4, 8, 9):
            gs = default_gadgets(ZMod(n))
            assert gs.nonzero.status.status is Status.VERIFIED
            expected = tuple((t,) for t in range(1, n))
            assert definable_set(gs.nonzero.formula, ZMod(n)).tuples == expected

    def test_zbox_nonzero_represents_small_integers(self):
        gs = default_gadgets(ZBox(20))
        assert gs.nonzero.status.status is Status.HEURISTIC
        members = definable_set(gs.nonzero.formula, ZBox(20)).tuples
        assert members == tuple((t,) for t in range(-20, 21) if t != 0)

    def test_z6_axes_attempt_fails(self):
        gs = default_gadgets(ZMod(6))
        assert gs.axes.status.status is Status.REFUTED
        assert "axes" in gs.notes

    def test_domain_axes(self):
        gs = default_gadgets(ZMod(7))
        assert gs.axes.status.status is Status.VERIFIED
        assert classify(gs.axes.formula) is SyntacticClass.SINGLE_EQUATION

    def test_union_axes_over_prime_powers(self):
        for n in (4, 8, 9):
            gs = default_gadgets(ZMod(n))
            assert gs.axes.status.status is Status.VERIFIED
            assert gs.origin is None
            assert "origin" in gs.notes

    def test_zero_ring_is_degenerate(self):
        gs = default_gadgets(ZMod(1))
        assert gs.origin.status.status is Status.VERIFIED
        assert gs.axes.status.status is Status.VERIFIED
        assert gs.nonzero is None

    def test_coprime_product_matches_z6(self):
        gs = default_gadgets(ProductRing(ZMod(2), ZMod(3)))
        assert gs.nonzero.status.status is Status.VERIFIED
        assert gs.origin.status.status is Status.VERIFIED
        assert gs.axes.status.status is Status.REFUTED

    def test_non_coprime_product_has_no_nonzero(self):
        gs = default_gadgets(ProductRing(ZMod(2), ZMod(2)))
        assert gs.nonzero is None
        assert "nonzero" in gs.notes


def test_verified_origin_gadgets_have_exactly_one_zero():
    for n in (2, 3, 5, 6, 7):
        gadget = search_origin_gadget(ZMod(n), 2)
        assert count_solutions(gadget.poly, ZMod(n), variables=gadget.variables) == 1


def test_no_axes_gadget_verifies_over_a_product():
    # every candidate the system constructs must fail over a product of
    # nonzero rings
    from ringlower.passes import encode_union

    for ring in (ProductRing(ZMod(2), ZMod(3)), ProductRing(ZMod(2), ZMod(2))):
        candidates = [AxesGadget(parse_formula("params z w . z*w = 0"))]
        z0 = parse_formula("params z w . z = 0")
        w0 = parse_formula("params z w . w = 0")
        candidates.append(AxesGadget(encode_union(z0, w0, ring).formula))
        for candidate in candidates:
            assert verify_axes_gadget(candidate, ring).status is Status.REFUTED


def test_fold_precondition_zeros_of_g_compose():
    # for a verified origin gadget g: g(f1, f2) vanishes exactly where both
    # f1 and f2 vanish, exhaustively over the point space
    rng = random.Random(20260809)
    names = ("a", "b", "c")

    def random_poly():
        p = Polynomial.constant(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3)):
            term = Polynomial.constant(rng.randint(-2, 2))
            for var in rng.sample(names, rng.randint(1, 2)):
                term = term * Polynomial.variable(var)
            p = p + term
        return p

    for n in (2, 3, 5, 6, 7, 8):
        gadget = search_origin_gadget(ZMod(n), 2)
        if gadget is None:
            continue  # no gadget exists (square moduli); nothing to check
        ring = ZMod(n)
        vx, vy = gadget.variables
        for _ in range(6):
            f1, f2 = random_poly(), random_poly()
            composed = gadget.poly.substitute({vx: f1, vy: f2})
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        point = {"a": a, "b": b, "c": c}
                        both = (
                            f1.evaluate(point, ring) == 0
                            and f2.evaluate(point, ring) == 0
                        )
                        assert (composed.evaluate(point, ring) == 0) == both


def test_config_round_trip(tmp_path):
    gs = default_gadgets(ZMod(5))
    text = render_gadget_config([gs])
    loaded = parse_gadget_config(text, ZMod(5))
    assert loaded.origin.poly == gs.origin.poly
    assert loaded.origin.status.status is Status.UNVERIFIED
    reverified = verify_gadget_set(loaded)
    assert reverified.origin.status.status is Status.VERIFIED
    assert reverified.axes.status.status is Status.VERIFIED
    assert reverified.nonzero.status.status is Status.VERIFIED


def test_config_missing_section():
    with pytest.raises(GadgetError, match="no section"):
        parse_gadget_config("[zmod:3]\norigin = x^2 + y^2\n", ZMod(5))


@pytest.mark.parametrize(
    "text",
    [
        "origin = x^2 + y^2\n",
        "[zmod:5]\norigin = x^2 + y^2\norigin = x^2 + x*y + y^2\n",
        "[zmod:5]\nthis line has no key\n",
        "[zmod:5]\norigin = x^^2\n",
        "[zmod:5]\naxes = params z w . z*w = = 0\n",
    ],
    ids=["no-section-header", "duplicate-key", "not-key-value", "bad-origin", "bad-axes"],
)
def test_malformed_config_raises_gadget_error(text):
    with pytest.raises(GadgetError) as err:
        parse_gadget_config(text, ZMod(5))
    assert "\n" not in str(err.value)


def test_nonzero_gadget_shape_checks():
    with pytest.raises(GadgetError):
        NonzeroGadget(parse_formula("params t u . t = 0"))
    with pytest.raises(GadgetError):
        NonzeroGadget(parse_formula("params t . t != 0"))
    with pytest.raises(GadgetError):
        AxesGadget(parse_formula("params z w . z = 0 | w = 0"))


def test_verify_nonzero_gadget_refutes_wrong_definition():
    gadget = NonzeroGadget(parse_formula("params t . exists x . t*x - 1 = 0"))
    result = verify_nonzero_gadget(gadget, ZMod(6))  # units only: misses 2, 3, 4
    assert result.status is Status.REFUTED
    assert result.witness == (2,)
