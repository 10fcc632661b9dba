import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlower.formula import (
    And,
    Atom,
    Formula,
    NameAllocator,
    Or,
    Relation,
    SyntacticClass,
    all_variables,
    classify,
    conjunction,
    disjunction,
)
from ringlower.parser import (
    MAX_NESTING,
    ParseError,
    format_formula,
    parse_formula,
    parse_polynomial,
)
from ringlower.poly import Polynomial


def test_parse_field_inverse_formula():
    f = parse_formula("params t . exists x . t*x - 1 = 0")
    assert f.params == ("t",)
    assert f.bound == ("x",)
    assert f.body == Atom(parse_polynomial("t*x - 1"), Relation.EQ)


def test_parse_two_point_set():
    f = parse_formula("params t . t = 0 | t - 1 = 0")
    assert isinstance(f.body, Or)
    assert [c.relation for c in f.body.children] == [Relation.EQ, Relation.EQ]


def test_parse_negated_equation():
    f = parse_formula("params t . !(t = 0)")
    assert f.body == Atom(parse_polynomial("t"), Relation.NEQ)


def test_nnf_de_morgan():
    f = parse_formula("params t . !(t = 0 & t != 1)")
    assert f.body == Or(
        (
            Atom(parse_polynomial("t"), Relation.NEQ),
            Atom(parse_polynomial("t - 1"), Relation.EQ),
        )
    )
    g = parse_formula("params t . !!(t = 0)")
    assert g.body == Atom(parse_polynomial("t"), Relation.EQ)


def test_atoms_normalize_to_zero_form():
    f = parse_formula("params u v . u = v")
    assert f.body == Atom(parse_polynomial("u - v"), Relation.EQ)


def test_and_or_flatten():
    f = parse_formula("params t . (t = 0 & t = 1) & t = 2")
    assert isinstance(f.body, And)
    assert len(f.body.children) == 3
    g = parse_formula("params t . t = 0 | (t = 1 | t = 2)")
    assert isinstance(g.body, Or)
    assert len(g.body.children) == 3


def test_comments_and_whitespace():
    f = parse_formula(
        """
        params t .      # parameter list
        exists x .      # one witness
        t*x - 1 = 0
        """
    )
    assert f == parse_formula("params t . exists x . t*x-1=0")


def test_parenthesized_polynomials_vs_bodies():
    f = parse_formula("params t . (t - 1)*(t + 1) = 0")
    assert f.body == Atom(parse_polynomial("t^2 - 1"), Relation.EQ)
    g = parse_formula("params t . (t = 0 | t = 1) & (t - 1) = 0")
    assert isinstance(g.body, And)


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("params t . t + = 0")
        assert err.value.line == 1
        assert err.value.column == 16

    def test_shadowing_bound_variable(self):
        with pytest.raises(ParseError, match="shadows"):
            parse_formula("params t . exists t . t = 0")

    def test_duplicate_parameter(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_formula("params t t . t = 0")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_formula("params t . u = 0")

    def test_zero_exponent(self):
        with pytest.raises(ParseError, match="positive"):
            parse_formula("params t . t^0 = 0")

    def test_missing_relation(self):
        with pytest.raises(ParseError):
            parse_formula("params t . t + 1")

    def test_keyword_as_variable(self):
        with pytest.raises(ParseError):
            parse_formula("params t . exists = 0")

    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "(" * n + "t = 0" + ")" * n,
            lambda n: "(" * n + "t" + ")" * n + " = 0",
            lambda n: "!" * n + "t = 0",
            lambda n: "-" * n + "t = 0",
            lambda n: "!(" * (n // 2) + "-" * (n % 2) + "t = 0" + ")" * (n // 2),
        ],
        ids=["body-parens", "poly-parens", "not", "minus", "mixed"],
    )
    def test_nesting_past_the_limit_is_refused_at_its_token(self, nest):
        head = "params t . "
        parse_formula(head + nest(MAX_NESTING))
        with pytest.raises(ParseError, match="nesting deeper than") as err:
            parse_formula(head + nest(MAX_NESTING + 1))
        assert err.value.column == len(head) + MAX_NESTING + 1


class TestClassify:
    def test_single_equation(self):
        f = parse_formula("params t . exists x . t*x - 1 = 0")
        assert classify(f) is SyntacticClass.SINGLE_EQUATION

    def test_conjunctive(self):
        f = parse_formula("params t . t = 0 & t - 1 = 0")
        assert classify(f) is SyntacticClass.CONJUNCTIVE

    def test_positive_existential(self):
        f = parse_formula("params t . t = 0 | t - 1 = 0")
        assert classify(f) is SyntacticClass.POSITIVE_EXISTENTIAL

    def test_existential(self):
        f = parse_formula("params t . t != 0")
        assert classify(f) is SyntacticClass.EXISTENTIAL

    def test_chain_is_ordered(self):
        chain = [
            SyntacticClass.SINGLE_EQUATION,
            SyntacticClass.CONJUNCTIVE,
            SyntacticClass.POSITIVE_EXISTENTIAL,
            SyntacticClass.EXISTENTIAL,
        ]
        assert chain == sorted(chain)
        assert SyntacticClass.SINGLE_EQUATION < SyntacticClass.CONJUNCTIVE


class TestFreshVariables:
    @staticmethod
    def fresh(f, count, used=()):
        names = NameAllocator(all_variables(f) | set(used))
        return [names.take("v") for _ in range(count)]

    def test_disjoint_from_formula(self):
        f = parse_formula("params t . exists x . t*x - 1 = 0")
        names = self.fresh(f, 2)
        assert len(names) == 2
        assert not set(names) & all_variables(f)
        assert len(set(names)) == 2

    def test_accumulated_context_never_collides(self):
        f = parse_formula("params t . t = 0")
        used: set[str] = set()
        for _ in range(5):
            batch = self.fresh(f, 3, used=used)
            assert not set(batch) & used
            used.update(batch)
        assert len(used) == 15

    def test_zero_count(self):
        f = parse_formula("params _v1 . _v1 = 0")
        assert self.fresh(f, 0) == []
        assert self.fresh(f, 1) == ["_v2"]

    def test_reserved_prefix(self):
        f = parse_formula("params t . t = 0")
        assert all(name.startswith("_") for name in self.fresh(f, 3))


def test_empty_conjunction_is_trivial_equation():
    body = conjunction([])
    assert body == Atom(Polynomial.zero(), Relation.EQ)
    f = Formula(("t",), (), body)
    assert format_formula(f) == "params t . 0 = 0"
    assert parse_formula(format_formula(f)) == f


def test_print_parenthesizes_or_under_and():
    f = parse_formula("params t . (t = 0 | t = 1) & t = 2")
    text = format_formula(f)
    assert text == "params t . (t = 0 | t - 1 = 0) & t - 2 = 0"
    assert parse_formula(text) == f


@st.composite
def formulas(draw):
    params = draw(st.sampled_from([("t",), ("t", "u")]))
    bound = draw(st.sampled_from([(), ("x",), ("x", "y")]))
    names = params + bound

    def poly():
        p = Polynomial.constant(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 2))):
            term = Polynomial.constant(draw(st.integers(-2, 2)))
            for var in draw(st.lists(st.sampled_from(names), max_size=2)):
                term = term * Polynomial.variable(var)
            p = p + term
        return p

    def body(depth):
        if depth == 0 or draw(st.booleans()):
            rel = draw(st.sampled_from([Relation.EQ, Relation.NEQ]))
            return Atom(poly(), rel)
        parts = [body(depth - 1) for _ in range(draw(st.integers(2, 3)))]
        if draw(st.booleans()):
            return conjunction(parts)
        return disjunction(parts)

    return Formula(params, bound, body(2))


@given(formulas())
@settings(max_examples=120, deadline=None)
def test_parse_print_identity(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_print_parse_is_idempotent(f):
    text = format_formula(f)
    assert format_formula(parse_formula(text)) == text


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_nnf_invariant_no_negation_nodes(f):
    # NEQ atoms are the only negative material; reparsing keeps it that way
    reparsed = parse_formula(format_formula(f))

    def check(node):
        assert isinstance(node, (Atom, And, Or))
        if not isinstance(node, Atom):
            assert len(node.children) >= 2
            for child in node.children:
                check(child)

    check(reparsed.body)
