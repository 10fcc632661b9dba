"""The three ring gadgets and their verification machinery.

* origin gadget -- a two-variable polynomial whose only zero in ``R^2`` is
  ``(0, 0)``; lets a conjunction of equations collapse into one equation.
* axes gadget -- a conjunctive formula in two parameters defining
  ``(R x {0}) | ({0} x R)``; lets disjunctions be eliminated.
* nonzero gadget -- a positive-existential formula in one parameter
  defining ``R - {0}``; lets inequations be eliminated.

Every gadget carries a verification status.  The verifiers take their
points, window and status from the oracle's :class:`~ringlower.oracle.Domain`,
which owns the finite/window decision: exhaustive (VERIFIED) over a finite
backend, box-bounded (HEURISTIC) over ``ZBox``.  All three verifiers
share one check, defined set against expected set.  The passes refuse
anything unverified unless explicitly overridden.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import product

from .formula import Atom, Formula, Relation, SyntacticClass, classify, disjunction
from .oracle import Domain, definable_set
from .parser import ParseError, format_formula, parse_formula, parse_polynomial
from .poly import Polynomial
from .ring import RingBackend, ZBox, ZMod, as_single_modulus, crt_split, factorize


class GadgetError(ValueError):
    pass


class Status(Enum):
    VERIFIED = "VERIFIED"
    HEURISTIC = "HEURISTIC"
    REFUTED = "REFUTED"
    UNVERIFIED = "UNVERIFIED"


@dataclass(frozen=True)
class Verification:
    status: Status
    ring: str = ""
    witness: tuple | None = None
    points_checked: int = 0
    box: int | None = None

    def describe(self) -> str:
        text = self.status.value
        if self.ring:
            text += f" on {self.ring}"
        if self.box is not None:
            text += f" (box {self.box})"
        if self.witness is not None:
            text += f", witness {self.witness}"
        return text


UNVERIFIED = Verification(Status.UNVERIFIED)


def _usable(verification: Verification) -> bool:
    return verification.status in (Status.VERIFIED, Status.HEURISTIC)


@dataclass(frozen=True)
class OriginGadget:
    """Polynomial in two designated variables, expected to vanish only at
    the origin of ``R^2``."""

    poly: Polynomial
    variables: tuple[str, str] = ("x", "y")
    status: Verification = UNVERIFIED

    def __post_init__(self) -> None:
        extra = self.poly.variables() - set(self.variables)
        if extra:
            raise GadgetError(
                f"origin gadget uses variables outside its designated pair: {sorted(extra)}"
            )

    def is_usable(self) -> bool:
        return _usable(self.status)

    def describe(self) -> str:
        return str(self.poly)


@dataclass(frozen=True)
class AxesGadget:
    """Conjunctive formula with two parameters defining the union of axes."""

    formula: Formula
    status: Verification = UNVERIFIED

    def __post_init__(self) -> None:
        if len(self.formula.params) != 2:
            raise GadgetError("axes gadget needs exactly two parameters")
        if classify(self.formula) > SyntacticClass.CONJUNCTIVE:
            raise GadgetError("axes gadget must be conjunctive")

    def is_usable(self) -> bool:
        return _usable(self.status)

    def describe(self) -> str:
        return format_formula(self.formula)


@dataclass(frozen=True)
class NonzeroGadget:
    """Positive-existential formula with one parameter defining ``R - {0}``."""

    formula: Formula
    status: Verification = UNVERIFIED

    def __post_init__(self) -> None:
        if len(self.formula.params) != 1:
            raise GadgetError("nonzero gadget needs exactly one parameter")
        if classify(self.formula) > SyntacticClass.POSITIVE_EXISTENTIAL:
            raise GadgetError("nonzero gadget must be positive-existential")

    def is_usable(self) -> bool:
        return _usable(self.status)

    def describe(self) -> str:
        return format_formula(self.formula)


@dataclass
class GadgetSet:
    """Per-backend registry of the three gadget kinds, with notes for the
    kinds that could not be provided."""

    ring: RingBackend
    origin: OriginGadget | None = None
    axes: AxesGadget | None = None
    nonzero: NonzeroGadget | None = None
    notes: dict[str, str] = field(default_factory=dict)

    def get(self, kind: str):
        return getattr(self, kind)


def _verification(
    domain: Domain, ring: RingBackend, witness: tuple | None, arity: int
) -> Verification:
    """REFUTED at ``witness`` if there is one; otherwise VERIFIED on an
    exhaustive domain and HEURISTIC on a window."""
    if witness is not None:
        status = Status.REFUTED
    else:
        status = Status.VERIFIED if domain.exhaustive else Status.HEURISTIC
    return Verification(
        status, ring.descriptor(), witness, len(domain.params) ** arity, domain.box
    )


def _verify_defined_set(
    formula: Formula, ring: RingBackend, box: int | None, expected
) -> Verification:
    """Does ``formula`` define exactly ``expected(window, zero)`` on the
    domain's parameter window?  The witness is the least differing tuple."""
    domain = Domain.of(ring, box)
    actual = definable_set(formula, ring, param_box=box)
    differing = set(actual.tuples) ^ expected(domain.params, ring.zero())
    return _verification(domain, ring, min(differing, default=None), len(formula.params))


# -- origin gadgets --------------------------------------------------------------


def verify_origin_gadget(
    gadget: OriginGadget | Polynomial, ring: RingBackend, *, box: int | None = None
) -> Verification:
    """Check that the polynomial vanishes exactly at (0, 0) of the domain:
    VERIFIED/REFUTED on a finite backend, HEURISTIC/REFUTED on the window
    ``[-box, box]^2`` of a ZBox."""
    if isinstance(gadget, OriginGadget):
        poly, variables = gadget.poly, gadget.variables
    else:
        poly = gadget
        names = sorted(poly.variables())
        if len(names) != 2:
            raise GadgetError(
                f"origin gadget polynomial must use exactly two variables, got {names}"
            )
        variables = tuple(names)
    return _verify_defined_set(
        Formula(variables, (), Atom(poly, Relation.EQ)), ring, box,
        lambda window, zero: {(zero, zero)},
    )


def _search_monomials(max_degree: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j) for x^i * y^j, 1 <= i+j <= max_degree, ordered
    by total degree then by descending x-exponent."""
    out = []
    for d in range(1, max_degree + 1):
        for i in range(d, -1, -1):
            out.append((i, d - i))
    return out


def search_origin_gadget(
    ring: RingBackend, max_degree: int, variables: tuple[str, str] = ("x", "y")
) -> OriginGadget | None:
    """First verified origin gadget in a fixed deterministic order.

    Candidates are polynomials in the two designated variables with
    integer coefficients in ``{0, ..., char-1}`` and zero constant term
    (forced: the gadget must vanish at the origin).  They are enumerated
    by total degree, then by coefficient tuple in counting order.  Returns
    None when the whole space up to ``max_degree`` is exhausted.
    """
    if not ring.is_finite:
        raise GadgetError("origin gadget search needs a finite backend")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    char = ring.characteristic()
    zero = ring.zero()
    elements = list(ring.elements())
    points = [(a, b) for a in elements for b in elements if (a, b) != (zero, zero)]
    vx, vy = variables

    monomials = _search_monomials(max_degree)
    # Value of each candidate is a linear combination of per-monomial value
    # tables, which makes the scan cheap.
    tables = []
    for i, j in monomials:
        tables.append(
            [ring.mul(ring.pow(a, i), ring.pow(b, j)) for a, b in points]
        )
    canon = [ring.canonical(c) for c in range(char)]

    def candidate_ok(coeffs: tuple[int, ...], count: int) -> bool:
        for pt in range(len(points)):
            total = zero
            for k in range(count):
                c = coeffs[k]
                if c:
                    total = ring.add(total, ring.mul(canon[c], tables[k][pt]))
            if total == zero:
                return False
        return True

    def build(coeffs: tuple[int, ...], count: int) -> OriginGadget:
        poly = Polynomial.zero()
        for k in range(count):
            if coeffs[k]:
                i, j = monomials[k]
                poly = poly + coeffs[k] * (
                    Polynomial.variable(vx) ** i * Polynomial.variable(vy) ** j
                )
        verification = verify_origin_gadget(
            OriginGadget(poly, variables), ring
        )
        assert verification.status is Status.VERIFIED
        return OriginGadget(poly, variables, verification)

    # Degree 0: only the zero polynomial, which qualifies exactly when R^2
    # has no point besides the origin (the zero ring).
    if not points:
        return OriginGadget(
            Polynomial.zero(), variables,
            Verification(Status.VERIFIED, ring.descriptor(), None, 1),
        )

    for degree in range(1, max_degree + 1):
        count = sum(1 for i, j in monomials if i + j <= degree)
        lower = sum(1 for i, j in monomials if i + j <= degree - 1)
        for coeffs in product(range(char), repeat=count):
            if all(c == 0 for c in coeffs[lower:count]):
                continue  # already enumerated at a smaller degree
            if candidate_ok(coeffs, count):
                return build(coeffs, count)
    return None


def norm_form_gadget(
    d: int, variables: tuple[str, str] = ("x", "y")
) -> OriginGadget:
    """The quadratic norm form ``x^2 - d*y^2``.

    The caller asserts that ``d`` is not a square in the intended fraction
    field; the construction itself never fails and the result stays
    UNVERIFIED until checked against a backend.
    """
    if d == 0:
        raise ValueError("norm form needs a nonzero d")
    vx, vy = variables
    poly = Polynomial.variable(vx) ** 2 - d * Polynomial.variable(vy) ** 2
    return OriginGadget(poly, variables)


def crt_combine_origin(
    g1: OriginGadget, ring1: ZMod, g2: OriginGadget, ring2: ZMod
) -> OriginGadget:
    """Combine verified origin gadgets over coprime moduli into one over
    the product modulus, via the CRT idempotents, and verify it."""
    m, k = ring1.modulus, ring2.modulus
    if math.gcd(m, k) != 1:
        raise GadgetError(f"moduli {m} and {k} are not coprime")
    for gadget, ring in ((g1, ring1), (g2, ring2)):
        check = verify_origin_gadget(gadget, ring)
        if check.status is not Status.VERIFIED:
            raise GadgetError(
                f"input gadget {gadget.describe()} is not verified over {ring}: "
                f"{check.describe()}"
            )
    if g1.variables != g2.variables:
        raise GadgetError("gadgets must share their designated variable pair")
    n = m * k
    idem1 = (k * pow(k, -1, m)) % n if m > 1 else 0
    idem2 = (m * pow(m, -1, k)) % n if k > 1 else 0
    combined: dict = {}
    for mono, coeff in g1.poly.terms:
        combined[mono] = combined.get(mono, 0) + idem1 * coeff
    for mono, coeff in g2.poly.terms:
        combined[mono] = combined.get(mono, 0) + idem2 * coeff
    poly = Polynomial.from_dict({mono: c % n for mono, c in combined.items()})
    gadget = OriginGadget(poly, g1.variables)
    verification = verify_origin_gadget(gadget, ZMod(n))
    if verification.status is not Status.VERIFIED:
        raise GadgetError(
            f"CRT combination failed verification over zmod:{n}: "
            f"{verification.describe()}"
        )
    return replace(gadget, status=verification)


# -- axes and nonzero gadgets -----------------------------------------------------


def verify_axes_gadget(
    gadget: AxesGadget, ring: RingBackend, *, box: int | None = None
) -> Verification:
    """Check that the defined set is exactly ``(R x {0}) | ({0} x R)``."""
    return _verify_defined_set(
        gadget.formula, ring, box,
        lambda window, zero: {(a, zero) for a in window} | {(zero, b) for b in window},
    )


def verify_nonzero_gadget(
    gadget: NonzeroGadget, ring: RingBackend, *, box: int | None = None
) -> Verification:
    """Check that the defined set is exactly ``R - {0}`` (within the box
    for a ZBox backend)."""
    return _verify_defined_set(
        gadget.formula, ring, box,
        lambda window, zero: {(a,) for a in window if a != zero},
    )


# -- default gadget construction ----------------------------------------------------


def _field_style_nonzero(n: int) -> Formula:
    """Nonzero-set definition for any backend canonically isomorphic to
    ``ZMod(n)``: a residue is nonzero exactly when some multiple of it hits
    one of the targets ``idem * p^(e-1)``, one per prime-power factor."""
    t = Polynomial.variable("t")
    x = Polynomial.variable("x")
    targets = []
    for factor, idem in crt_split(ZMod(n)):
        q = factor.modulus
        ((prime, _),) = factorize(q)
        targets.append((idem * (q // prime)) % n)
    body = disjunction([Atom(t * x - c, Relation.EQ) for c in targets])
    return Formula(("t",), ("x",), body)


def _domain_axes_formula() -> Formula:
    z = Polynomial.variable("z")
    w = Polynomial.variable("w")
    return Formula(("z", "w"), (), Atom(z * w, Relation.EQ))


def _zbox_nonzero_formula() -> Formula:
    t = Polynomial.variable("t")
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    body = Atom(t - (2 * x - 1) * (3 * y - 1), Relation.EQ)
    return Formula(("t",), ("x", "y"), body)


def default_gadgets(ring: RingBackend, max_degree: int = 2) -> GadgetSet:
    """Construct and verify the standard gadgets a backend admits.

    Kinds that cannot be provided get an explanatory note; attempted
    constructions whose verification fails are kept with REFUTED status
    (the disconnected-ring axes failure is a first-class result, not an
    accident).
    """
    from .passes import encode_union

    gs = GadgetSet(ring)

    # nonzero
    if ring.is_zero_ring:
        gs.notes["nonzero"] = (
            "the zero ring has no nonzero element; R - {0} is empty and every "
            "positive-existential set over it is full"
        )
    elif isinstance(ring, ZBox):
        gadget = NonzeroGadget(_zbox_nonzero_formula())
        gs.nonzero = replace(gadget, status=verify_nonzero_gadget(gadget, ring))
    else:
        n = as_single_modulus(ring)
        if n is None:
            gs.notes["nonzero"] = (
                "backend is not canonically isomorphic to a single zmod; the "
                "image of the integers cannot separate its factors"
            )
        else:
            gadget = NonzeroGadget(_field_style_nonzero(n))
            gs.nonzero = replace(gadget, status=verify_nonzero_gadget(gadget, ring))

    # axes
    if ring.is_domain():
        gadget = AxesGadget(_domain_axes_formula())
        gs.axes = replace(gadget, status=verify_axes_gadget(gadget, ring))
    elif ring.is_finite:
        z = Polynomial.variable("z")
        w = Polynomial.variable("w")
        sys0 = Formula(("z", "w"), (), Atom(z, Relation.EQ))
        sys1 = Formula(("z", "w"), (), Atom(w, Relation.EQ))
        union = encode_union(sys0, sys1, ring)
        gadget = AxesGadget(union.formula)
        verification = verify_axes_gadget(gadget, ring)
        gs.axes = replace(gadget, status=verification)
        if verification.status is Status.REFUTED:
            gs.notes["axes"] = (
                "union encoding fails over a disconnected ring: defined set "
                f"differs at {_format_tuple(ring, verification.witness)}"
            )
    else:
        gs.notes["axes"] = "no axes construction for this backend"

    # origin
    if ring.is_finite:
        found = search_origin_gadget(ring, max_degree)
        if found is not None:
            gs.origin = found
        else:
            gs.notes["origin"] = (
                f"no origin gadget exists with coefficients in the canonical "
                f"image up to degree {max_degree} (search exhausted)"
            )
    elif isinstance(ring, ZBox):
        gadget = norm_form_gadget(-1)
        gs.origin = replace(gadget, status=verify_origin_gadget(gadget, ring))
    else:
        gs.notes["origin"] = "no origin construction for this backend"

    return gs


def _format_tuple(ring: RingBackend, witness: tuple | None) -> str:
    if witness is None:
        return "?"
    return "(" + ", ".join(ring.format_element(e) for e in witness) + ")"


# -- gadget configuration files ------------------------------------------------------

_KINDS = ("origin", "axes", "nonzero")


def render_gadget_config(gadget_sets: list[GadgetSet]) -> str:
    """Human-editable key/value format, one section per ring descriptor."""
    out = io.StringIO()
    for gs in gadget_sets:
        out.write(f"[{gs.ring.descriptor()}]\n")
        if gs.origin is not None:
            out.write(f"# origin: {gs.origin.status.describe()}\n")
            out.write(f"origin = {gs.origin.describe()}\n")
        if gs.axes is not None:
            out.write(f"# axes: {gs.axes.status.describe()}\n")
            out.write(f"axes = {gs.axes.describe()}\n")
        if gs.nonzero is not None:
            out.write(f"# nonzero: {gs.nonzero.status.describe()}\n")
            out.write(f"nonzero = {gs.nonzero.describe()}\n")
        for kind in _KINDS:
            if kind in gs.notes:
                out.write(f"# {kind}: unavailable -- {gs.notes[kind]}\n")
        out.write("\n")
    return out.getvalue()


def parse_gadget_config(text: str, ring: RingBackend) -> GadgetSet:
    """Read the section matching the ring descriptor; entries load as
    UNVERIFIED and must be verified before the passes will accept them.

    Any malformed config raises :class:`GadgetError`: bad INI syntax (the
    first line of the ``configparser`` message), no section for the ring,
    an entry that does not parse, or a gadget of the wrong shape."""
    parser = configparser.RawConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise GadgetError(str(err).partition("\n")[0]) from None
    section = ring.descriptor()
    gs = GadgetSet(ring)
    if not parser.has_section(section):
        raise GadgetError(f"gadget config has no section for {section}")
    data = parser[section]
    try:
        if "origin" in data:
            poly = parse_polynomial(data["origin"])
            names = sorted(poly.variables())
            if len(names) > 2:
                raise GadgetError("origin gadget polynomial must use at most two variables")
            names += [v for v in ("x", "y") if v not in names]
            gs.origin = OriginGadget(poly, tuple(sorted(names[:2])))
        if "axes" in data:
            gs.axes = AxesGadget(parse_formula(data["axes"]))
        if "nonzero" in data:
            gs.nonzero = NonzeroGadget(parse_formula(data["nonzero"]))
    except ParseError as err:
        raise GadgetError(str(err)) from None
    return gs


def verify_gadget_set(gs: GadgetSet, *, box: int | None = None) -> GadgetSet:
    """Return a copy with every present gadget (re)verified on the set's ring."""
    ring = gs.ring
    out = GadgetSet(ring, notes=dict(gs.notes))
    if gs.origin is not None:
        out.origin = replace(
            gs.origin, status=verify_origin_gadget(gs.origin, ring, box=box)
        )
    if gs.axes is not None:
        out.axes = replace(gs.axes, status=verify_axes_gadget(gs.axes, ring, box=box))
    if gs.nonzero is not None:
        out.nonzero = replace(
            gs.nonzero, status=verify_nonzero_gadget(gs.nonzero, ring, box=box)
        )
    return out
