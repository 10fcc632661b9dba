"""Exact sparse multivariate polynomials with integer coefficients.

Polynomials are immutable and canonical: zero coefficients are never
stored and terms are kept in a fixed graded-lexicographic order, so
structural equality coincides with mathematical equality.  Coefficients
are plain Python integers; each ring backend interprets them through its
canonical map from the integers, which is what lets one polynomial be
reused across every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .ring import RingBackend


class UnboundVariableError(KeyError):
    """Raised when an evaluation point misses a variable of the polynomial."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message plain
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class Monomial:
    """A product of named variables with positive integer exponents.

    ``exps`` is sorted by variable name and never contains an exponent of
    zero, so equal monomials are structurally equal.  The empty tuple is
    the constant monomial.
    """

    exps: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(exponents: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Monomial":
        items = dict(exponents)
        for var, exp in items.items():
            if exp < 0:
                raise ValueError(f"negative exponent {exp} for variable {var!r}")
        return Monomial(tuple(sorted((v, e) for v, e in items.items() if e > 0)))

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def variables(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for var, exp in other.exps:
            merged[var] = merged.get(var, 0) + exp
        return Monomial(tuple(sorted(merged.items())))

    def sort_key(self) -> tuple:
        # Graded lex, descending: higher total degree first; ties broken so
        # that alphabetically earlier variables with larger exponents come
        # first (x^2 before x*y before y^2).
        return (-self.degree(), tuple((v, -e) for v, e in self.exps))

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"{v}^{e}" if e > 1 else v for v, e in self.exps)


def _canonical_terms(terms: Mapping[Monomial, int]) -> tuple[tuple[Monomial, int], ...]:
    nonzero = [(m, c) for m, c in terms.items() if c != 0]
    nonzero.sort(key=lambda item: item[0].sort_key())
    return tuple(nonzero)


@dataclass(frozen=True)
class Polynomial:
    """A sparse polynomial stored as canonically ordered (monomial, coeff) pairs."""

    terms: tuple[tuple[Monomial, int], ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(terms: Mapping[Monomial, int]) -> "Polynomial":
        return Polynomial(_canonical_terms(terms))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def constant(value: int) -> "Polynomial":
        if value == 0:
            return Polynomial(())
        return Polynomial(((Monomial(), value),))

    @staticmethod
    def variable(name: str) -> "Polynomial":
        if not name:
            raise ValueError("variable name must be nonempty")
        return Polynomial(((Monomial(((name, 1),)), 1),))

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((m.degree() for m, _ in self.terms), default=0)

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for mono, _ in self.terms:
            out.update(mono.variables())
        return frozenset(out)

    def term_map(self) -> dict[Monomial, int]:
        return dict(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        out = self.term_map()
        for mono, coeff in other.terms:
            out[mono] = out.get(mono, 0) + coeff
        return Polynomial.from_dict(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Polynomial | int") -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mono = m1 * m2
                out[mono] = out.get(mono, 0) + c1 * c2
        return Polynomial.from_dict(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("polynomial exponents must be non-negative")
        result = Polynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings: Mapping[str, "Polynomial | int"]) -> "Polynomial":
        """Simultaneously substitute polynomials for variables.

        Variables absent from ``bindings`` are left fixed.  The result is
        fully expanded to canonical form.
        """
        subs = {v: _coerce(p) for v, p in bindings.items()}
        power_cache: dict[tuple[str, int], Polynomial] = {}

        def var_power(var: str, exp: int) -> Polynomial:
            key = (var, exp)
            if key not in power_cache:
                base = subs.get(var)
                if base is None:
                    base = Polynomial.variable(var)
                power_cache[key] = base**exp
            return power_cache[key]

        total = Polynomial.zero()
        for mono, coeff in self.terms:
            term = Polynomial.constant(coeff)
            for var, exp in mono.exps:
                term = term * var_power(var, exp)
            total = total + term
        return total

    def evaluate(self, point: Mapping[str, object], ring: "RingBackend") -> object:
        """Evaluate at a point whose values are elements of ``ring``.

        Integer coefficients are sent through the ring's canonical map.
        Raises :class:`UnboundVariableError` if a variable is missing.
        """
        total = ring.zero()
        for mono, coeff in self.terms:
            value = ring.canonical(coeff)
            for var, exp in mono.exps:
                try:
                    elem = point[var]
                except KeyError:
                    raise UnboundVariableError(
                        f"variable {var!r} is not bound by the evaluation point"
                    ) from None
                value = ring.mul(value, ring.pow(elem, exp))
            total = ring.add(total, value)
        return total

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for index, (mono, coeff) in enumerate(self.terms):
            magnitude = abs(coeff)
            if not mono.exps:
                piece = str(magnitude)
            elif magnitude == 1:
                piece = str(mono)
            else:
                piece = f"{magnitude}*{mono}"
            if index == 0:
                parts.append(f"-{piece}" if coeff < 0 else piece)
            else:
                parts.append(f" - {piece}" if coeff < 0 else f" + {piece}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _coerce(value: "Polynomial | int") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")
