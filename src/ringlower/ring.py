"""Concrete commutative-ring backends.

Three backends are provided:

* ``ZMod(n)`` -- the integers modulo ``n`` (``n >= 1``; ``n = 1`` is the
  zero ring).  Elements are the residues ``0..n-1``.
* ``ProductRing(left, right)`` -- componentwise arithmetic on pairs.
* ``ZBox(bound)`` -- the integers with unbounded arithmetic but a finite
  search window ``[-bound, bound]``.  Everything derived from enumerating
  a ZBox is heuristic, never a proof, and is flagged as non-exhaustive.

Elements are plain Python values (ints, or nested pairs for products);
backends supply the arithmetic, the canonical image of the integers, and
the structural predicates that gate gadget availability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


class RingBackend:
    """Shared behaviour for the concrete backends below."""

    def pow(self, element, exponent: int):
        if exponent < 0:
            raise ValueError("ring exponents must be non-negative")
        result = self.one()
        base = element
        while exponent:
            if exponent & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            exponent >>= 1
        return result

    @property
    def is_zero_ring(self) -> bool:
        return self.is_finite and self.size == 1

    def __str__(self) -> str:
        return self.descriptor()

    # subclass API: zero, one, add, mul, canonical, elements,
    # is_finite, size, characteristic, is_connected_spectrum, is_domain,
    # descriptor, format_element, element_to_json


@dataclass(frozen=True)
class ZMod(RingBackend):
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be at least 1")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def canonical(self, k: int) -> int:
        return k % self.modulus

    def elements(self) -> Iterator[int]:
        return iter(range(self.modulus))

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return self.modulus

    def characteristic(self) -> int:
        return self.modulus

    def is_connected_spectrum(self) -> bool:
        # Prime-power moduli have no idempotents besides 0 and 1; the zero
        # ring (n = 1) counts as connected-or-empty.
        if self.modulus == 1:
            return True
        return len(factorize(self.modulus)) == 1

    def is_domain(self) -> bool:
        return self.modulus > 1 and is_prime(self.modulus)

    def descriptor(self) -> str:
        return f"zmod:{self.modulus}"

    def format_element(self, a: int) -> str:
        return str(a)

    def element_to_json(self, a: int):
        return a


@dataclass(frozen=True)
class ProductRing(RingBackend):
    left: RingBackend
    right: RingBackend

    def zero(self) -> tuple:
        return (self.left.zero(), self.right.zero())

    def one(self) -> tuple:
        return (self.left.one(), self.right.one())

    def add(self, a: tuple, b: tuple) -> tuple:
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def mul(self, a: tuple, b: tuple) -> tuple:
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def canonical(self, k: int) -> tuple:
        return (self.left.canonical(k), self.right.canonical(k))

    def elements(self) -> Iterator[tuple]:
        for a in self.left.elements():
            for b in self.right.elements():
                yield (a, b)

    @property
    def is_finite(self) -> bool:
        return self.left.is_finite and self.right.is_finite

    @property
    def size(self) -> int | None:
        if not self.is_finite:
            return None
        return self.left.size * self.right.size

    def characteristic(self) -> int:
        cl, cr = self.left.characteristic(), self.right.characteristic()
        if cl == 0 or cr == 0:
            return 0
        return cl * cr // math.gcd(cl, cr)

    def is_connected_spectrum(self) -> bool:
        # A factor that is the zero ring contributes nothing; a product of
        # two nonzero rings is disconnected.
        if self.left.is_zero_ring:
            return self.right.is_connected_spectrum()
        if self.right.is_zero_ring:
            return self.left.is_connected_spectrum()
        return False

    def is_domain(self) -> bool:
        if self.left.is_zero_ring:
            return self.right.is_domain()
        if self.right.is_zero_ring:
            return self.left.is_domain()
        return False

    def descriptor(self) -> str:
        return f"product:({self.left.descriptor()},{self.right.descriptor()})"

    def format_element(self, a: tuple) -> str:
        return f"({self.left.format_element(a[0])},{self.right.format_element(a[1])})"

    def element_to_json(self, a: tuple):
        return [self.left.element_to_json(a[0]), self.right.element_to_json(a[1])]


@dataclass(frozen=True)
class ZBox(RingBackend):
    """The integers, enumerated only inside the window ``[-bound, bound]``."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError("box bound must be positive")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def canonical(self, k: int) -> int:
        return k

    def elements(self) -> Iterator[int]:
        """The box, smallest to largest.  Never exhaustive for the ring;
        other windows belong to the oracle's ``Domain``."""
        return iter(range(-self.bound, self.bound + 1))

    @property
    def is_finite(self) -> bool:
        return False

    @property
    def size(self) -> None:
        return None

    def characteristic(self) -> int:
        return 0

    def is_connected_spectrum(self) -> bool:
        return True

    def is_domain(self) -> bool:
        return True

    def descriptor(self) -> str:
        return f"zbox:{self.bound}"

    def format_element(self, a: int) -> str:
        return str(a)

    def element_to_json(self, a: int):
        return a


# -- descriptor syntax -------------------------------------------------------


def parse_ring(text: str) -> RingBackend:
    """Parse a ring descriptor: ``zmod:6``, ``zbox:100``,
    ``product:(zmod:2,zmod:3)`` (products nest)."""
    s = text.strip()
    if s.startswith("zmod:"):
        return ZMod(_parse_positive(s[5:], s))
    if s.startswith("zbox:"):
        return ZBox(_parse_positive(s[5:], s))
    if s.startswith("product:(") and s.endswith(")"):
        inner = s[len("product:(") : -1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return ProductRing(parse_ring(inner[:i]), parse_ring(inner[i + 1 :]))
        raise ValueError(f"malformed product descriptor: {text!r}")
    raise ValueError(f"unknown ring descriptor: {text!r}")


def _parse_positive(digits: str, whole: str) -> int:
    try:
        value = int(digits)
    except ValueError:
        raise ValueError(f"malformed ring descriptor: {whole!r}") from None
    if value < 1:
        raise ValueError(f"ring descriptor needs a positive integer: {whole!r}")
    return value


# -- number-theoretic helpers --------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of ``n >= 2`` as sorted (prime, exponent) pairs."""
    if n < 2:
        raise ValueError("factorize needs n >= 2")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def crt_split(ring: ZMod) -> list[tuple[ZMod, int]]:
    """Split ``ZMod(n)`` into its prime-power factors.

    Returns ``[(ZMod(p**e), idem), ...]`` where ``idem`` is the integer
    that is 1 modulo its own factor and 0 modulo all the others; these
    idempotents realize both directions of the Chinese Remainder
    isomorphism (reduce componentwise one way, ``sum(a_i * idem_i)`` the
    other).
    """
    if not isinstance(ring, ZMod):
        raise TypeError("crt_split applies to zmod backends only")
    n = ring.modulus
    if n < 2:
        raise ValueError("crt_split needs modulus >= 2")
    out = []
    for p, e in factorize(n):
        q = p**e
        rest = n // q
        if rest == 1:
            idem = 1 % n
        else:
            idem = rest * pow(rest, -1, q) % n
        out.append((ZMod(q), idem))
    return out


def flatten_moduli(ring: RingBackend) -> list[int] | None:
    """Moduli of the ZMod leaves of a (possibly nested) product; None if a
    non-ZMod backend occurs anywhere."""
    if isinstance(ring, ZMod):
        return [ring.modulus]
    if isinstance(ring, ProductRing):
        left = flatten_moduli(ring.left)
        right = flatten_moduli(ring.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def as_single_modulus(ring: RingBackend) -> int | None:
    """If the backend is isomorphic to ``ZMod(n)`` via the canonical map
    (a ZMod, or a product of pairwise-coprime ZMods), return ``n``."""
    moduli = flatten_moduli(ring)
    if moduli is None:
        return None
    total = 1
    for m in moduli:
        if math.gcd(total, m) != 1:
            return None
        total *= m
    return total
