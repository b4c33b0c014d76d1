"""Circle-valued phases and groupoid 1-cocycles, with exact root-of-unity arithmetic.

A cocycle valued in the n-th roots of unity is a groupoid homomorphism into
Z/n, so `enumerate_cocycles` is the homomorphism search with codomain
`cyclic_groupoid(n)`, built once per order, under the same cap and budget.
The public `Cocycle` constructor checks the law on integer exponents over
one common order when every value is exact; only a cocycle holding an
approximate value compares phases, within TOL.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import gcd, lcm, pi

from .errors import (
    PHASE_SNAP_MAX_ORDER,
    TOL,
    CocycleError,
    StructuralError,
    check_enum_cap,
)
from .families import cyclic_groupoid
from .groupoid import FiniteGroupoid, GroupoidHom, _unchecked, enumerate_homomorphisms
_cyclic_target = lru_cache(maxsize=32)(cyclic_groupoid)  # one Z/n per order; no searched groupoid

__all__ = [
    "Phase",
    "Cocycle",
    "trivial_cocycle",
    "cocycle_product",
    "cocycle_conj",
    "precompose_cocycle",
    "enumerate_cocycles",
]


class Phase:
    """A point on the unit circle.

    Exact form stores a reduced fraction (num, den) meaning exp(2*pi*i*num/den);
    the approximate form stores a complex number of modulus 1 (within TOL,
    1e-9).  Exact phases compare by integer equality, anything involving an
    approximate phase compares within TOL.
    """

    __slots__ = ("num", "den", "approx")

    def __init__(self, num: int | None, den: int | None, approx: complex | None):
        self.num = num
        self.den = den
        self.approx = approx

    @classmethod
    def exact(cls, num: int, den: int) -> "Phase":
        if den < 1:
            raise StructuralError(f"phase modulus must be >= 1, got {den}")
        num %= den
        g = gcd(num, den)
        return cls(num // g, den // g, None)

    @classmethod
    def approximate(cls, z: complex) -> "Phase":
        if abs(abs(z) - 1.0) > TOL:
            raise StructuralError(f"phase modulus |{z}| deviates from 1 beyond 1e-9")
        return cls(None, None, complex(z))

    @classmethod
    def from_complex(cls, z: complex) -> "Phase":
        """The root of unity of order <= PHASE_SNAP_MAX_ORDER whose value lies
        within TOL of z itself, else the approximate phase z / |z|."""
        turns = cmath.phase(z) / (2 * pi)
        for den in range(1, PHASE_SNAP_MAX_ORDER + 1):
            # a root within TOL of z is about TOL / (2 pi) of a turn from the
            # angle of z, so it passes this filter with room to spare
            num = round(turns * den)
            if abs(turns * den - num) <= TOL * den:
                root = cls.exact(num, den)
                if abs(z - root.value) <= TOL:
                    return root
        return cls.approximate(z / abs(z))

    @property
    def is_exact(self) -> bool:
        return self.num is not None

    @property
    def value(self) -> complex:
        if self.is_exact:
            if 2 * self.num % self.den == 0:
                return 1.0 + 0j if self.num == 0 else -1.0 + 0j
            if 4 * self.num % self.den == 0:
                return 1j if 4 * self.num == self.den else -1j
            return cmath.exp(2j * pi * self.num / self.den)
        return self.approx

    def times(self, other: "Phase") -> "Phase":
        if self.is_exact and other.is_exact:
            den = lcm(self.den, other.den)
            num = self.num * (den // self.den) + other.num * (den // other.den)
            return Phase.exact(num, den)
        return Phase.approximate(self.value * other.value)

    def conj(self) -> "Phase":
        if self.is_exact:
            return Phase.exact(-self.num, self.den)
        return Phase.approximate(self.approx.conjugate())

    def __eq__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self.num == other.num and self.den == other.den
        return abs(self.value - other.value) <= TOL

    __hash__ = None

    def __repr__(self):
        if self.is_exact:
            return f"Phase({self.num}/{self.den})"
        return f"Phase({self.approx!r})"


_PHASE_ONE = Phase.exact(0, 1)


class Cocycle:
    """An arrow-indexed phase assignment that is 1 on units and multiplicative
    over composition.  The public constructor checks both laws; cocycles the
    library builds from checked parts are not checked again."""

    __slots__ = ("groupoid", "values")

    def __init__(self, groupoid: FiniteGroupoid, values):
        values = tuple(values)
        if len(values) != groupoid.arrow_count:
            raise StructuralError(
                f"cocycle has {len(values)} values, expected {groupoid.arrow_count}")
        units, compose = groupoid.units, groupoid.compose.items()
        if all(v.is_exact for v in values):
            # exponents over one common order, added in Z/order
            order = lcm(*{v.den for v in values})
            k = [v.num * (order // v.den) for v in values]
            bad_units = (x for x in units if k[x])
            bad_pairs = ((a, b, c) for (a, b), c in compose
                         if (k[a] + k[b] - k[c]) % order)
        else:
            bad_units = (x for x in units if values[x] != _PHASE_ONE)
            bad_pairs = ((a, b, c) for (a, b), c in compose
                         if values[c] != values[a].times(values[b]))
        for x in bad_units:
            raise CocycleError(f"cocycle value at unit {x} is {values[x]}, not 1")
        for a, b, c in bad_pairs:
            raise CocycleError(
                f"cocycle law fails at pair ({a},{b}): "
                f"c({c})={values[c]} but c({a})c({b})={values[a].times(values[b])}")
        self.groupoid = groupoid
        self.values = values

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return self.groupoid == other.groupoid and self.values == other.values

    __hash__ = None

    def __repr__(self):
        return f"Cocycle({self.values!r})"


def trivial_cocycle(g: FiniteGroupoid) -> Cocycle:
    return _unchecked(Cocycle, groupoid=g, values=(_PHASE_ONE,) * g.arrow_count)


def cocycle_product(c1: Cocycle, c2: Cocycle) -> Cocycle:
    """Pointwise; not re-checked, so rounding may leave an approximate law residual past TOL."""
    if c1.groupoid != c2.groupoid:
        raise StructuralError("cocycles live on different groupoids")
    values = tuple(u.times(v) for u, v in zip(c1.values, c2.values))
    return _unchecked(Cocycle, groupoid=c1.groupoid, values=values)


def cocycle_conj(c: Cocycle) -> Cocycle:
    return _unchecked(Cocycle, groupoid=c.groupoid, values=tuple(v.conj() for v in c.values))


def precompose_cocycle(c: Cocycle, hom: GroupoidHom) -> Cocycle:
    """The cocycle a -> c(hom(a)) on the domain of the homomorphism."""
    if hom.codomain != c.groupoid:
        raise StructuralError("homomorphism codomain does not carry the cocycle")
    return _unchecked(Cocycle, groupoid=hom.domain,
                      values=tuple(c.values[b] for b in hom.mapping))


# -- enumeration of root-of-unity valued cocycles ----------------------------


def enumerate_cocycles(g: FiniteGroupoid, n: int, cap: int | None = None) -> list[Cocycle]:
    """All cocycles valued in the n-th roots of unity, sorted by exponent vector.

    Such a cocycle is exactly a groupoid homomorphism into Z/n, taken as a
    one-unit groupoid, so this runs the homomorphism search and reads each
    mapping as its exponent vector.  Refuses groupoids with more arrows than
    the enumeration cap, and orders n above the cap, since Z/n has n arrows.
    The search runs once per order: its exponent vectors are kept in g's
    cache, after the cap checks, and every call builds a fresh list of fresh
    cocycles from them; every search into Z/n shares one target.
    """
    if n < 1:
        raise StructuralError(f"root-of-unity order must be >= 1, got {n}")
    check_enum_cap(g.arrow_count, cap, "cocycle enumeration")
    check_enum_cap(n, cap, f"cocycle enumeration into Z/{n}")
    key = ("cocycles", n)
    exponents = g._cache.get(key)
    if exponents is None:
        exponents = tuple(hom.mapping
                          for hom in enumerate_homomorphisms(g, _cyclic_target(n)))
        g._cache[key] = exponents
    phases = [Phase.exact(k, n) for k in range(n)]
    return [_unchecked(Cocycle, groupoid=g, values=tuple(phases[k] for k in m))
            for m in exponents]
