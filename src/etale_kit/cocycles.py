"""Circle-valued phases and groupoid 1-cocycles, with exact root-of-unity arithmetic."""

from __future__ import annotations

import cmath
from itertools import product as iproduct
from math import gcd, pi

from .errors import (
    PHASE_SNAP_MAX_ORDER,
    PHASE_SNAP_TOL,
    TOL,
    CocycleError,
    StructuralError,
    check_enum_cap,
)
from .groupoid import FiniteGroupoid, GroupoidHom, orbits

__all__ = [
    "Phase",
    "PHASE_ONE",
    "Cocycle",
    "trivial_cocycle",
    "cocycle_product",
    "cocycle_conj",
    "act_on_cocycle",
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
        """Snap to a root of unity of order <= PHASE_SNAP_MAX_ORDER within
        PHASE_SNAP_TOL, else keep the value as an approximate phase."""
        if abs(abs(z) - 1.0) > TOL:
            raise StructuralError(f"phase modulus |{z}| deviates from 1 beyond 1e-9")
        theta = cmath.phase(z)
        for den in range(1, PHASE_SNAP_MAX_ORDER + 1):
            num = round(theta * den / (2 * pi)) % den
            if abs(z - cmath.exp(2j * pi * num / den)) <= PHASE_SNAP_TOL:
                return cls.exact(num, den)
        return cls.approximate(z)

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
            den = self.den * other.den // gcd(self.den, other.den)
            num = self.num * (den // self.den) + other.num * (den // other.den)
            return Phase.exact(num, den)
        return Phase.approximate(self.value * other.value)

    def conj(self) -> "Phase":
        if self.is_exact:
            return Phase.exact(-self.num, self.den)
        return Phase.approximate(self.approx.conjugate())

    def isclose(self, other: "Phase") -> bool:
        return abs(self.value - other.value) <= TOL

    def __eq__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self.num == other.num and self.den == other.den
        return self.isclose(other)

    __hash__ = None

    def __repr__(self):
        if self.is_exact:
            return f"Phase({self.num}/{self.den})"
        return f"Phase({self.approx!r})"


PHASE_ONE = Phase.exact(0, 1)


class Cocycle:
    """An arrow-indexed phase assignment that is 1 on units and multiplicative
    over composition."""

    __slots__ = ("groupoid", "values")

    def __init__(self, groupoid: FiniteGroupoid, values):
        values = tuple(values)
        if len(values) != groupoid.arrow_count:
            raise StructuralError(
                f"cocycle has {len(values)} values, expected {groupoid.arrow_count}")
        for x in groupoid.units:
            if not (values[x] == PHASE_ONE):
                raise CocycleError(f"cocycle value at unit {x} is {values[x]}, not 1")
        for (a, b), c in groupoid.compose.items():
            if not (values[c] == values[a].times(values[b])):
                raise CocycleError(
                    f"cocycle law fails at pair ({a},{b}): "
                    f"c({c})={values[c]} but c({a})c({b})={values[a].times(values[b])}")
        self.groupoid = groupoid
        self.values = values

    def __call__(self, a: int) -> Phase:
        return self.values[a]

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return (self.groupoid == other.groupoid
                and all(u == v for u, v in zip(self.values, other.values)))

    __hash__ = None

    def exponents(self) -> tuple | None:
        """(num, den) pairs when every value is exact, else None."""
        if all(v.is_exact for v in self.values):
            return tuple((v.num, v.den) for v in self.values)
        return None

    def __repr__(self):
        return f"Cocycle({self.values!r})"


def trivial_cocycle(g: FiniteGroupoid) -> Cocycle:
    return Cocycle(g, [PHASE_ONE] * g.arrow_count)


def cocycle_product(c1: Cocycle, c2: Cocycle) -> Cocycle:
    if c1.groupoid != c2.groupoid:
        raise StructuralError("cocycles live on different groupoids")
    return Cocycle(c1.groupoid, [u.times(v) for u, v in zip(c1.values, c2.values)])


def cocycle_conj(c: Cocycle) -> Cocycle:
    return Cocycle(c.groupoid, [v.conj() for v in c.values])


def precompose_cocycle(c: Cocycle, hom: GroupoidHom) -> Cocycle:
    """The cocycle a -> c(hom(a)) on the domain of the homomorphism."""
    if hom.codomain != c.groupoid:
        raise StructuralError("homomorphism codomain does not carry the cocycle")
    return Cocycle(hom.domain, [c.values[hom.mapping[a]]
                                for a in hom.domain.arrows()])


def act_on_cocycle(aut: GroupoidHom, c: Cocycle) -> Cocycle:
    """The automorphism action: (aut . c)(a) = c(aut^-1(a))."""
    return precompose_cocycle(c, aut.inverse())


# -- enumeration of root-of-unity valued cocycles ----------------------------


def _homs_to_cyclic(elements: list[int], mul, unit: int, n: int) -> list[dict[int, int]]:
    """All homomorphisms from a finite group (given by a multiplication
    callback) into Z/n, as exponent dictionaries, deterministically ordered."""
    gens: list[int] = []
    expr: dict[int, list[int]] = {unit: []}
    for g in sorted(elements):
        if g in expr:
            continue
        gens.append(g)
        expr = {unit: [0] * len(gens)}
        queue = [unit]
        while queue:
            a = queue.pop()
            for j, h in enumerate(gens):
                b = mul(a, h)
                if b not in expr:
                    vec = expr[a].copy()
                    vec[j] += 1
                    expr[b] = vec
                    queue.append(b)
    homs = []
    order = sorted(elements)
    for vals in iproduct(range(n), repeat=len(gens)):
        phi = {e: sum(k * v for k, v in zip(expr[e], vals)) % n for e in elements}
        if all(phi[mul(a, b)] == (phi[a] + phi[b]) % n
               for a in elements for b in elements):
            homs.append(phi)
    homs.sort(key=lambda phi: tuple(phi[e] for e in order))
    # distinct generator vectors give distinct homs, so no deduplication needed
    return homs


def enumerate_cocycles(g: FiniteGroupoid, n: int, cap: int | None = None) -> list[Cocycle]:
    """All cocycles valued in the n-th roots of unity, sorted by exponent vector.

    Per orbit, a cocycle is a free phase per non-base unit plus a homomorphism
    from the isotropy group at the base into Z/n; arrows factor through a
    spanning family of arrows out of the base unit.  Refuses groupoids with
    more arrows than the enumeration cap.
    """
    if n < 1:
        raise StructuralError(f"root-of-unity order must be >= 1, got {n}")
    check_enum_cap(g.arrow_count, cap, "cocycle enumeration")
    by_src = g.by_src()
    per_orbit: list[list[dict[int, int]]] = []
    for orbit in orbits(g):
        base = orbit[0]
        spanning = {base: base}
        for y in orbit[1:]:
            spanning[y] = min(a for a in by_src[base] if g.rng[a] == y)
        iso = [a for a in by_src[base] if g.rng[a] == base]

        def mul(a: int, b: int) -> int:
            return g.compose[(a, b)]

        homs = _homs_to_cyclic(iso, mul, base, n)
        arrows = [a for a in g.arrows() if g.src[a] in orbit]
        # g_loop(a) = spanning[rng]^-1 . a . spanning[src], an isotropy element at base
        loops = {}
        for a in arrows:
            t_out = g.inv[spanning[g.rng[a]]]
            loops[a] = g.compose[(g.compose[(t_out, a)], spanning[g.src[a]])]
        choices = []
        for psi_vals in iproduct(range(n), repeat=len(orbit) - 1):
            psi = {base: 0}
            for y, v in zip(orbit[1:], psi_vals):
                psi[y] = v
            for phi in homs:
                choices.append({
                    a: (psi[g.rng[a]] - psi[g.src[a]] + phi[loops[a]]) % n
                    for a in arrows
                })
        per_orbit.append(choices)

    vectors = []
    for combo in iproduct(*per_orbit) if per_orbit else [()]:
        exps = [0] * g.arrow_count
        for part in combo:
            for a, k in part.items():
                exps[a] = k
        vectors.append(tuple(exps))
    vectors.sort()
    return [Cocycle(g, [Phase.exact(k, n) for k in vec]) for vec in vectors]
