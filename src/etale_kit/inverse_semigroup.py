"""Bisections as an inverse semigroup, inverse semigroup actions, and germ groupoids."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ActionError,
    CapExceeded,
    InternalInconsistencyError,
    SEMIGROUP_ELEMENT_CAP,
    StructuralError,
    check_enum_cap,
)
from .groupoid import FiniteGroupoid, GroupoidHom, validation_report

__all__ = [
    "Bisection",
    "bisection_product",
    "bisection_inverse",
    "InverseSemigroup",
    "enumerate_bisections",
    "SemigroupAction",
    "canonical_action",
    "GermGroupoid",
    "germ_groupoid",
    "canonical_germ_iso",
    "induced_germ_hom",
]


@dataclass(frozen=True)
class Bisection:
    """An arrow subset on which both source and range are injective."""

    groupoid: FiniteGroupoid
    arrows: tuple[int, ...]

    def __post_init__(self):
        arrows = tuple(sorted(set(self.arrows)))
        object.__setattr__(self, "arrows", arrows)
        g = self.groupoid
        seen_src: set[int] = set()
        seen_rng: set[int] = set()
        for a in arrows:
            if not 0 <= a < g.arrow_count:
                raise StructuralError(f"arrow {a} out of range")
            if g.src[a] in seen_src:
                raise StructuralError(f"source map not injective on arrows (at {a})")
            if g.rng[a] in seen_rng:
                raise StructuralError(f"range map not injective on arrows (at {a})")
            seen_src.add(g.src[a])
            seen_rng.add(g.rng[a])

    def source_set(self) -> tuple[int, ...]:
        return tuple(sorted(self.groupoid.src[a] for a in self.arrows))

    def range_set(self) -> tuple[int, ...]:
        return tuple(sorted(self.groupoid.rng[a] for a in self.arrows))

    def is_idempotent(self) -> bool:
        return all(a in self.groupoid.unit_set for a in self.arrows)


def bisection_product(u: Bisection, v: Bisection) -> Bisection:
    """{a.b : a in u, b in v, composable}; again a bisection."""
    if u.groupoid != v.groupoid:
        raise StructuralError("bisections live on different groupoids")
    g = u.groupoid
    out = {g.compose[(a, b)] for a in u.arrows for b in v.arrows
           if g.src[a] == g.rng[b]}
    return Bisection(g, tuple(out))


def bisection_inverse(u: Bisection) -> Bisection:
    return Bisection(u.groupoid, tuple(u.groupoid.inv[a] for a in u.arrows))


class InverseSemigroup:
    """A finite inverse semigroup as an element list with explicit tables.

    Construction verifies that every element has exactly one generalized
    inverse (matching the declared star) and that idempotents commute.
    """

    def __init__(self, elements: Sequence, table: Sequence[Sequence[int]],
                 star: Sequence[int], zero: int | None = None):
        self.elements = tuple(elements)
        k = len(self.elements)
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.star = tuple(int(x) for x in star)
        self.zero = zero
        if len(self.table) != k or any(len(row) != k for row in self.table):
            raise StructuralError("product table must be square over the elements")
        if len(self.star) != k:
            raise StructuralError("star table length mismatch")
        for s in range(k):
            generalized = [t for t in range(k)
                           if self.table[self.table[s][t]][s] == s
                           and self.table[self.table[t][s]][t] == t]
            if generalized != [self.star[s]]:
                raise StructuralError(
                    f"element {s} has generalized inverses {generalized}, "
                    f"declared {self.star[s]}")
        idem = self.idempotents()
        for e in idem:
            for f in idem:
                if self.table[e][f] != self.table[f][e]:
                    raise StructuralError(f"idempotents {e} and {f} do not commute")
        if zero is not None:
            for s in range(k):
                if self.table[zero][s] != zero or self.table[s][zero] != zero:
                    raise StructuralError(f"declared zero fails at element {s}")

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, s: int, t: int) -> int:
        return self.table[s][t]

    def idempotents(self) -> tuple[int, ...]:
        return tuple(s for s in range(len(self.elements)) if self.table[s][s] == s)

    def index(self, element) -> int:
        cached = getattr(self, "_index", None)
        if cached is None:
            cached = {e: i for i, e in enumerate(self.elements)}
            self._index = cached
        return cached[element]


def enumerate_bisections(g: FiniteGroupoid, cap: int | None = None) -> InverseSemigroup:
    """The inverse semigroup of all bisections, elements in lexicographic
    order of their sorted arrow tuples; the empty bisection is the zero."""
    check_enum_cap(g.arrow_count, cap, "bisection enumeration")
    cached = g._cache.get("bisections")
    if cached is not None:
        return cached
    found: list[tuple[int, ...]] = []

    def extend(current: list[int], used_src: set[int], used_rng: set[int], start: int):
        found.append(tuple(current))
        if len(found) > SEMIGROUP_ELEMENT_CAP:
            raise CapExceeded(
                f"bisection count exceeds the table bound {SEMIGROUP_ELEMENT_CAP}")
        for a in range(start, g.arrow_count):
            sa, ra = g.src[a], g.rng[a]
            if sa in used_src or ra in used_rng:
                continue
            current.append(a)
            used_src.add(sa)
            used_rng.add(ra)
            extend(current, used_src, used_rng, a + 1)
            current.pop()
            used_src.discard(sa)
            used_rng.discard(ra)

    extend([], set(), set(), 0)
    elements = [Bisection(g, arrows) for arrows in found]
    index = {b.arrows: i for i, b in enumerate(elements)}
    table = [[index[bisection_product(u, v).arrows] for v in elements]
             for u in elements]
    star = [index[bisection_inverse(u).arrows] for u in elements]
    semigroup = InverseSemigroup(elements, table, star, zero=index[()])
    g._cache["bisections"] = semigroup
    return semigroup


class SemigroupAction:
    """An inverse semigroup acting by partial bijections on a finite point set.

    `maps[s]` is the partial bijection of element s as a dict; its key set is
    the domain of the idempotent s*s.  Construction checks the composition law
    exhaustively, that every map is a bijection onto the domain of s s*, and
    that the idempotent domains cover the space.
    """

    def __init__(self, semigroup: InverseSemigroup, n_points: int,
                 maps: Sequence[dict[int, int]]):
        self.semigroup = semigroup
        self.n_points = int(n_points)
        self.maps = tuple(dict(m) for m in maps)
        k = len(semigroup)
        if len(self.maps) != k:
            raise StructuralError("one partial map per semigroup element required")
        for s, m in enumerate(self.maps):
            for x, y in m.items():
                if not (0 <= x < self.n_points and 0 <= y < self.n_points):
                    raise ActionError(f"map of element {s} leaves the point set")
            if len(set(m.values())) != len(m):
                raise ActionError(f"map of element {s} is not injective")
        for s, m in enumerate(self.maps):
            dom = set(self.maps[semigroup.mul(semigroup.star[s], s)].keys())
            if set(m.keys()) != dom:
                raise ActionError(f"domain of element {s} differs from dom(s*s)")
            ran = set(self.maps[semigroup.mul(s, semigroup.star[s])].keys())
            if set(m.values()) != ran:
                raise ActionError(f"range of element {s} differs from dom(ss*)")
        for s in range(k):
            for t in range(k):
                st = semigroup.mul(s, t)
                composed = {x: self.maps[s][y] for x, y in self.maps[t].items()
                            if y in self.maps[s]}
                if composed != self.maps[st]:
                    raise ActionError(
                        f"composition law fails at elements ({s},{t})")
        covered = set()
        for e in semigroup.idempotents():
            covered |= set(self.maps[e].keys())
        if covered != set(range(self.n_points)):
            raise ActionError("idempotent domains do not cover the point set")

    def domain(self, s: int) -> tuple[int, ...]:
        return tuple(sorted(self.maps[s].keys()))


def canonical_action(g: FiniteGroupoid, cap: int | None = None) -> SemigroupAction:
    """Bisections acting on the unit space: u moves src(a) to rng(a) for a in u."""
    semigroup = enumerate_bisections(g, cap)
    unit_pos = {u: i for i, u in enumerate(g.units)}
    maps = []
    for b in semigroup.elements:
        maps.append({unit_pos[g.src[a]]: unit_pos[g.rng[a]] for a in b.arrows})
    return SemigroupAction(semigroup, len(g.units), maps)


@dataclass(frozen=True)
class GermGroupoid:
    """A germ groupoid together with the (element, point) labelling of arrows.

    `min_idem[x]` is the smallest idempotent whose domain contains point x;
    `_lookup` maps (s . min_idem[x], x) to the arrow id of the germ of (s, x).
    """

    groupoid: FiniteGroupoid
    action: SemigroupAction
    reps: tuple[tuple[int, int], ...]
    min_idem: tuple[int, ...]
    _lookup: dict

    def arrow_of(self, s: int, x: int) -> int:
        """Arrow id of the germ of (element s, point x)."""
        return self._lookup[(self.action.semigroup.mul(s, self.min_idem[x]), x)]

    def rep_of(self, arrow: int) -> tuple[int, int]:
        return self.reps[arrow]


def germ_groupoid(action: SemigroupAction) -> GermGroupoid:
    """The groupoid of germs of an action.

    (s, x) and (t, x) define the same germ exactly when s.e = t.e for some
    idempotent e whose domain contains x; since idempotent domains are closed
    under products, that is equivalent to agreement against the smallest
    idempotent at x.  Classes are canonicalized by their least (element, point)
    member and sorted, so arrow ids are deterministic.
    """
    sg = action.semigroup
    k = len(sg)

    min_idem: list[int] = []
    for x in range(action.n_points):
        ex = None
        for e in sg.idempotents():
            if x in action.maps[e]:
                ex = e if ex is None else sg.mul(ex, e)
        if ex is None:
            raise ActionError(f"point {x} lies in no idempotent domain")
        min_idem.append(ex)

    classes: dict[tuple[int, int], list[int]] = {}
    for s in range(k):
        for x in action.maps[s]:
            key = (sg.mul(s, min_idem[x]), x)
            classes.setdefault(key, []).append(s)

    reps = sorted((min(members), x) for (key, x), members in classes.items())
    arrow_of = {}
    for i, (s_min, x) in enumerate(reps):
        arrow_of[(sg.mul(s_min, min_idem[x]), x)] = i

    def germ(s: int, x: int) -> int:
        return arrow_of[(sg.mul(s, min_idem[x]), x)]

    n = len(reps)
    unit_arrow = {x: germ(min_idem[x], x) for x in range(action.n_points)}
    units = sorted(unit_arrow.values())
    src = [0] * n
    rng = [0] * n
    inv = [0] * n
    for i, (s, x) in enumerate(reps):
        src[i] = unit_arrow[x]
        rng[i] = unit_arrow[action.maps[s][x]]
        inv[i] = germ(sg.star[s], action.maps[s][x])
    compose = {}
    for i, (s, y) in enumerate(reps):
        for j, (t, x) in enumerate(reps):
            if action.maps[t][x] == y:
                compose[(i, j)] = germ(sg.mul(s, t), x)
    g = FiniteGroupoid(n, units, src, rng, compose, inv)
    report = validation_report(g, stop_early=True)
    if not report.ok:
        raise InternalInconsistencyError(
            f"germ construction produced an invalid groupoid: "
            f"{report.violations[0].detail}")
    return GermGroupoid(g, action, tuple(reps), tuple(min_idem), arrow_of)


def canonical_germ_iso(g: FiniteGroupoid, cap: int | None = None) -> GroupoidHom:
    """The isomorphism from the germ groupoid of the canonical bisection action
    back onto the groupoid: the germ of (u, x) goes to the unique arrow of u
    with source x."""
    action = canonical_action(g, cap)
    semigroup = action.semigroup
    germs = germ_groupoid(action)
    units = g.units
    mapping = []
    for (s, x) in germs.reps:
        unit = units[x]
        matches = [a for a in semigroup.elements[s].arrows if g.src[a] == unit]
        if len(matches) != 1:
            raise InternalInconsistencyError(
                f"bisection {s} has {len(matches)} arrows at source {unit}")
        mapping.append(matches[0])
    hom = GroupoidHom(germs.groupoid, g, tuple(mapping))
    if not hom.is_bijective():
        raise InternalInconsistencyError("canonical germ map is not bijective")
    return hom


def induced_germ_hom(
    source: SemigroupAction,
    target: SemigroupAction,
    point_map: Sequence[int],
    element_map: Sequence[int],
) -> GroupoidHom:
    """The germ-level homomorphism [s, x] -> [element_map(s), point_map(x)].

    `element_map` must be a semigroup homomorphism and the pair must be
    equivariant: whenever x lies in dom(s*s), point_map(x) lies in
    dom(element_map(s*s)) and moving then mapping equals mapping then moving.
    Checked exhaustively; the witness names the failing (element, point).
    """
    ssg, tsg = source.semigroup, target.semigroup
    element_map = tuple(int(v) for v in element_map)
    point_map = tuple(int(v) for v in point_map)
    if len(element_map) != len(ssg):
        raise StructuralError("element map length mismatch")
    if len(point_map) != source.n_points:
        raise StructuralError("point map length mismatch")
    for s in range(len(ssg)):
        for t in range(len(ssg)):
            if element_map[ssg.mul(s, t)] != tsg.mul(element_map[s], element_map[t]):
                raise StructuralError(
                    f"element map is not a semigroup homomorphism at ({s},{t})")
    for s in range(len(ssg)):
        for x in source.maps[s]:
            ts = element_map[s]
            tx = point_map[x]
            if tx not in target.maps[ts]:
                raise ActionError(
                    f"equivariance fails at ({s},{x}): image point outside domain")
            if target.maps[ts][tx] != point_map[source.maps[s][x]]:
                raise ActionError(
                    f"equivariance fails at ({s},{x}): moved images disagree")
    src_germs = germ_groupoid(source)
    dst_germs = germ_groupoid(target)
    mapping = tuple(dst_germs.arrow_of(element_map[s], point_map[x])
                    for (s, x) in src_germs.reps)
    return GroupoidHom(src_germs.groupoid, dst_germs.groupoid, mapping)
