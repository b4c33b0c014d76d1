"""Bisections as an inverse semigroup, inverse semigroup actions, and germ groupoids."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import add
from typing import Sequence

from .errors import (
    ActionError,
    InternalInconsistencyError,
    SEMIGROUP_ELEMENT_CAP,
    StructuralError,
    _charge,
    check_enum_cap,
)
from .groupoid import (FiniteGroupoid, GroupoidHom, _labelled, _reader, _unchecked,
                       validation_report)

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


def _gather(seq, indices) -> tuple:
    """tuple(seq[i] for i in indices), in one C-level pass."""
    return _reader(tuple(indices))(seq)


def _positions(seq: tuple, value) -> list[int]:
    """The indices at which `value` occurs in `seq`, ascending."""
    found: list[int] = []
    for _ in range(seq.count(value)):
        found.append(seq.index(value, found[-1] + 1 if found else 0))
    return found


def bisection_product(u: Bisection, v: Bisection) -> Bisection:
    """{a.b : a in u, b in v, composable}; again a bisection.  Each b in v
    composes with u's arrow leaving rng(b), if u has one."""
    if u.groupoid != v.groupoid:
        raise StructuralError("bisections live on different groupoids")
    g = u.groupoid
    u_at = {g.src[a]: a for a in u.arrows}
    return Bisection(g, tuple(g.compose[(u_at[g.rng[b]], b)]
                              for b in v.arrows if g.rng[b] in u_at))


def bisection_inverse(u: Bisection) -> Bisection:
    return Bisection(u.groupoid, tuple(u.groupoid.inv[a] for a in u.arrows))


class InverseSemigroup:
    """A finite inverse semigroup as an element list with explicit tables.

    `table[s][t]` is s.t; `columns[t][s]` is the same product read by its
    right factor.  Rows given as tuples are kept as they are.  Construction
    verifies that every element has exactly one generalized inverse (matching
    the declared star) and that idempotents commute.
    """

    def __init__(self, elements: Sequence, table: Sequence[Sequence[int]],
                 star: Sequence[int], zero: int | None = None):
        self.elements = tuple(elements)
        k = len(self.elements)
        self.table = tuple(row if type(row) is tuple else tuple(map(int, row))
                           for row in table)
        self.star = tuple(int(x) for x in star)
        self.zero = zero
        if len(self.table) != k or any(len(row) != k for row in self.table):
            raise StructuralError("product table must be square over the elements")
        if len(self.star) != k:
            raise StructuralError("star table length mismatch")
        self.columns = tuple(zip(*self.table))
        for s in range(k):
            # t is a generalized inverse of s when (s.t).s = s and (t.s).t = t;
            # the first test runs over a whole row, the second on its matches
            column = self.columns[s]
            generalized = [t for t in _positions(_gather(column, self.table[s]), s)
                           if self.table[column[t]][t] == t]
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


def enumerate_bisections(g: FiniteGroupoid, cap: int | None = None) -> InverseSemigroup:
    """The inverse semigroup of all bisections, elements in lexicographic
    order of their sorted arrow tuples; the empty bisection is the zero.

    Enumerated unit by unit: a bisection takes at most one arrow leaving each
    unit, with distinct ranges.  So with arrow a weighted (1 + its slot among
    the arrows leaving src a) times a mixed-radix place per unit, the sum of
    an element's weights is a key that names it.  The table is built column
    by column, in keys: for each arrow b, one pass over the elements gives
    every left factor u the weight of (u's arrow leaving rng b).b, 0 where u
    has none.  The keys of the products u.v are then those of u.v', where v'
    drops the last arrow b of v, plus that pass for b: a C-level gather and
    addition per cell, with no product formed as a set of arrows.  The rows
    are made once, as tuples, by transposing the columns.

    Each element takes at most one arrow leaving each unit, with distinct
    ranges, so it is a bisection by construction and is made without
    `Bisection`'s check.  Refuses with `CapExceeded` once the bisections over
    the units so far pass SEMIGROUP_ELEMENT_CAP.  The groupoid's cache holds
    the semigroup weakly: it is reused while a caller still holds it, and a
    dropped groupoid is freed without the cycle collector.  Assumes the
    groupoid axioms."""
    check_enum_cap(g.arrow_count, cap, "bisection enumeration")
    ref = g._cache.get("bisections")
    cached = ref() if ref is not None else None
    if cached is not None:
        return cached
    by_src = g.by_src()
    partial: list[tuple[tuple[int, ...], frozenset[int]]] = [((), frozenset())]
    for x in g.units:
        partial += [(arrows + (a,), used | {g.rng[a]})
                    for arrows, used in partial
                    for a in by_src[x] if g.rng[a] not in used]
        _charge(0, len(partial), SEMIGROUP_ELEMENT_CAP, "bisection enumeration", "bisections")
    found = sorted(tuple(sorted(arrows)) for arrows, _ in partial)
    k = len(found)
    weight = [0] * g.arrow_count
    place = 1
    for x in g.units:
        for slot, a in enumerate(by_src[x], 1):
            weight[a] = slot * place
        place *= len(by_src[x]) + 1
    keys = [sum(weight[a] for a in arrows) for arrows in found]
    index = {key: i for i, key in enumerate(keys)}
    # leaving[x][i]: the arrow of element i leaving unit x, or the sink id
    sink = g.arrow_count
    leaving = {x: [sink] * k for x in g.units}
    for i, arrows in enumerate(found):
        for a in arrows:
            leaving[g.src[a]][i] = a
    # term[b][i]: the weight of (element i's arrow leaving rng b).b, 0 if none
    term = []
    for b in g.arrows():
        moved = [0] * (sink + 1)
        for a in by_src[g.rng[b]]:
            moved[a] = weight[g.compose[(a, b)]]
        term.append(_gather(moved, leaving[g.rng[b]]))
    # the column of v: u.v is u.v' plus (u's arrow leaving rng b).b, where v'
    # drops the last arrow b of v and so comes earlier in the order
    columns = [(index[0],) * k]
    for v, key in zip(found[1:], keys[1:]):
        b = v[-1]
        before = _gather(keys, columns[index[key - weight[b]]])
        columns.append(_gather(index, map(add, before, term[b])))
    table = list(zip(*columns))
    del columns, term  # before the semigroup transposes the table back
    elements = [_unchecked(Bisection, groupoid=g, arrows=arrows) for arrows in found]
    star = [index[sum(weight[g.inv[a]] for a in arrows)] for arrows in found]
    semigroup = InverseSemigroup(elements, table, star, zero=index[0])
    g._cache["bisections"] = weakref.ref(semigroup)
    return semigroup


class SemigroupAction:
    """An inverse semigroup acting by partial bijections on a finite point set.

    `maps[s]` is the partial bijection of element s as a dict; its key set is
    the domain of the idempotent s*s.  Construction checks that every map is a
    bijection onto the domain of s s*, that the idempotent domains cover the
    space, and the composition law s(t(x)) = (s.t)(x) exhaustively, one
    (t, x) column at a time: the images under every s of the point t(x) are
    compared, as one tuple, with the column of s.t read at x.  A failure names
    the first failing (s, t) in row-major order.
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
        # each map as a dense tuple over the points, the sink n_points standing
        # for "undefined" and fixed by every map; at[y][s] is s(y)
        sink = self.n_points
        at = tuple(zip(*(tuple(m.get(x, sink) for x in range(sink)) + (sink,)
                         for m in self.maps)))
        failures = []
        for t in range(k):
            column = semigroup.columns[t]
            for x in range(sink):
                # s(t(x)) against (s.t)(x), for every s at once
                composed, product = at[at[x][t]], _gather(at[x], column)
                if composed != product:
                    s = next(s for s in range(k) if composed[s] != product[s])
                    failures.append((s, t))
        if failures:
            raise ActionError(
                "composition law fails at elements ({},{})".format(*min(failures)))
        covered = set()
        for e in semigroup.idempotents():
            covered |= set(self.maps[e].keys())
        if covered != set(range(self.n_points)):
            raise ActionError("idempotent domains do not cover the point set")


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


def germ_groupoid(action: SemigroupAction) -> GermGroupoid:
    """The groupoid of germs of an action.

    (s, x) and (t, x) define the same germ exactly when s.e = t.e for some
    idempotent e whose domain contains x; since idempotent domains are closed
    under products, that is equivalent to agreement against the smallest
    idempotent at x.  A class's representative is its least (element, point)
    member, met first as s runs upward; arrow ids follow the sorted representatives.
    """
    sg = action.semigroup

    min_idem: list[int] = []
    for x in range(action.n_points):
        ex = None
        for e in sg.idempotents():
            if x in action.maps[e]:
                ex = e if ex is None else sg.mul(ex, e)
        if ex is None:
            raise ActionError(f"point {x} lies in no idempotent domain")
        min_idem.append(ex)

    least: dict[tuple[int, int], int] = {}
    for s in range(len(sg)):
        for x in action.maps[s]:
            least.setdefault((sg.mul(s, min_idem[x]), x), s)

    keys = sorted(least, key=lambda key: (least[key], key[1]))

    def germ(s: int, x: int) -> tuple[int, int]:
        return sg.mul(s, min_idem[x]), x

    def unit(x: int) -> tuple[int, int]:
        return germ(min_idem[x], x)

    def moved(key: tuple[int, int]) -> int:
        """The point the representative of a germ moves its point to."""
        return action.maps[least[key]][key[1]]

    g, arrow_of = _labelled(
        keys, map(unit, range(action.n_points)),
        lambda key: unit(key[1]), lambda key: unit(moved(key)),
        lambda key: germ(sg.star[least[key]], moved(key)),
        lambda key, other: germ(sg.mul(least[key], least[other]), other[1]))
    report = validation_report(g, stop_early=True)
    if not report.ok:
        raise InternalInconsistencyError(
            f"germ construction produced an invalid groupoid: "
            f"{report.violations[0].detail}")
    return GermGroupoid(g, action, tuple((least[key], key[1]) for key in keys),
                        tuple(min_idem), arrow_of)


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
    Checked exhaustively, after both maps are checked to land in the target;
    the witness names the failing (element, point).
    """
    ssg, tsg = source.semigroup, target.semigroup
    element_map = tuple(int(v) for v in element_map)
    point_map = tuple(int(v) for v in point_map)
    if len(element_map) != len(ssg):
        raise StructuralError("element map length mismatch")
    if len(point_map) != source.n_points:
        raise StructuralError("point map length mismatch")
    if not all(0 <= t < len(tsg) for t in element_map):
        raise StructuralError("element map leaves the target semigroup")
    if not all(0 <= y < target.n_points for y in point_map):
        raise StructuralError("point map leaves the target point set")
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
