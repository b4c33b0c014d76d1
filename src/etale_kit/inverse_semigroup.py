"""Bisections as an inverse semigroup, inverse semigroup actions, and germ groupoids."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import repeat
from math import comb, perm, prod
from operator import add, sub
from typing import Sequence

from .errors import (
    ActionError,
    InternalInconsistencyError,
    SEMIGROUP_ELEMENT_CAP,
    StructuralError,
    _charge,
    check_enum_cap,
)
from .groupoid import (FiniteGroupoid, GroupoidHom, _ids, _int, _labelled, _orbit_tier,
                       _reader, _unchecked, validation_report)

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
]


@dataclass(frozen=True)
class Bisection:
    """An arrow subset on which both source and range are injective."""

    groupoid: FiniteGroupoid
    arrows: tuple[int, ...]

    def __post_init__(self):
        g = self.groupoid
        arrows = tuple(sorted(set(_ids("arrows[{}]", self.arrows, g.arrow_count))))
        object.__setattr__(self, "arrows", arrows)
        seen_src, seen_rng = set(), set()
        for a in arrows:
            if g.src[a] in seen_src:
                raise StructuralError(f"source map not injective on arrows (at {a})")
            if g.rng[a] in seen_rng:
                raise StructuralError(f"range map not injective on arrows (at {a})")
            seen_src.add(g.src[a])
            seen_rng.add(g.rng[a])


def _gather(seq, indices) -> tuple:
    """tuple(seq[i] for i in indices), in one C-level pass."""
    return _reader(tuple(indices))(seq)


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
    """A finite inverse semigroup as an element list with an explicit table.

    `table[s][t]` is s.t.
    Construction refuses a product, star or zero entry that is not an int
    in 0..k-1, naming its element, before the entry is used as an index.
    It verifies, cell by cell, that every element has exactly one
    generalized inverse (matching the declared star), that idempotents
    commute, and that a declared zero is an element absorbing every other.
    `enumerate_bisections` skips the checks.
    """

    def __init__(self, elements: Sequence, table: Sequence[Sequence[int]],
                 star: Sequence[int], zero: int | None = None):
        self.elements = tuple(elements)
        k = len(self.elements)
        table, star = tuple(table), tuple(star)
        if len(table) != k or any(len(row) != k for row in table):
            raise StructuralError("product table must be square over the elements")
        if len(star) != k:
            raise StructuralError("star table length mismatch")
        if zero is not None:
            zero = _int("declared zero", zero, 0, k - 1)
        self.zero = zero
        self.star = _ids("star of element {}", star, k)
        self.table = table = _ids("product of elements ({},{})", table, k)
        # t is a generalized inverse of s when (s.t).s = s and (t.s).t = t
        for s, row in enumerate(table):
            generalized = [t for t, st in enumerate(row)
                           if table[st][s] == s and table[table[t][s]][t] == t]
            if generalized != [self.star[s]]:
                raise StructuralError(
                    f"element {s} has generalized inverses {generalized}, "
                    f"declared {self.star[s]}")
        # a pair fails both ways round, so the first failure has f after e
        idem = self.idempotents()
        for i, e in enumerate(idem):
            for f in idem[i + 1:]:
                if table[e][f] != table[f][e]:
                    raise StructuralError(f"idempotents {e} and {f} do not commute")
        if zero is not None:
            for s in range(k):
                if table[zero][s] != zero or table[s][zero] != zero:
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
    an element's weights is a key that names it.

    The table is composed from a few rows made in keys.  By associativity
    row(s.t) is row(s) read at the positions row(t), one C-level gather,
    and the index of s.t is row(s)[t], so a product is never formed as a set
    of arrows.  Three facts make every row such a product:
    - the full bisections, one arrow leaving every unit, form a group
      generated by swaps: {t, inv t} and the other units, for the
      spanning arrow t from the base of each orbit to each other unit of
      the orbit, and {a} and the other units, for each loop a at the base
      but the base itself, which `groupoid._orbit_tier` lists first;
    - every idempotent, a set of units, is a product of the co-atoms, each
      of which leaves out one unit;
    - every bisection u is s.e, for a full bisection s extending u and the
      idempotent e of the sources of u.
    So only the rows of the co-atoms and the swaps are made in keys: the key
    of w.v is that of v, less the weights of v's arrows entering the units w
    moves, plus the weights of w's arrows composed with them.  Every other
    row is one gather: each full bisection a swap away from one already
    found, each idempotent a co-atom less than one already found, and then
    each full bisection restricted to each idempotent.

    Each element takes at most one arrow leaving each unit, with distinct
    ranges, so it is a bisection by construction.  The bisections of a
    groupoid form an inverse semigroup, so neither `Bisection`'s check nor
    `InverseSemigroup`'s runs here; tests/test_derived_groupoids.py runs
    them on what is made.  Their number, the product over the orbits of
    sum_k C(|O|, k)^2 . k! . |H|^k, is charged against SEMIGROUP_ELEMENT_CAP
    before any is formed, refusing with `CapExceeded`.  The groupoid's cache
    holds the semigroup weakly: it is reused while a caller still holds it,
    and a dropped groupoid is freed without the cycle collector.  Assumes
    the groupoid axioms."""
    check_enum_cap(g.arrow_count, cap, "bisection enumeration")
    ref = g._cache.get("bisections")
    cached = ref() if ref is not None else None
    if cached is not None:
        return cached
    tier = _orbit_tier(g)
    _charge(0, prod(sum(comb(n, k) * perm(n, k) * h ** k for k in range(n + 1))
                    for n, h in zip(map(len, tier.orbits), map(len, tier.loops))),
            SEMIGROUP_ELEMENT_CAP, "bisection enumeration", "bisections")
    by_src, src, rng, inv = g.by_src(), g.src, g.rng, g.inv
    weight = [0] * g.arrow_count
    place = 1
    for x in g.units:
        for slot, a in enumerate(by_src[x], 1):
            weight[a] = slot * place
        place *= len(by_src[x]) + 1
    # a partial element: its arrows, the bits of the units they enter, and
    # the keys of the element and of its inverse
    bit = {x: 1 << i for i, x in enumerate(g.units)}
    partial = [((), 0, 0, 0)]
    for x in g.units:
        steps = [(a, bit[rng[a]], weight[a], weight[inv[a]]) for a in by_src[x]]
        partial += [(arrows + (a,), used | b, key + w, back + v)
                    for arrows, used, key, back in partial
                    for a, b, w, v in steps if not used & b]
    # distinct arrow tuples, so the keys are never compared
    found, keys, backs = zip(*sorted((tuple(sorted(arrows)), key, back)
                                     for arrows, _, key, back in partial))
    k = len(found)
    index = dict(zip(keys, range(k)))
    # entering[y][i]: the arrow of element i entering unit y, or the sink id
    by_rng = g.by_rng()
    sink = g.arrow_count
    entering = {y: [sink] * k for y in g.units}
    for i, arrows in enumerate(found):
        for b in arrows:
            entering[rng[b]][i] = b

    def term(a):
        """The weight of a.(each element's arrow entering src a), 0 where none."""
        moved = [0] * (sink + 1)
        for b in by_rng[src[a]]:
            moved[b] = weight[g.compose[(a, b)]]
        return _gather(moved, entering[src[a]])

    def left_row(units_out, arrows_in):
        """The row, made in keys, of the element that takes `arrows_in` in
        place of the units `units_out` and is a unit elsewhere."""
        row_keys = keys
        for x in units_out:
            row_keys = map(sub, row_keys, term(x))
        for a in arrows_in:
            row_keys = map(add, row_keys, term(a))
        return _gather(index, tuple(row_keys))

    rows: list[tuple[int, ...] | None] = [None] * k
    identity = index[sum(weight[x] for x in g.units)]
    rows[identity] = tuple(range(k))
    coatoms = [left_row((y,), ()) for y in g.units]
    # the generating swaps: from the base x of each orbit, the least arrow
    # t_y to each other unit y, with its inverse, and each loop at x but x
    t = tier.spanning
    swaps = [left_row((orb[0], y), (t[y], inv[t[y]])) for orb in tier.orbits for y in orb[1:]]
    swaps += [left_row(orb[:1], (a,)) for orb, loops in zip(tier.orbits, tier.loops)
              for a in loops[1:]]
    # the full bisections, the identity times products of swaps
    full = [identity]
    moves = [(row[identity], _reader(row)) for row in swaps]  # w.identity is w
    for s in full:
        row = rows[s]
        for t, read in moves:
            if rows[row[t]] is None:
                rows[row[t]] = read(row)
                full.append(row[t])
    # the idempotents, each leaving out units in ascending order from the identity
    cuts = [(row[identity], _reader(row)) for row in coatoms]
    idempotents = [(identity, 0)]
    for e, first in idempotents:
        row = rows[e]
        for j in range(first, len(cuts)):
            c, read = cuts[j]
            if rows[row[c]] is None:
                rows[row[c]] = read(row)
            idempotents.append((row[c], j + 1))
    # every other element, a full bisection restricted to an idempotent
    restrictions = [(e, _reader(rows[e])) for e, _ in idempotents[1:]]
    for s in full:
        row = rows[s]
        for e, read in restrictions:
            if rows[row[e]] is None:
                rows[row[e]] = read(row)
    elements = tuple(_unchecked(Bisection, groupoid=g, arrows=arrows) for arrows in found)
    semigroup = _unchecked(InverseSemigroup, elements=elements, table=tuple(rows),
                           star=_gather(index, backs), zero=index[0])
    g._cache["bisections"] = weakref.ref(semigroup)
    return semigroup


class SemigroupAction:
    """An inverse semigroup acting by partial bijections on a finite point set.

    `maps[s]` is the partial bijection of element s as a dict; its key set is
    the domain of the idempotent s*s.  Construction refuses a point count
    that is not an int in 0..0x10FFFF and a point id that is not an int in
    0..n_points-1, checks that every map is a bijection onto the domain of
    s s*, that the idempotent domains cover the space, and the composition law
    s(t(x)) = (s.t)(x) exhaustively, one element s at a time: with each map
    a string over the points and chr(n_points) for "undefined", s(t(x)) for
    every (t, x) is one `str.translate` of all the strings joined, and
    (s.t)(x) is the strings of row s joined.  A failure names the first
    failing (s, t) in row-major order.  `canonical_action` skips the checks.
    """

    def __init__(self, semigroup: InverseSemigroup, n_points: int,
                 maps: Sequence[dict[int, int]]):
        self.semigroup = semigroup
        self.n_points = _int("point count", n_points, 0, 0x10FFFF, ActionError)
        maps = tuple(map(dict, maps))
        k = len(semigroup)
        if len(maps) != k:
            raise StructuralError("one partial map per semigroup element required")
        checked = []
        for s, m in enumerate(maps):
            # a float id in range would pass every other check and fail in `chr`
            points = _ids(f"map of element {s} point id", [*m, *m.values()],
                          self.n_points, ActionError)
            m = dict(zip(points[:len(m)], points[len(m):]))
            if len(set(m.values())) != len(m):
                raise ActionError(f"map of element {s} is not injective")
            checked.append(m)
        self.maps = tuple(checked)
        table, star = semigroup.table, semigroup.star
        for s, m in enumerate(self.maps):
            if m.keys() != self.maps[table[star[s]][s]].keys():
                raise ActionError(f"domain of element {s} differs from dom(s*s)")
            if self.maps[table[s][star[s]]].keys() != set(m.values()):
                raise ActionError(f"range of element {s} differs from dom(ss*)")
        n, sink = self.n_points, chr(self.n_points)
        strings = ["".join(map(chr, map(m.get, range(n), repeat(n)))) for m in self.maps]
        everything = "".join(strings)
        for s in range(k):
            # position t * n + x: s(t(x)) against (s.t)(x)
            composed = everything.translate(strings[s] + sink)
            product = "".join(_gather(strings, semigroup.table[s]))
            if composed != product:
                i = next(i for i, (p, q) in enumerate(zip(composed, product)) if p != q)
                raise ActionError(f"composition law fails at elements ({s},{i // n})")
        if set().union(*map(self.maps.__getitem__, semigroup.idempotents())) != set(range(n)):
            raise ActionError("idempotent domains do not cover the point set")


def canonical_action(g: FiniteGroupoid, cap: int | None = None) -> SemigroupAction:
    """Bisections acting on the unit space: u moves src(a) to rng(a) for a in
    u.  The action laws hold by construction, so `SemigroupAction`'s checks
    do not run here; tests/test_derived_groupoids.py runs them."""
    semigroup = enumerate_bisections(g, cap)
    unit_pos = {u: i for i, u in enumerate(g.units)}
    moves = [(unit_pos[g.src[a]], unit_pos[g.rng[a]]) for a in g.arrows()]
    maps = tuple(dict(map(moves.__getitem__, b.arrows)) for b in semigroup.elements)
    return _unchecked(SemigroupAction, semigroup=semigroup, n_points=len(g.units), maps=maps)


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

    idempotents = sg.idempotents()
    min_idem: list[int] = []
    for x in range(action.n_points):
        ex = None
        for e in idempotents:
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
