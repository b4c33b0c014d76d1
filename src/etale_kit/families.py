"""Constructors for the standard finite groupoid families."""

from __future__ import annotations

from typing import Sequence

from .errors import StructuralError
from .groupoid import FiniteGroupoid, validation_report

__all__ = [
    "pair_groupoid",
    "pair_arrow",
    "cyclic_groupoid",
    "group_bundle",
    "cyclic_table",
    "group_inverses",
    "transformation_groupoid",
    "disjoint_union",
    "make_family",
    "standard_corpus",
]


def pair_arrow(n: int, i: int, j: int) -> int:
    """Arrow id of (i, j) in pair_groupoid(n): units first, then non-units
    in lexicographic order. The arrow (i, j) runs from point j to point i."""
    if i == j:
        return i
    off = sum(1 for a in range(n) for b in range(n)
              if a != b and (a, b) < (i, j))
    return n + off


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The pair groupoid on n points: one arrow (i, j) between any two points."""
    if n < 0:
        raise StructuralError("point count must be nonnegative")
    pairs = [(i, i) for i in range(n)]
    pairs += sorted((i, j) for i in range(n) for j in range(n) if i != j)
    idx = {p: a for a, p in enumerate(pairs)}
    src = [idx[(j, j)] for (i, j) in pairs]
    rng = [idx[(i, i)] for (i, j) in pairs]
    inv = [idx[(j, i)] for (i, j) in pairs]
    compose = {}
    for (i, j) in pairs:
        for (jj, k) in pairs:
            if j == jj:
                compose[(idx[(i, j)], idx[(j, k)])] = idx[(i, k)]
    return FiniteGroupoid(len(pairs), range(n), src, rng, compose, inv)


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """Z/n viewed as a groupoid with a single unit (the identity, arrow 0)."""
    if n < 1:
        raise StructuralError("cyclic order must be >= 1")
    compose = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    return FiniteGroupoid(n, [0], [0] * n, [0] * n, compose, [(-a) % n for a in range(n)])


def group_bundle(orders: Sequence[int]) -> FiniteGroupoid:
    """A bundle of cyclic groups: point p carries Z/orders[p], no arrows
    between distinct points. Units first, then fiber elements by (point, power)."""
    orders = [int(m) for m in orders]
    if not all(m >= 1 for m in orders):
        raise StructuralError("every fiber order must be >= 1")
    points = len(orders)
    labels = [(p, 0) for p in range(points)]
    labels += [(p, k) for p in range(points) for k in range(1, orders[p])]
    idx = {lab: a for a, lab in enumerate(labels)}
    src = [idx[(p, 0)] for (p, k) in labels]
    rng = list(src)
    inv = [idx[(p, (-k) % orders[p])] for (p, k) in labels]
    compose = {}
    for (p, k) in labels:
        for l in range(orders[p]):
            compose[(idx[(p, k)], idx[(p, l)])] = idx[(p, (k + l) % orders[p])]
    return FiniteGroupoid(len(labels), range(points), src, rng, compose, inv)


def group_inverses(table: Sequence[Sequence[int]]) -> list[int]:
    """Inverse table of a finite group given by its multiplication table with
    identity 0; validates the group axioms."""
    k = len(table)
    if any(len(row) != k for row in table):
        raise StructuralError("group table must be square")
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            if not 0 <= c < k:
                raise StructuralError(
                    f"group table entry ({a},{b}) is {c}, outside 0..{k - 1}")
    if any(table[0][a] != a or table[a][0] != a for a in range(k)):
        raise StructuralError("group table must have identity 0")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise StructuralError(
                        f"group table not associative at ({a},{b},{c})")
    inv = [-1] * k
    for a in range(k):
        for b in range(k):
            if table[a][b] == 0 and table[b][a] == 0:
                inv[a] = b
    if -1 in inv:
        raise StructuralError("group table has an element without inverse")
    return inv


def transformation_groupoid(
    table: Sequence[Sequence[int]],
    n_points: int,
    action: Sequence[Sequence[int]],
) -> FiniteGroupoid:
    """The action groupoid of a finite group acting on a finite set.

    `table` is the group multiplication table with identity 0; `action[g][x]`
    is the image of point x.  Arrows are pairs (g, x) from x to g.x, with
    (0, x) the unit at x."""
    k = len(table)
    ginv = group_inverses(table)
    if len(action) != k or any(len(row) != n_points for row in action):
        raise StructuralError("action table must be |group| x |points|")
    if any(action[0][x] != x for x in range(n_points)):
        raise StructuralError("identity must act trivially")
    for g in range(k):
        for h in range(k):
            for x in range(n_points):
                if action[g][action[h][x]] != action[table[g][h]][x]:
                    raise StructuralError(f"action not multiplicative at ({g},{h},{x})")

    labels = [(0, x) for x in range(n_points)]
    labels += [(g, x) for g in range(1, k) for x in range(n_points)]
    idx = {lab: a for a, lab in enumerate(labels)}
    src = [idx[(0, x)] for (g, x) in labels]
    rng = [idx[(0, action[g][x])] for (g, x) in labels]
    inv = [idx[(ginv[g], action[g][x])] for (g, x) in labels]
    compose = {}
    for (g, y) in labels:
        for (h, x) in labels:
            if action[h][x] == y:
                compose[(idx[(g, y)], idx[(h, x)])] = idx[(table[g][h], x)]
    return FiniteGroupoid(len(labels), range(n_points), src, rng, compose, inv)


def disjoint_union(parts: Sequence[FiniteGroupoid]) -> FiniteGroupoid:
    """Relabelled disjoint union; arrows keep their block order."""
    units, src, rng, inv = [], [], [], []
    compose = {}
    offset = 0
    for g in parts:
        units.extend(u + offset for u in g.units)
        src.extend(a + offset for a in g.src)
        rng.extend(a + offset for a in g.rng)
        inv.extend(a + offset for a in g.inv)
        for (a, b), c in g.compose.items():
            compose[(a + offset, b + offset)] = c + offset
        offset += g.arrow_count
    return FiniteGroupoid(offset, units, src, rng, compose, inv)


def make_family(family: str, params) -> FiniteGroupoid:
    """Build a named family member and verify the groupoid axioms."""
    if family == "pair":
        g = pair_groupoid(int(params))
    elif family == "cyclic_group":
        g = cyclic_groupoid(int(params))
    elif family == "group_bundle":
        g = group_bundle(list(params))
    elif family == "transformation":
        table, n_points, action = params
        g = transformation_groupoid(table, int(n_points), action)
    elif family == "disjoint_union":
        g = disjoint_union(list(params))
    else:
        raise StructuralError(f"unknown family {family!r}")
    report = validation_report(g, stop_early=True)
    if not report.ok:
        raise StructuralError(f"family constructor produced an invalid groupoid: "
                              f"{report.violations[0].detail}")
    return g


def _swap_action(n_points: int) -> list[list[int]]:
    """Z/2 action swapping points 0 and 1, fixing the rest."""
    swap = list(range(n_points))
    swap[0], swap[1] = 1, 0
    return [list(range(n_points)), swap]


def _regular_action(n: int) -> list[list[int]]:
    return [[(g + x) % n for x in range(n)] for g in range(n)]


def standard_corpus(cap: int | None = None) -> list[tuple[str, FiniteGroupoid]]:
    """The named verification corpus: small members of every family plus
    disjoint unions.  A cap drops members with more arrows than allowed."""
    entries: list[tuple[str, FiniteGroupoid]] = []
    for n in (1, 2, 3):
        entries.append((f"pair({n})", pair_groupoid(n)))
    for n in (1, 2, 3, 4):
        entries.append((f"cyclic_group({n})", cyclic_groupoid(n)))
    entries.append(("group_bundle([2,1])", group_bundle([2, 1])))
    entries.append(("group_bundle([2,2,1])", group_bundle([2, 2, 1])))
    entries.append(("group_bundle([3,2])", group_bundle([3, 2])))
    entries.append(("transformation(Z2,2,swap)",
                    transformation_groupoid(cyclic_table(2), 2, _swap_action(2))))
    entries.append(("transformation(Z2,3,swap)",
                    transformation_groupoid(cyclic_table(2), 3, _swap_action(3))))
    entries.append(("transformation(Z4,4,regular)",
                    transformation_groupoid(cyclic_table(4), 4, _regular_action(4))))
    entries.append(("pair(2)+cyclic_group(2)",
                    disjoint_union([pair_groupoid(2), cyclic_groupoid(2)])))
    entries.append(("pair(2)+pair(1)",
                    disjoint_union([pair_groupoid(2), pair_groupoid(1)])))
    entries.append(("group_bundle([2,1])+pair(2)",
                    disjoint_union([group_bundle([2, 1]), pair_groupoid(2)])))
    if cap is not None:
        entries = [(name, g) for name, g in entries if g.arrow_count <= cap]
    return entries
