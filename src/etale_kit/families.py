"""Constructors for the standard finite groupoid families."""

from __future__ import annotations

from typing import Sequence

from .errors import StructuralError, enum_cap
from .groupoid import FiniteGroupoid, _ids, _int, _labelled, validation_report

__all__ = [
    "pair_groupoid",
    "cyclic_groupoid",
    "group_bundle",
    "group_inverses",
    "transformation_groupoid",
    "disjoint_union",
    "standard_corpus",
    "symmetry_kinds",
]


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The pair groupoid on n points: one arrow (i, j) between any two points."""
    n = _int("point count", n)
    units = [(i, i) for i in range(n)]
    pairs = units + sorted((i, j) for i in range(n) for j in range(n) if i != j)
    return _labelled(pairs, units, lambda p: (p[1], p[1]), lambda p: (p[0], p[0]),
                     lambda p: (p[1], p[0]), lambda p, q: (p[0], q[1]))[0]


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """Z/n viewed as a groupoid with a single unit (the identity, arrow 0):
    the group bundle of one fiber."""
    return group_bundle([_int("cyclic order", n, 1)])


def group_bundle(orders: Sequence[int]) -> FiniteGroupoid:
    """A bundle of cyclic groups: point p carries Z/orders[p], no arrows
    between distinct points. Units first, then fiber elements by (point, power)."""
    orders = [_int(f"orders[{p}]", m, 1) for p, m in enumerate(orders)]
    units = [(p, 0) for p in range(len(orders))]
    labels = units + [(p, k) for p, m in enumerate(orders) for k in range(1, m)]
    return _labelled(labels, units, lambda e: (e[0], 0), lambda e: (e[0], 0),
                     lambda e: (e[0], -e[1] % orders[e[0]]),
                     lambda e, f: (e[0], (e[1] + f[1]) % orders[e[0]]))[0]


def group_inverses(table: Sequence[Sequence[int]]) -> list[int]:
    """Inverse table of a finite group given by its multiplication table with
    identity 0; validates the group axioms, so an empty table, which has no
    identity, is refused."""
    k = len(table)
    if any(len(row) != k for row in table):
        raise StructuralError("group table must be square")
    table = _ids("group table entry ({},{})", table, k)
    if not k or any(table[0][a] != a or table[a][0] != a for a in range(k)):
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
    (0, x) the unit at x.  Refuses with `StructuralError` a table that is not
    a group, an action entry outside the points, and an action that fails
    the action laws, which are checked as the axioms of the built groupoid."""
    n_points = _int("point count", n_points)
    k = len(table)
    ginv = group_inverses(table)
    if len(action) != k or any(len(row) != n_points for row in action):
        raise StructuralError("action table must be |group| x |points|")
    action = _ids("action entry ({},{})", action, n_points)
    units = [(0, x) for x in range(n_points)]
    labels = units + [(g, x) for g in range(1, k) for x in range(n_points)]
    # the action laws are the groupoid axioms of these formulas: the identity
    # fixing x is axiom 1 at (0, x), and multiplicativity at (g, h, x) is
    # axiom 3 at the range of (g, h.x).(h, x)
    groupoid = _labelled(labels, units, lambda e: (0, e[1]),
                         lambda e: (0, action[e[0]][e[1]]),
                         lambda e: (ginv[e[0]], action[e[0]][e[1]]),
                         lambda e, f: (table[e[0]][f[0]], f[1]))[0]
    report = validation_report(groupoid, stop_early=True)
    if not report.ok:
        raise StructuralError(f"not a group action: {report.violations[0].detail}")
    return groupoid


def disjoint_union(parts: Sequence[FiniteGroupoid]) -> FiniteGroupoid:
    """Relabelled disjoint union; arrows keep their block order.  Assumes the
    groupoid axioms of every part, whose products are read from its compose
    table."""
    labels = [(i, a) for i, g in enumerate(parts) for a in g.arrows()]
    return _labelled(labels, [(i, u) for i, g in enumerate(parts) for u in g.units],
                     lambda e: (e[0], parts[e[0]].src[e[1]]),
                     lambda e: (e[0], parts[e[0]].rng[e[1]]),
                     lambda e: (e[0], parts[e[0]].inv[e[1]]),
                     lambda e, f: (e[0], parts[e[0]].compose[e[1], f[1]]))[0]


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
                    transformation_groupoid(_cyclic_table(2), 2, _swap_action(2))))
    entries.append(("transformation(Z2,3,swap)",
                    transformation_groupoid(_cyclic_table(2), 3, _swap_action(3))))
    entries.append(("transformation(Z4,4,regular)",
                    transformation_groupoid(_cyclic_table(4), 4, _regular_action(4))))
    entries.append(("pair(2)+cyclic_group(2)",
                    disjoint_union([pair_groupoid(2), cyclic_groupoid(2)])))
    entries.append(("pair(2)+pair(1)",
                    disjoint_union([pair_groupoid(2), pair_groupoid(1)])))
    entries.append(("group_bundle([2,1])+pair(2)",
                    disjoint_union([group_bundle([2, 1]), pair_groupoid(2)])))
    if cap is not None:
        cap = enum_cap(cap)
        entries = [(name, g) for name, g in entries if g.arrow_count <= cap]
    return entries


def symmetry_kinds() -> list[tuple[str, FiniteGroupoid, int]]:
    """The seven groupoids of the `symmetry_enum` benchmark, each with the
    root-of-unity order of its cocycles there."""
    swap_pairs = [x ^ 1 if x ^ 1 < 5 else x for x in range(5)]
    rotate_three = [[(x + g) % 3 if x < 3 else x for x in range(4)] for g in range(3)]
    return [
        ("pair(4)", pair_groupoid(4), 2),
        ("group_bundle([3,3,3,3])", group_bundle([3] * 4), 3),
        ("3xpair(2)", disjoint_union([pair_groupoid(2)] * 3), 2),
        ("pair(3)+group_bundle([2,2])",
         disjoint_union([pair_groupoid(3), group_bundle([2, 2])]), 2),
        ("pair(2)+pair(2)+group_bundle([3])",
         disjoint_union([pair_groupoid(2), pair_groupoid(2), group_bundle([3])]), 3),
        ("Z/2 on 5 points",
         transformation_groupoid(_cyclic_table(2), 5, [list(range(5)), swap_pairs]), 2),
        ("Z/3 on 4 points", transformation_groupoid(_cyclic_table(3), 4, rotate_three), 3),
    ]
