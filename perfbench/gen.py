"""Input generators and closed-form oracles, written without etale_kit.

Every groupoid the benchmark uses is a disjoint union of transitive blocks
pair(n) x Z/m: arrow (i, j, g) runs from point j to point i and carries the
group element g.  A transitive groupoid with cyclic isotropy is isomorphic to
such a block, so the bisection, automorphism and cocycle counts the workloads
check follow from the block list alone (see the closed forms below).
"""

from __future__ import annotations

import cmath
import random
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial, gcd, pi, prod

import numpy as np

TWIST_ORDER = 12  # point twists are 12th roots of unity


@dataclass
class Tables:
    """Groupoid tables over arrow ids 0..n-1 and the label (block, i, j, g)
    of each id; `blocks` lists (points, isotropy order) per block."""

    labels: list
    ids: dict
    units: list
    src: list
    rng: list
    inv: list
    compose: list
    blocks: list

    @property
    def arrow_count(self) -> int:
        return len(self.labels)

    def doc(self) -> dict:
        return {"arrows": self.arrow_count, "units": list(self.units),
                "src": list(self.src), "rng": list(self.rng),
                "compose": [list(t) for t in self.compose],
                "inv": list(self.inv)}


def block_union(blocks, rnd: random.Random | None = None) -> Tables:
    """The disjoint union of the blocks pair(n) x Z/m.  With `rnd`, arrow
    ids are a random permutation of the canonical order (units first)."""
    blocks = [(int(n), int(m)) for n, m in blocks]
    labels = [(b, i, i, 0) for b, (n, _) in enumerate(blocks) for i in range(n)]
    labels += [(b, i, j, g) for b, (n, m) in enumerate(blocks)
               for i in range(n) for j in range(n) for g in range(m)
               if (i, g) != (j, 0)]
    if rnd is not None:
        rnd.shuffle(labels)
    ids = {lab: a for a, lab in enumerate(labels)}
    into = {}  # (block, point) -> arrows whose range is that point
    for a, (b, i, j, g) in enumerate(labels):
        into.setdefault((b, i), []).append(a)
    compose = []
    for a, (b, i, j, g) in enumerate(labels):
        m = blocks[b][1]
        for c in into[(b, j)]:
            _, _, k, h = labels[c]
            compose.append((a, c, ids[(b, i, k, (g + h) % m)]))
    compose.sort()
    return Tables(
        labels=labels, ids=ids,
        units=sorted(ids[(b, i, i, 0)] for b, (n, _) in enumerate(blocks)
                     for i in range(n)),
        src=[ids[(b, j, j, 0)] for (b, i, j, g) in labels],
        rng=[ids[(b, i, i, 0)] for (b, i, j, g) in labels],
        inv=[ids[(b, j, i, -g % blocks[b][1])] for (b, i, j, g) in labels],
        compose=compose, blocks=blocks)


def relabel(t: Tables, rnd: random.Random) -> Tables:
    """The same groupoid with its arrow ids permuted at random."""
    n = t.arrow_count
    new = list(range(n))
    rnd.shuffle(new)
    labels = [None] * n
    for a, lab in enumerate(t.labels):
        labels[new[a]] = lab

    def moved(table):
        out = [0] * n
        for a, v in enumerate(table):
            out[new[a]] = new[v]
        return out

    return Tables(
        labels=labels, ids={lab: a for a, lab in enumerate(labels)},
        units=sorted(new[u] for u in t.units), src=moved(t.src),
        rng=moved(t.rng), inv=moved(t.inv),
        compose=sorted((new[a], new[b], new[c]) for a, b, c in t.compose),
        blocks=list(t.blocks))


def cyclic_action_blocks(order: int, action) -> list:
    """Blocks of the action groupoid of Z/order acting by `action[g][x]`:
    one block per orbit, with the stabilizer order |G| / |orbit|; subgroups
    of a cyclic group are cyclic, so the isotropy is Z/m."""
    points = len(action[0])
    seen, blocks = set(), []
    for x in range(points):
        if x in seen:
            continue
        orbit = {action[g][x] for g in range(order)}
        seen |= orbit
        blocks.append((len(orbit), order // len(orbit)))
    return blocks


def action_groupoid(order: int, action) -> Tables:
    """The action groupoid of Z/order on points: arrow (g, x) runs from x to
    g.x.  Its labels are (g, x), not block labels; `blocks` comes from the
    orbit-stabilizer count."""
    points = len(action[0])
    labels = [(0, x) for x in range(points)]
    labels += [(g, x) for g in range(1, order) for x in range(points)]
    ids = {lab: a for a, lab in enumerate(labels)}
    compose = sorted(
        (ids[(g, y)], ids[(h, x)], ids[((g + h) % order, x)])
        for (g, y) in labels for (h, x) in labels if action[h][x] == y)
    return Tables(
        labels=labels, ids=ids, units=list(range(points)),
        src=[ids[(0, x)] for (g, x) in labels],
        rng=[ids[(0, action[g][x])] for (g, x) in labels],
        inv=[ids[(-g % order, action[g][x])] for (g, x) in labels],
        compose=compose, blocks=cyclic_action_blocks(order, action))


# -- closed forms ------------------------------------------------------------


def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def bisection_count(blocks) -> int:
    """A bisection of pair(n) x Z/m is a partial injection of the n points
    with a group element per pair: sum_k C(n,k)^2 k! m^k; unions multiply."""
    return prod(sum(comb(n, k) ** 2 * factorial(k) * m ** k
                    for k in range(n + 1)) for n, m in blocks)


def automorphism_count(blocks) -> int:
    """|Aut(pair(n) x Z/m)| = n! m^(n-1) phi(m): a point permutation, the
    images of a spanning tree, an automorphism of the vertex group.  c
    isomorphic blocks contribute c! |Aut(block)|^c.  This gives n! for
    pair(n), p! phi(m)^p for p copies of Z/m and k! 2^k for k copies of
    pair(2)."""
    return prod(factorial(c) * (factorial(n) * m ** (n - 1) * euler_phi(m)) ** c
                for (n, m), c in Counter(blocks).items())


def cocycle_count(blocks, order: int) -> int:
    """Cocycles valued in the order-th roots of unity: per orbit O with
    isotropy Z/m, order^(|O|-1) |Hom(Z/m, Z/order)| = order^(|O|-1) gcd(m, order)."""
    return prod(order ** (n - 1) * gcd(m, order) for n, m in blocks)


def quotient_arrow_count(blocks) -> int:
    """Arrows of the isotropy-collapsed quotient: sum over orbits of |O|^2."""
    return sum(n * n for n, _ in blocks)


def reduced_norm(t: Tables, coeff: np.ndarray) -> float:
    """max over units x of the spectral norm of the left-regular matrix
    L_x[b, c] = f(b c^-1) on the arrows with source x."""
    product = {(a, b): c for a, b, c in t.compose}
    best = 0.0
    for x in t.units:
        fiber = [a for a in range(t.arrow_count) if t.src[a] == x]
        mat = np.array([[coeff[product[(b, t.inv[c])]] for c in fiber]
                        for b in fiber])
        best = max(best, float(np.linalg.norm(mat, 2)))
    return best


# -- homomorphisms -----------------------------------------------------------


@dataclass
class HomCase:
    """A (invariant units, arrow map, twist) triple and its matrix.

    `expected_units`, `expected_map` and `expected_twist` are what
    decomposition must return: the invariant unit ids, and the image and
    twist value of each source arrow over the invariant set, in ascending
    arrow order.  `corrupt` names a deliberate defect the matrix carries."""

    kind: str
    source: Tables
    target: Tables
    entries: np.ndarray
    expected_units: tuple
    expected_map: tuple
    expected_twist: tuple
    surjective: bool
    quotient_arrows: int
    corrupt: str | None = None

    def doc(self) -> dict:
        flat = self.entries.reshape(-1)
        return {"source": self.source.doc(), "target": self.target.doc(),
                "rows": self.target.arrow_count,
                "cols": self.source.arrow_count,
                "entries": [[float(z.real), float(z.imag)] for z in flat]}


def hom_case(kind: str, source_blocks, target_blocks, placement,
             rnd: random.Random, corrupt: str | None = None) -> HomCase:
    """Build a monomial homomorphism matrix.

    `placement` maps a source block to (target block, point offset); source
    blocks it leaves out lie outside the invariant set.  Point i of a placed
    block goes to point perm[i] + offset of its target block, for a random
    permutation perm; the twist is the coboundary of random 12th roots of
    unity on the points times a random non-trivial character of the
    isotropy group.  All target blocks must be principal (m = 1).  With
    `target_blocks=None` the target is the source itself, arrow ids and all."""
    src = block_union(source_blocks, rnd)
    tgt = src if target_blocks is None else block_union(target_blocks, rnd)
    n_t, n_s = tgt.arrow_count, src.arrow_count
    point_map, psi, chi = {}, {}, {}
    for b, (tb, offset) in placement.items():
        n, m = src.blocks[b]
        perm = list(range(n))
        rnd.shuffle(perm)
        for i in range(n):
            point_map[(b, i)] = (tb, perm[i] + offset)
            psi[(b, i)] = rnd.randrange(TWIST_ORDER)
        chi[b] = rnd.randrange(1, m) if m > 1 else 0
    entries = np.zeros((n_t, n_s), dtype=complex)
    image, twist = {}, {}
    for a, (b, i, j, g) in enumerate(src.labels):
        if b not in placement:
            continue
        tb, ti = point_map[(b, i)]
        _, tj = point_map[(b, j)]
        m = src.blocks[b][1]
        image[a] = tgt.ids[(tb, ti, tj, 0)]
        phase = ((psi[(b, i)] - psi[(b, j)]) / TWIST_ORDER + chi[b] * g / m)
        twist[a] = cmath.exp(2j * pi * phase)
        entries[image[a], a] = twist[a]
    inside = sorted(image)
    covered = {image[a] for a in inside}
    case = HomCase(
        kind=kind, source=src, target=tgt, entries=entries,
        expected_units=tuple(u for u in src.units if u in image),
        expected_map=tuple(image[a] for a in inside),
        expected_twist=tuple(twist[a] for a in inside),
        surjective=len(covered) == n_t,
        quotient_arrows=sum(src.blocks[b][0] ** 2 for b in placement),
        corrupt=corrupt)
    if corrupt is not None:
        _corrupt(case, rnd)
    return case


def _corrupt(case: HomCase, rnd: random.Random) -> None:
    """Apply one defect no diagonal-compatible *-homomorphism can have."""
    m = case.entries
    src, tgt = case.source, case.target
    inside = [a for a in range(src.arrow_count) if np.any(m[:, a] != 0)]
    non_units = [a for a in inside if a not in set(src.units)]
    if case.corrupt == "second_nonzero":
        a = rnd.choice(non_units)
        row = rnd.choice([r for r in range(tgt.arrow_count) if m[r, a] == 0])
        m[row, a] = 0.5
    elif case.corrupt == "unit_off_diagonal":
        x = rnd.choice([u for u in src.units if u in inside])
        m[:, x] = 0
        m[rnd.choice([r for r in range(tgt.arrow_count)
                      if r not in set(tgt.units)]), x] = 1.0
    elif case.corrupt == "non_unit_modulus":
        a = rnd.choice(non_units)
        m[:, a] *= 1.5
    else:
        raise ValueError(f"unknown corruption {case.corrupt!r}")


def mutate_inverse(t: Tables, rnd: random.Random) -> dict:
    """A groupoid document with one inverse-table entry redirected; the
    declared inverse then fails the inverse law, so validation must refuse."""
    doc = t.doc()
    a = rnd.randrange(t.arrow_count)
    doc["inv"][a] = rnd.choice([v for v in range(t.arrow_count)
                                if v != t.inv[a]])
    return doc
