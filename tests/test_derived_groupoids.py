"""Every groupoid the library derives, against reference constructions that
write each table out with its own id map and compose loop.

The references below build the families, restrictions, isotropy quotients
and germ groupoids as explicit tables through the public `FiniteGroupoid`
constructor.  The library makes the same groupoids from their defining
formulas through one labelled-arrow builder; the arrow ids, every table,
and the germ representatives and lookup must come out identical.
"""

from itertools import permutations

import pytest

from etale_kit import io as kio
from etale_kit.families import (
    _cyclic_table,
    cyclic_groupoid,
    disjoint_union,
    group_bundle,
    group_inverses,
    pair_groupoid,
    standard_corpus,
    transformation_groupoid,
)
from etale_kit.groupoid import (
    FiniteGroupoid,
    invariant_subsets,
    quotient_by_isotropy,
    _restriction,
    restrict,
)
from etale_kit.inverse_semigroup import canonical_action, germ_groupoid

# -- reference constructions ---------------------------------------------------


def ref_pair(n):
    pairs = [(i, i) for i in range(n)]
    pairs += sorted((i, j) for i in range(n) for j in range(n) if i != j)
    idx = {p: a for a, p in enumerate(pairs)}
    compose = {}
    for (i, j) in pairs:
        for (jj, k) in pairs:
            if j == jj:
                compose[(idx[(i, j)], idx[(j, k)])] = idx[(i, k)]
    return FiniteGroupoid(len(pairs), range(n), [idx[(j, j)] for (i, j) in pairs],
                          [idx[(i, i)] for (i, j) in pairs], compose,
                          [idx[(j, i)] for (i, j) in pairs])


def ref_cyclic(n):
    compose = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    return FiniteGroupoid(n, [0], [0] * n, [0] * n, compose, [(-a) % n for a in range(n)])


def ref_bundle(orders):
    labels = [(p, 0) for p in range(len(orders))]
    labels += [(p, k) for p in range(len(orders)) for k in range(1, orders[p])]
    idx = {lab: a for a, lab in enumerate(labels)}
    src = [idx[(p, 0)] for (p, k) in labels]
    compose = {}
    for (p, k) in labels:
        for l in range(orders[p]):
            compose[(idx[(p, k)], idx[(p, l)])] = idx[(p, (k + l) % orders[p])]
    return FiniteGroupoid(len(labels), range(len(orders)), src, src, compose,
                          [idx[(p, (-k) % orders[p])] for (p, k) in labels])


def ref_transformation(table, n_points, action):
    k = len(table)
    ginv = group_inverses(table)
    assert all(action[0][x] == x for x in range(n_points))
    assert all(action[g][action[h][x]] == action[table[g][h]][x]
               for g in range(k) for h in range(k) for x in range(n_points))
    labels = [(0, x) for x in range(n_points)]
    labels += [(g, x) for g in range(1, k) for x in range(n_points)]
    idx = {lab: a for a, lab in enumerate(labels)}
    compose = {}
    for (g, y) in labels:
        for (h, x) in labels:
            if action[h][x] == y:
                compose[(idx[(g, y)], idx[(h, x)])] = idx[(table[g][h], x)]
    return FiniteGroupoid(len(labels), range(n_points),
                          [idx[(0, x)] for (g, x) in labels],
                          [idx[(0, action[g][x])] for (g, x) in labels], compose,
                          [idx[(ginv[g], action[g][x])] for (g, x) in labels])


def ref_union(parts):
    units, src, rng, inv, compose = [], [], [], [], {}
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


def ref_restriction(g, f):
    keep = [a for a in g.arrows() if g.src[a] in set(f)]
    new_id = {a: i for i, a in enumerate(keep)}
    return tuple(keep), FiniteGroupoid(
        len(keep), [new_id[x] for x in f],
        [new_id[g.src[a]] for a in keep], [new_id[g.rng[a]] for a in keep],
        {(new_id[a], new_id[b]): new_id[c]
         for (a, b), c in g.compose.items() if a in new_id and b in new_id},
        [new_id[g.inv[a]] for a in keep])


def ref_quotient(g):
    buckets = {}
    for a in g.arrows():
        buckets.setdefault((g.src[a], g.rng[a]), []).append(a)
    cls_of = [0] * g.arrow_count
    for i, bucket in enumerate(buckets.values()):
        for a in bucket:
            cls_of[a] = i
    reps = [bucket[0] for bucket in buckets.values()]
    quotient = FiniteGroupoid(
        len(reps), {cls_of[x] for x in g.units},
        [cls_of[g.src[r]] for r in reps], [cls_of[g.rng[r]] for r in reps],
        {(cls_of[a], cls_of[b]): cls_of[c] for (a, b), c in g.compose.items()},
        [cls_of[g.inv[r]] for r in reps])
    return quotient, tuple(cls_of)


def ref_germ(action):
    """The germ groupoid, its representatives and its lookup, with the
    compose table scanned over every pair of representatives."""
    sg = action.semigroup
    min_idem = []
    for x in range(action.n_points):
        ex = None
        for e in sg.idempotents():
            if x in action.maps[e]:
                ex = e if ex is None else sg.mul(ex, e)
        min_idem.append(ex)
    least = {}
    for s in range(len(sg)):
        for x in action.maps[s]:
            least.setdefault((sg.mul(s, min_idem[x]), x), s)
    keys = sorted(least, key=lambda key: (least[key], key[1]))
    reps = [(least[key], key[1]) for key in keys]
    arrow_of = {key: i for i, key in enumerate(keys)}

    def germ(s, x):
        return arrow_of[(sg.mul(s, min_idem[x]), x)]

    n = len(reps)
    unit_arrow = {x: germ(min_idem[x], x) for x in range(action.n_points)}
    src, rng, inv = [0] * n, [0] * n, [0] * n
    for i, (s, x) in enumerate(reps):
        src[i] = unit_arrow[x]
        rng[i] = unit_arrow[action.maps[s][x]]
        inv[i] = germ(sg.star[s], action.maps[s][x])
    compose = {}
    for i, (s, y) in enumerate(reps):
        for j, (t, x) in enumerate(reps):
            if action.maps[t][x] == y:
                compose[(i, j)] = germ(sg.mul(s, t), x)
    g = FiniteGroupoid(n, sorted(unit_arrow.values()), src, rng, compose, inv)
    return g, tuple(reps), arrow_of


# -- the cases -----------------------------------------------------------------


def _s3():
    """S3 acting on three points: its table with the identity first."""
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    return table, 3, [list(p) for p in perms]


TRANSFORMATIONS = [
    (_cyclic_table(2), 2, [[0, 1], [1, 0]]),
    (_cyclic_table(2), 3, [[0, 1, 2], [1, 0, 2]]),
    (_cyclic_table(4), 4, [[(g + x) % 4 for x in range(4)] for g in range(4)]),
    (_cyclic_table(4), 2, [[(g + x) % 2 for x in range(2)] for g in range(4)]),
    (_cyclic_table(3), 2, [[0, 1]] * 3),
    _s3(),
]
BUNDLES = [[2, 1], [2, 2, 1], [3, 2], [1] * 5, [2, 3, 1, 4]]
# the unions of the standard corpus, and one of four blocks
UNIONS = [
    [ref_pair(2), ref_cyclic(2)],
    [ref_pair(2), ref_pair(1)],
    [ref_bundle([2, 1]), ref_pair(2)],
    [ref_pair(2), ref_cyclic(3), ref_bundle([2, 1]), ref_pair(1)],
]


def family_cases():
    """(name, built by the library, built by the references)."""
    cases = [(f"pair({n})", pair_groupoid(n), ref_pair(n)) for n in range(9)]
    cases += [(f"cyclic_group({n})", cyclic_groupoid(n), ref_cyclic(n)) for n in range(1, 9)]
    cases += [(f"group_bundle({o})", group_bundle(o), ref_bundle(o)) for o in BUNDLES]
    cases += [(f"transformation#{i}", transformation_groupoid(*t), ref_transformation(*t))
              for i, t in enumerate(TRANSFORMATIONS)]
    cases += [(f"union#{i}", disjoint_union(parts), ref_union(parts))
              for i, parts in enumerate(UNIONS)]
    return cases


def _doc(g):
    return kio.canonical_json(kio.groupoid_to_doc(g))


def bases():
    """Every groupoid the derived constructions below start from: the
    families above, which hold every member of the standard corpus."""
    return [g for _, g, _ in family_cases()]


# -- the tests -----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_cyclic_group_is_the_one_fiber_bundle(n):
    assert cyclic_groupoid(n) == group_bundle([n]) == ref_cyclic(n)


def test_every_family_matches_its_reference():
    cases = family_cases()
    for name, built, reference in cases:
        assert _doc(built) == _doc(reference), name
        assert built == reference, name
    assert {_doc(g) for _, g in standard_corpus()} <= {_doc(g) for _, g, _ in cases}


def test_every_restriction_and_quotient_matches_its_reference():
    count = 0
    for g in bases():
        quotient, collapse = quotient_by_isotropy(g)
        ref_q, ref_collapse = ref_quotient(g)
        assert _doc(quotient) == _doc(ref_q)
        assert collapse.mapping == ref_collapse
        count += 1
        for f in invariant_subsets(g):
            keep, ref_r = ref_restriction(g, f)
            assert _doc(restrict(g, f)) == _doc(ref_r)
            assert _restriction(g, f) == (keep, restrict(g, f))
            count += 1
    assert count == 193


def test_every_germ_groupoid_matches_its_reference():
    count = 0
    for g in bases():
        if g.arrow_count > 12:
            continue
        action = canonical_action(g)
        germs = germ_groupoid(action)
        ref_g, ref_reps, ref_lookup = ref_germ(action)
        assert _doc(germs.groupoid) == _doc(ref_g)
        assert germs.reps == ref_reps
        assert list(germs._lookup.items()) == list(ref_lookup.items())
        count += 1
    assert count == 25
