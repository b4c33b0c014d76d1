"""The bisection semigroup and its action check, against reference copies
that build the table column by column and check the action law one
(t, x) column at a time.

The references below are the column builder and the column-wise action
check the library used before it built rows and compared one element's
row as a string.  Tables, stars and zeros must come out identical, and a
planted fault must be named by the same witness and message.
"""

import random

import pytest

from etale_kit.errors import ActionError, StructuralError
from etale_kit.families import (
    _cyclic_table,
    disjoint_union,
    group_bundle,
    pair_groupoid,
    transformation_groupoid,
)
from etale_kit.inverse_semigroup import (
    InverseSemigroup,
    SemigroupAction,
    canonical_action,
    enumerate_bisections,
)

# -- reference constructions ---------------------------------------------------


def _gather(seq, indices):
    return tuple(seq[i] for i in indices)


def ref_bisections(g):
    """(sorted arrow tuples, rows, star, zero) of the bisection semigroup,
    the table built column by column in mixed-radix keys and transposed."""
    by_src = g.by_src()
    partial = [((), frozenset())]
    for x in g.units:
        partial += [(arrows + (a,), used | {g.rng[a]})
                    for arrows, used in partial
                    for a in by_src[x] if g.rng[a] not in used]
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
    sink = g.arrow_count
    leaving = {x: [sink] * k for x in g.units}
    for i, arrows in enumerate(found):
        for a in arrows:
            leaving[g.src[a]][i] = a
    term = []
    for b in g.arrows():
        moved = [0] * (sink + 1)
        for a in by_src[g.rng[b]]:
            moved[a] = weight[g.compose[(a, b)]]
        term.append(_gather(moved, leaving[g.rng[b]]))
    columns = [(index[0],) * k]
    for v, key in zip(found[1:], keys[1:]):
        b = v[-1]
        before = _gather(keys, columns[index[key - weight[b]]])
        columns.append(_gather(index, [p + q for p, q in zip(before, term[b])]))
    star = [index[sum(weight[g.inv[a]] for a in arrows)] for arrows in found]
    return found, tuple(zip(*columns)), tuple(star), index[0]


def ref_semigroup_refusal(table, star, zero):
    """The message the semigroup checks refuse a square table with, or None:
    generalized inverses, then idempotent commutation, then the zero, each
    cell by cell."""
    k = len(table)
    for s in range(k):
        generalized = [t for t in range(k)
                       if table[table[s][t]][s] == s and table[table[t][s]][t] == t]
        if generalized != [star[s]]:
            return f"element {s} has generalized inverses {generalized}, declared {star[s]}"
    idem = [s for s in range(k) if table[s][s] == s]
    for e in idem:
        for f in idem:
            if table[e][f] != table[f][e]:
                return f"idempotents {e} and {f} do not commute"
    if zero is not None:
        for s in range(k):
            if table[zero][s] != zero or table[s][zero] != zero:
                return f"declared zero fails at element {s}"
    return None


def ref_composition_failure(semigroup, n_points, maps):
    """The first (s, t) in row-major order with s(t(x)) != (s.t)(x) for some
    point x, found one (t, x) column at a time, or None."""
    k = len(semigroup)
    columns = tuple(zip(*semigroup.table))
    sink = n_points
    at = tuple(zip(*(tuple(m.get(x, sink) for x in range(sink)) + (sink,)
                     for m in maps)))
    failures = []
    for t in range(k):
        column = columns[t]
        for x in range(sink):
            composed, product = at[at[x][t]], _gather(at[x], column)
            if composed != product:
                s = next(s for s in range(k) if composed[s] != product[s])
                failures.append((s, t))
    return min(failures) if failures else None


# -- the cases -----------------------------------------------------------------


def _swap_pairs(points):
    return [list(range(points)), [x ^ 1 if x ^ 1 < points else x for x in range(points)]]


def _rotate_three(points):
    return [[(x + g) % 3 if x < 3 else x for x in range(points)] for g in range(3)]


def symmetry_kinds():
    """The seven groupoids of the symmetry benchmark, from the families."""
    return [
        ("pair(4)", pair_groupoid(4)),
        ("group_bundle([3,3,3,3])", group_bundle([3] * 4)),
        ("3xpair(2)", disjoint_union([pair_groupoid(2)] * 3)),
        ("pair(3)+group_bundle([2,2])",
         disjoint_union([pair_groupoid(3), group_bundle([2, 2])])),
        ("pair(2)+pair(2)+group_bundle([3])",
         disjoint_union([pair_groupoid(2), pair_groupoid(2), group_bundle([3])])),
        ("Z/2 on 5 points", transformation_groupoid(_cyclic_table(2), 5, _swap_pairs(5))),
        ("Z/3 on 4 points", transformation_groupoid(_cyclic_table(3), 4, _rotate_three(4))),
    ]


def copied_action(base, copies):
    """The action of `base`'s semigroup on `copies` disjoint copies of its
    points: point x of copy j is j * n + x."""
    n = base.n_points
    maps = [{j * n + x: j * n + y for j in range(copies) for x, y in m.items()}
            for m in base.maps]
    return base.semigroup, n * copies, maps


def planted_swaps(semigroup, n_points, maps, points_per_copy):
    """Each map with two points in the last copy, with the images of those
    two points swapped: domains and ranges stay, the law breaks."""
    low = n_points - points_per_copy
    for s0, m in enumerate(maps):
        top = [x for x in m if x >= low]
        if len(top) < 2:
            continue
        x1, x2 = top[:2]
        planted = list(maps)
        planted[s0] = {**m, x1: m[x2], x2: m[x1]}
        yield planted


# -- the tests -----------------------------------------------------------------


def test_rows_match_the_column_builder(corpus_and_relabellings, relabel):
    kinds = symmetry_kinds()
    cases = corpus_and_relabellings + kinds
    cases += [(f"{name} relabelled by seed {seed}", relabel(g, seed))
              for name, g in kinds for seed in range(2)]
    for name, g in cases:
        semigroup = enumerate_bisections(g)
        found, rows, star, zero = ref_bisections(g)
        assert [b.arrows for b in semigroup.elements] == found, name
        assert semigroup.table == rows, name
        assert semigroup.star == star, name
        assert semigroup.zero == zero, name
    assert [len(enumerate_bisections(g)) for _, g in kinds] == [209, 256, 343, 306,
                                                                 196, 147, 136]


def test_the_semigroup_keeps_no_transposed_table():
    semigroup = enumerate_bisections(pair_groupoid(2))
    assert not hasattr(semigroup, "columns")


def test_tampered_cells_are_refused_as_the_cell_checks_refuse():
    """One cell of the pair(3) table rewritten at a time, between every two
    idempotents and along the zero's row and column: the first failing check and its
    witness agree with the cell-by-cell reference."""
    semigroup = enumerate_bisections(pair_groupoid(3))
    k, zero, star = len(semigroup), semigroup.zero, semigroup.star
    idem = semigroup.idempotents()
    cells = [(e, f) for e in idem for f in idem if e != f]
    cells += [(zero, s) for s in range(k)] + [(s, zero) for s in range(k)]
    messages = set()
    for s, t in cells:
        for wrong in {semigroup.table[t][s], (semigroup.table[s][t] + 1) % k}:
            if wrong == semigroup.table[s][t]:
                continue
            table = [list(row) for row in semigroup.table]
            table[s][t] = wrong
            expected = ref_semigroup_refusal(table, star, zero)
            if expected is None:
                InverseSemigroup(semigroup.elements, table, star, zero=zero)
                continue
            with pytest.raises(StructuralError) as err:
                InverseSemigroup(semigroup.elements, table, star, zero=zero)
            assert str(err.value) == expected, (s, t, wrong)
            messages.add(expected.split()[0])
    # each of the three checks names a witness at least once
    assert messages == {"element", "idempotents", "declared"}


@pytest.mark.parametrize("g, copies", [
    (pair_groupoid(2), 1),
    (pair_groupoid(3), 1),
    (pair_groupoid(2), 70),    # 140 points: past the ASCII range
    (pair_groupoid(3), 90),    # 270 points: past one byte per point
    (group_bundle([2, 1]), 129),  # 258 points, two unit orbits
])
def test_action_witnesses_match_the_column_check(g, copies):
    base = canonical_action(g)
    semigroup, n_points, maps = copied_action(base, copies)
    assert ref_composition_failure(semigroup, n_points, maps) is None
    SemigroupAction(semigroup, n_points, maps)
    witnesses = set()
    for planted in planted_swaps(semigroup, n_points, maps, base.n_points):
        expected = ref_composition_failure(semigroup, n_points, planted)
        with pytest.raises(ActionError) as err:
            SemigroupAction(semigroup, n_points, planted)
        assert str(err.value) == (
            f"composition law fails at elements ({expected[0]},{expected[1]})")
        witnesses.add(expected)
    assert witnesses


def test_relabelled_actions_check_as_the_column_check(relabel):
    rnd = random.Random(4)
    for seed in range(3):
        g = relabel(pair_groupoid(3), seed)
        action = canonical_action(g)
        maps = list(action.maps)
        for _ in range(10):
            s0 = rnd.randrange(len(maps))
            if len(maps[s0]) < 2:
                continue
            (x1, y1), (x2, y2) = rnd.sample(sorted(maps[s0].items()), 2)
            planted = list(maps)
            planted[s0] = {**maps[s0], x1: y2, x2: y1}
            expected = ref_composition_failure(action.semigroup, action.n_points, planted)
            with pytest.raises(ActionError, match=rf"\({expected[0]},{expected[1]}\)$"):
                SemigroupAction(action.semigroup, action.n_points, planted)


def test_an_action_on_no_points():
    semigroup = enumerate_bisections(pair_groupoid(2))
    maps = [{}] * len(semigroup)
    assert ref_composition_failure(semigroup, 0, maps) is None
    action = SemigroupAction(semigroup, 0, maps)
    assert action.n_points == 0
    with pytest.raises(ActionError,
                       match=r"map of element 1 point id is 0, not an int in 0\.\.-1"):
        SemigroupAction(semigroup, 0, [{}, {0: 0}] + maps[2:])


# -- the key-arithmetic row builder ---------------------------------------------
#
# The bisection table used to be built row by row in keys: the row of u is the
# row of u' (u without its last arrow a) plus the weights of a composed with
# each element's arrow entering src a, with one addition and one dict lookup
# per cell.  The library now composes rows from a few made this way; the
# composed table must be this one.


def ref_key_rows(g):
    """(sorted arrow tuples, rows, star, zero) of the bisection semigroup,
    every row made in keys from the row of its prefix."""
    by_src, by_rng = g.by_src(), g.by_rng()
    partial = [((), frozenset())]
    for x in g.units:
        partial += [(arrows + (a,), used | {g.rng[a]})
                    for arrows, used in partial
                    for a in by_src[x] if g.rng[a] not in used]
    found = sorted(tuple(sorted(arrows)) for arrows, _ in partial)
    k = len(found)
    weight = [0] * g.arrow_count
    place = 1
    for x in g.units:
        for slot, a in enumerate(by_src[x], 1):
            weight[a] = slot * place
        place *= len(by_src[x]) + 1
    index = {sum(weight[a] for a in arrows): i for i, arrows in enumerate(found)}
    sink = g.arrow_count
    entering = {y: [sink] * k for y in g.units}
    for i, arrows in enumerate(found):
        for b in arrows:
            entering[g.rng[b]][i] = b
    term = []
    for a in g.arrows():
        moved = [0] * (sink + 1)
        for b in by_rng[g.src[a]]:
            moved[b] = weight[g.compose[(a, b)]]
        term.append(_gather(moved, entering[g.src[a]]))
    rows = [(index[0],) * k]
    row_keys = [(0,) * k]
    for u in found[1:]:
        row_keys[len(u):] = [tuple(p + q for p, q in zip(row_keys[len(u) - 1], term[u[-1]]))]
        rows.append(_gather(index, row_keys[-1]))
    star = [index[sum(weight[g.inv[a]] for a in arrows)] for arrows in found]
    return found, tuple(rows), tuple(star), index[0]


def key_row_cases(corpus_and_relabellings, relabel):
    kinds = symmetry_kinds()
    return (corpus_and_relabellings
            + [(f"{name} relabelled by seed {seed}", relabel(g, seed))
               for name, g in kinds for seed in range(2)]
            + [(f"group_bundle([1]*{n})", group_bundle([1] * n)) for n in range(11)]
            + [(f"pair({n})", pair_groupoid(n)) for n in range(1, 5)]
            + [("pair(3) and an isolated unit",
                disjoint_union([pair_groupoid(3), pair_groupoid(1)]))])


def test_composed_rows_match_the_key_rows(corpus_and_relabellings, relabel):
    for name, g in key_row_cases(corpus_and_relabellings, relabel):
        semigroup = enumerate_bisections(g)
        found, rows, star, zero = ref_key_rows(g)
        assert [b.arrows for b in semigroup.elements] == found, name
        assert semigroup.table == rows, name
        assert semigroup.star == star, name
        assert semigroup.zero == zero, name
    # only idempotents and no swaps, 2**10 of them
    assert len(enumerate_bisections(group_bundle([1] * 10))) == 1024
