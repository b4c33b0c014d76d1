"""Bisections, the inverse semigroup laws, actions, and germ groupoids."""

import gc
from collections import Counter
from itertools import combinations
from math import comb, factorial

import numpy
import pytest

from etale_kit.errors import ActionError, CapExceeded, StructuralError
from etale_kit.families import cyclic_groupoid, disjoint_union, group_bundle, pair_groupoid
from etale_kit.groupoid import FiniteGroupoid, validation_report
from etale_kit.inverse_semigroup import (
    Bisection,
    InverseSemigroup,
    SemigroupAction,
    bisection_inverse,
    bisection_product,
    canonical_action,
    canonical_germ_iso,
    enumerate_bisections,
    germ_groupoid,
)


def partial_injection_count(n):
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def bisections_bruteforce(g):
    """All arrow subsets with injective src and rng, found by direct filtering."""
    out = []
    for size in range(g.arrow_count + 1):
        for subset in combinations(range(g.arrow_count), size):
            srcs = [g.src[a] for a in subset]
            rngs = [g.rng[a] for a in subset]
            if len(set(srcs)) == len(subset) and len(set(rngs)) == len(subset):
                out.append(subset)
    return sorted(out)


def test_bisection_validation(r2_hand):
    Bisection(r2_hand, (0, 1))
    Bisection(r2_hand, (2, 3))
    with pytest.raises(StructuralError):
        Bisection(r2_hand, (0, 2))  # shared range at point 1
    with pytest.raises(StructuralError):
        Bisection(r2_hand, (0, 3))  # shared source at point 1


def test_enumeration_matches_bruteforce(r2_hand, z2_hand, bundle_hand,
                                        corpus_and_relabellings):
    small = [g for _, g in corpus_and_relabellings if g.arrow_count <= 12]
    for g in (r2_hand, z2_hand, bundle_hand, cyclic_groupoid(3), *small):
        semigroup = enumerate_bisections(g)
        got = sorted(b.arrows for b in semigroup.elements)
        assert got == bisections_bruteforce(g)


def test_table_and_star_match_the_pairwise_definition(corpus_and_relabellings):
    """u.v = {a.b : a in u, b in v, src a = rng b} and u* = {inv a : a in u}."""
    for name, g in corpus_and_relabellings:
        if g.arrow_count > 7:
            continue
        semigroup = enumerate_bisections(g)
        elements = [set(b.arrows) for b in semigroup.elements]
        for s, u in enumerate(elements):
            assert elements[semigroup.star[s]] == {g.inv[a] for a in u}, (name, s)
            for t, v in enumerate(elements):
                product = {g.compose[(a, b)] for a in u for b in v if g.src[a] == g.rng[b]}
                assert elements[semigroup.mul(s, t)] == product, (name, s, t)


def test_partial_injection_counts():
    for n in (1, 2, 3):
        assert len(enumerate_bisections(pair_groupoid(n))) == partial_injection_count(n)


def test_small_examples(z2_hand):
    assert len(enumerate_bisections(z2_hand)) == 3
    assert len(enumerate_bisections(pair_groupoid(1))) == 2


def test_product_examples(r2_hand):
    u = Bisection(r2_hand, (2,))   # the arrow (1,2)
    v = Bisection(r2_hand, (3,))   # the arrow (2,1)
    assert bisection_product(u, v).arrows == (0,)
    empty = Bisection(r2_hand, ())
    assert bisection_product(u, empty).arrows == ()
    ident = Bisection(r2_hand, (0, 1))
    for b in enumerate_bisections(r2_hand).elements:
        assert bisection_product(ident, b).arrows == b.arrows
        assert bisection_product(b, ident).arrows == b.arrows
    assert bisection_product(u, bisection_product(bisection_inverse(u), u)).arrows == u.arrows


def test_product_rejects_mixed_groupoids(r2_hand, z2_hand):
    with pytest.raises(StructuralError):
        bisection_product(Bisection(r2_hand, (0,)), Bisection(z2_hand, (0,)))


def test_inverse_semigroup_laws(corpus):
    for name, g in corpus:
        if g.arrow_count > 7:
            continue
        semigroup = enumerate_bisections(g)
        k = len(semigroup)
        # associativity, unique generalized inverses, commuting idempotents
        for s in range(k):
            for t in range(k):
                st = semigroup.mul(s, t)
                for u in range(k):
                    assert semigroup.mul(st, u) == semigroup.mul(s, semigroup.mul(t, u)), name
        idem = semigroup.idempotents()
        for e in idem:
            for f in idem:
                assert semigroup.mul(e, f) == semigroup.mul(f, e), name
        assert semigroup.zero is not None


def test_idempotents_are_unit_subsets(corpus):
    for name, g in corpus:
        if g.arrow_count > 9:
            continue
        semigroup = enumerate_bisections(g)
        for i, b in enumerate(semigroup.elements):
            assert (i in semigroup.idempotents()) == (set(b.arrows) <= g.unit_set), name


def test_duplicate_inverse_table_is_rejected():
    # a two-element semilattice with a corrupted star table
    table = [[0, 0], [0, 1]]
    with pytest.raises(StructuralError):
        InverseSemigroup(["0", "1"], table, [1, 0])


def test_every_generalized_inverse_is_named():
    # a left-zero semigroup (x.y = x): each element is a generalized inverse
    # of each, so a star that picks one of them is still refused
    with pytest.raises(StructuralError) as err:
        InverseSemigroup(["a", "b"], [[0, 0], [1, 1]], [0, 1])
    assert str(err.value) == "element 0 has generalized inverses [0, 1], declared 0"


@pytest.mark.parametrize("zero", [5, 1, -1])
def test_a_zero_outside_the_elements_is_refused(zero):
    with pytest.raises(StructuralError, match=f"declared zero is {zero}, not an int in 0..0"):
        InverseSemigroup(["a"], [[0]], [0], zero=zero)


@pytest.mark.parametrize("n_points", [-1, 0x110000])
def test_a_point_count_outside_the_code_points_is_refused(n_points):
    semigroup = enumerate_bisections(pair_groupoid(1))
    with pytest.raises(ActionError,
                       match=f"point count is {n_points}, not an int in 0..1114111"):
        SemigroupAction(semigroup, n_points, [{}, {}])


@pytest.mark.parametrize("unit_map", [{0.0: 0.0}, {0.0: 0}, {0: 0.0}, {"0": 0}])
def test_a_point_id_that_is_not_an_int_is_refused(unit_map):
    # a float id in range passes the range, injectivity and domain checks
    semigroup = enumerate_bisections(pair_groupoid(1))
    point = next(x for x in [*unit_map, *unit_map.values()] if type(x) is not int)
    with pytest.raises(ActionError) as err:
        SemigroupAction(semigroup, 1, [{}, unit_map])
    assert str(err.value) == f"map of element 1 point id is {point!r}, not an int in 0..0"


def test_cap_refusal():
    with pytest.raises(CapExceeded):
        enumerate_bisections(pair_groupoid(3), cap=5)


def test_element_bound_refusal():
    # 11 units with trivial isotropy: every unit subset is a bisection, 2**11 in all
    with pytest.raises(CapExceeded, match="bisection enumeration needs 2048 bisections, "
                       "over the budget of 1024"):
        enumerate_bisections(group_bundle([1] * 11))


def test_canonical_action_is_validated(corpus):
    for name, g in corpus:
        if g.arrow_count > 9:
            continue
        action = canonical_action(g)
        assert action.n_points == len(g.units), name


def test_action_rejects_composition_violation(z2_hand):
    semigroup = enumerate_bisections(z2_hand)  # elements (), (e), (g)
    # pretend the nontrivial bisection acts as the identity only on a bad domain
    maps = [dict(), {0: 0}, {}]
    with pytest.raises(ActionError):
        SemigroupAction(semigroup, 1, maps)


def _first_composition_failure(semigroup, maps):
    """The first (s, t) in row-major order at which s(t(x)) and (s.t)(x)
    differ for some point x, found by composing the maps as dicts."""
    k = len(semigroup)
    for s in range(k):
        for t in range(k):
            composed = {x: maps[s][y] for x, y in maps[t].items() if y in maps[s]}
            if composed != maps[semigroup.mul(s, t)]:
                return s, t
    return None


def test_action_names_the_first_failing_pair_on_pair3():
    action = canonical_action(pair_groupoid(3))
    semigroup = action.semigroup
    assert len(semigroup) == 34
    witnesses = set()
    for s0, m in enumerate(action.maps):
        if len(m) < 2 or s0 in semigroup.idempotents():
            continue
        # one wrong map: the same domain and range, two images swapped
        (x1, y1), (x2, y2) = list(m.items())[:2]
        maps = list(action.maps)
        maps[s0] = {**m, x1: y2, x2: y1}
        expected = _first_composition_failure(semigroup, maps)
        with pytest.raises(ActionError) as err:
            SemigroupAction(semigroup, action.n_points, maps)
        assert str(err.value) == (
            f"composition law fails at elements ({expected[0]},{expected[1]})")
        witnesses.add(expected)
    assert len(witnesses) >= 10


def test_semigroup_names_a_wrong_star_entry_on_pair3():
    semigroup = enumerate_bisections(pair_groupoid(3))
    table, k = semigroup.table, len(semigroup)
    for s0 in range(k):
        star = list(semigroup.star)
        star[s0] = wrong = (star[s0] + 1) % k
        generalized = [t for t in range(k)
                       if table[table[s0][t]][s0] == s0
                       and table[table[t][s0]][t] == t]
        with pytest.raises(StructuralError) as err:
            InverseSemigroup(semigroup.elements, [list(row) for row in table],
                             star, zero=semigroup.zero)
        assert str(err.value) == (
            f"element {s0} has generalized inverses {generalized}, declared {wrong}")


def test_semigroup_names_the_first_element_a_wrong_product_breaks():
    semigroup = enumerate_bisections(pair_groupoid(3))
    k = len(semigroup)
    named = 0
    for s0 in range(1, k, 3):
        # a wrong s.s* breaks s.s*.s = s
        table = [list(row) for row in semigroup.table]
        t0 = semigroup.star[s0]
        table[s0][t0] = (table[s0][t0] + 7) % k
        failing = [(s, generalized) for s in range(k)
                   for generalized in [[t for t in range(k)
                                        if table[table[s][t]][s] == s
                                        and table[table[t][s]][t] == t]]
                   if generalized != [semigroup.star[s]]]
        if not failing:
            continue
        s, generalized = failing[0]
        with pytest.raises(StructuralError) as err:
            InverseSemigroup(semigroup.elements, table, semigroup.star)
        assert str(err.value) == (f"element {s} has generalized inverses "
                                  f"{generalized}, declared {semigroup.star[s]}")
        named += 1
    assert named >= 5


def _ints_and_groupoids(value) -> bool:
    """Whether `value` holds, through tuples and dicts, only ints, None and
    groupoids, none of which refers back to a groupoid's cache."""
    if isinstance(value, dict):
        return all(map(_ints_and_groupoids, (*value, *value.values())))
    if isinstance(value, tuple):
        return all(map(_ints_and_groupoids, value))
    return value is None or isinstance(value, (int, FiniteGroupoid))


def test_dropped_groupoid_is_freed_without_the_cycle_collector():
    from etale_kit.cocycles import enumerate_cocycles
    from etale_kit.cstar import (
        AlgebraElement, is_normalizer, reduced_norm, slice_of_bisection, slice_product)
    from etale_kit.decomposition import enumerate_decomposition_data
    from etale_kit.groupoid import enumerate_automorphisms, orbits, restrict
    gc.collect()
    gc.disable()
    try:
        g = pair_groupoid(3)
        semigroup = enumerate_bisections(g)
        assert enumerate_bisections(g) is semigroup  # reused while held
        canonical_germ_iso(g)
        # the algebra layer caches only index arrays on the groupoid
        f = AlgebraElement(g, [1.0 if g.is_unit(a) else 0.0 for a in g.arrows()])
        reduced_norm(f)
        is_normalizer(f)
        m = slice_of_bisection(semigroup.elements[-1])
        slice_product(m, m)
        # restrictions, and cocycle exponents on both sides of one
        bundle = disjoint_union([g, cyclic_groupoid(2)])
        sub = restrict(bundle, (9,))
        enumerate_cocycles(bundle, 2)
        enumerate_cocycles(sub, 2)
        triples = list(enumerate_decomposition_data(bundle, g, 2))
        assert any(t.hom.domain is sub for t in triples)
        # the orbit tier and a completed search keep only ints and groupoids
        h = disjoint_union([pair_groupoid(2), cyclic_groupoid(3)])
        orbits(h)
        assert len(enumerate_automorphisms(h)) == 4
        assert all(map(_ints_and_groupoids, h._cache.values()))
        del g, semigroup, f, m, bundle, sub, triples, h
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_germ_groupoid_counts(r2_hand, z2_hand):
    germs = germ_groupoid(canonical_action(r2_hand))
    assert germs.groupoid.arrow_count == 4
    germs2 = germ_groupoid(canonical_action(z2_hand))
    assert germs2.groupoid.arrow_count == 2


def test_semilattice_action_gives_unit_only_groupoid(r2_hand):
    full = enumerate_bisections(r2_hand)
    keep = [i for i, b in enumerate(full.elements) if set(b.arrows) <= r2_hand.unit_set]
    elements = [full.elements[i] for i in keep]
    index = {b.arrows: j for j, b in enumerate(elements)}
    table = [[index[bisection_product(u, v).arrows] for v in elements]
             for u in elements]
    star = [index[bisection_inverse(u).arrows] for u in elements]
    semilattice = InverseSemigroup(elements, table, star, zero=index[()])
    unit_pos = {u: i for i, u in enumerate(r2_hand.units)}
    maps = [{unit_pos[r2_hand.src[a]]: unit_pos[r2_hand.rng[a]] for a in b.arrows}
            for b in elements]
    germs = germ_groupoid(SemigroupAction(semilattice, 2, maps))
    assert germs.groupoid.arrow_count == 2
    assert germs.groupoid.units == (0, 1)


def test_germ_groupoid_always_validates(corpus):
    for name, g in corpus:
        germs = germ_groupoid(canonical_action(g))
        assert validation_report(germs.groupoid).ok, name


def _germ_classes_bruteforce(action):
    """Partition the (element, point) pairs by the direct germ relation:
    (s, x) ~ (t, x) when some idempotent domain containing x equalizes them."""
    sg = action.semigroup
    idem = sg.idempotents()
    pairs = [(s, x) for s in range(len(sg)) for x in action.maps[s]]
    classes = []
    for s, x in pairs:
        for cls in classes:
            t, y = cls[0]
            if y == x and any(x in action.maps[e]
                              and sg.mul(s, e) == sg.mul(t, e) for e in idem):
                cls.append((s, x))
                break
        else:
            classes.append([(s, x)])
    return sorted(tuple(sorted(c)) for c in classes)


def test_germ_classes_match_direct_equivalence(r2_hand, z2_hand, bundle_hand):
    for g in (r2_hand, z2_hand, bundle_hand, cyclic_groupoid(3)):
        action = canonical_action(g)
        germs = germ_groupoid(action)
        expected = _germ_classes_bruteforce(action)
        assert germs.groupoid.arrow_count == len(expected)
        # every class member lands on the class of its least representative
        for cls in expected:
            arrow_ids = {germs.arrow_of(s, x) for (s, x) in cls}
            assert len(arrow_ids) == 1
            assert germs.reps[arrow_ids.pop()] == cls[0]


def test_canonical_iso_on_corpus(corpus):
    for name, g in corpus:
        iso = canonical_germ_iso(g)
        assert iso.is_bijective(), name
        assert iso.codomain == g, name


def test_selftest_builds_each_semigroup_once(monkeypatch):
    # the library makes every semigroup in `enumerate_bisections`, without
    # the public constructor, through the module's `_unchecked`
    from etale_kit import inverse_semigroup
    from etale_kit.selftest import run_selftest
    built = []
    unchecked = inverse_semigroup._unchecked

    def counting(cls, **fields):
        if cls is InverseSemigroup:
            built.append(fields["elements"][0].groupoid)  # held, so that no id is reused
        return unchecked(cls, **fields)

    monkeypatch.setattr(inverse_semigroup, "_unchecked", counting)
    assert all(check["pass"] for check in run_selftest(7, 16))
    assert len(built) == 20
    assert max(Counter(map(id, built)).values()) == 1


def test_selftest_propagates_a_fault_in_bisection(monkeypatch):
    # only a StructuralError means "not a bisection"; any other error is a bug
    from etale_kit import selftest

    def broken(g, arrows):
        raise TypeError("broken Bisection")

    monkeypatch.setattr(selftest, "Bisection", broken)
    with pytest.raises(TypeError, match="broken Bisection"):
        selftest.run_selftest(7, 9)


@pytest.mark.parametrize("table, star, message", [
    ([[0, 0], [0, 7]], [0, 1], "product of elements (1,1) is 7, not an int in 0..1"),
    ([(0, 0), (0, -1)], [0, 1], "product of elements (1,1) is -1, not an int in 0..1"),
    ([(0, 0), (0, 1.0)], [0, 1], "product of elements (1,1) is 1.0, not an int in 0..1"),
    ([[0, 0], [0, 1.7]], [0, 1], "product of elements (1,1) is 1.7, not an int in 0..1"),
    ([(0, "0"), (0, 1)], [0, 1], "product of elements (0,1) is '0', not an int in 0..1"),
    ([(0, 0), (0, 1)], [0, 1.2], "star of element 1 is 1.2, not an int in 0..1"),
    ([[0, 0], [0, 1.7]], [0, 1.2], "star of element 1 is 1.2, not an int in 0..1"),
    ([(0, 0), (0, 1)], [-1, 1], "star of element 0 is -1, not an int in 0..1"),
])
def test_an_entry_that_is_not_an_element_is_refused(table, star, message):
    with pytest.raises(StructuralError) as err:
        InverseSemigroup(["0", "1"], table, star)
    assert str(err.value) == message


def test_a_zero_that_is_not_an_int_is_refused():
    with pytest.raises(StructuralError, match="declared zero is 0.0, not an int in 0..1"):
        InverseSemigroup(["0", "1"], [[0, 0], [0, 1]], [0, 1], zero=0.0)


def test_list_and_tuple_rows_give_one_table():
    semigroup = enumerate_bisections(pair_groupoid(2))
    rows = [list(row) for row in semigroup.table]
    again = InverseSemigroup(semigroup.elements, rows, list(semigroup.star), zero=semigroup.zero)
    assert again.table == semigroup.table and again.star == semigroup.star


def test_a_point_count_that_is_not_an_int_is_refused():
    semigroup = enumerate_bisections(pair_groupoid(1))
    with pytest.raises(ActionError, match="point count is 2.9, not an int in 0..1114111"):
        SemigroupAction(semigroup, 2.9, [{}, {0: 0, 1: 1}])


@pytest.mark.parametrize("planted, message", [
    ({5: {1: 0, 0: 1.0}}, "map of element 5 point id is 1.0, not an int in 0..1"),
    ({4: {1: 2}}, "map of element 4 point id is 2, not an int in 0..1"),
    ({4: {-1: 0}}, "map of element 4 point id is -1, not an int in 0..1"),
    ({5: {1: 0, 0: 0}}, "map of element 5 is not injective"),
    ({4: {0: 0}}, "domain of element 4 differs from dom(s*s)"),
    ({4: {1: 1}}, "range of element 4 differs from dom(ss*)"),
    # every map's points are checked before any map's domain and range
    ({4: {0: 0}, 6: {0: 1.0}}, "map of element 6 point id is 1.0, not an int in 0..1"),
    ({4: {0: 0}, 5: {1: 0, 0: 0}}, "map of element 5 is not injective"),
])
def test_the_per_map_checks_name_the_first_map_at_fault(planted, message):
    # pair(2): 4 = {1 -> 0}, 5 = {1 -> 0, 0 -> 1} and 6 = {0 -> 1} = 4*
    action = canonical_action(pair_groupoid(2))
    maps = [planted.get(s, m) for s, m in enumerate(action.maps)]
    with pytest.raises(ActionError) as err:
        SemigroupAction(action.semigroup, action.n_points, maps)
    assert str(err.value) == message


@pytest.mark.parametrize("as_int", [bool, numpy.int64])
def test_every_entry_point_takes_what_indexes_a_tuple_as_an_int(as_int):
    # pair(1): the elements () and (0,), on one point; every entry is 0 or 1
    action = canonical_action(pair_groupoid(1))
    semigroup = action.semigroup
    again = InverseSemigroup(semigroup.elements,
                             [list(map(as_int, row)) for row in semigroup.table],
                             list(map(as_int, semigroup.star)), zero=as_int(semigroup.zero))
    assert again.table == semigroup.table and again.star == semigroup.star
    moved = SemigroupAction(again, as_int(1), [{as_int(x): as_int(y) for x, y in m.items()}
                                               for m in action.maps])
    assert moved.n_points == 1 and type(moved.n_points) is int
