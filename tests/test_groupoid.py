"""Axiom validation, isotropy, invariant subsets, restriction, quotients, homs."""

import random
import time
from itertools import permutations

import numpy as np
import pytest

from etale_kit.cocycles import enumerate_cocycles, trivial_cocycle
from etale_kit.decomposition import DecompositionData, build_hom, decompose
from etale_kit.errors import (
    ActionError,
    CapExceeded,
    HomomorphismError,
    HypothesisError,
    StructuralError,
)
from etale_kit.families import (
    cyclic_groupoid,
    disjoint_union,
    group_bundle,
    pair_groupoid,
)
from etale_kit.groupoid import (
    FiniteGroupoid,
    GroupoidHom,
    Violation,
    compose_homs,
    enumerate_automorphisms,
    enumerate_homomorphisms,
    identity_hom,
    invariant_subsets,
    is_effective,
    isotropy_interior,
    orbits,
    quotient_by_isotropy,
    _restriction,
    restrict,
    validation_report,
)
from etale_kit.mutate import _mutant, _mutation_specs, enumerate_mutations, sample_mutations
from test_cocycles import _one_unit, _q8_table


def test_hand_built_pair_groupoid_passes(r2_hand):
    assert validation_report(r2_hand).ok


def test_unit_with_wrong_source_is_an_axiom1_violation(r2_hand):
    broken = FiniteGroupoid(4, [0, 1], [1, 1, 1, 0], r2_hand.rng,
                            r2_hand.compose, r2_hand.inv)
    report = validation_report(broken)
    assert not report.ok
    assert any(v.axiom == "axiom1_units" and v.witness == (0,)
               for v in report.violations)


def test_corrupted_association_entry_names_the_triple(r2_hand):
    # rewrite (1,2)(2,1) = (1,1) into (2,2): endpoints still match, so only
    # the identity/associativity/inverse layers can object
    compose = dict(r2_hand.compose)
    compose[(2, 3)] = 1
    broken = FiniteGroupoid(4, [0, 1], r2_hand.src, r2_hand.rng, compose, r2_hand.inv)
    report = validation_report(broken)
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert axioms & {"axiom4_associativity", "axiom5_inverse"}


def test_pure_associativity_violation_carries_a_triple_witness():
    # in Z/4 all arrows are parallel, so rewriting g.g^2 = g^3 into g leaves
    # endpoints, identities and declared inverses intact; only associativity
    # (and inverse uniqueness) can notice
    z4 = cyclic_groupoid(4)
    compose = dict(z4.compose)
    compose[(1, 2)] = 1
    broken = FiniteGroupoid(4, [0], z4.src, z4.rng, compose, z4.inv)
    report = validation_report(broken)
    assert not report.ok
    quads = [v for v in report.violations if v.axiom == "axiom4_associativity"]
    assert quads and len(quads[0].witness) == 3


def test_out_of_range_id_is_structural_not_axiomatic(r2_hand):
    with pytest.raises(StructuralError):
        FiniteGroupoid(4, [0, 1], [0, 1, 1, 7], r2_hand.rng,
                       r2_hand.compose, r2_hand.inv)


# Z/2 as tables: arrow 0 = e, arrow 1 = g
_Z2 = {"arrow_count": 2, "units": [0], "src": [0, 0], "rng": [0, 0],
       "compose": [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], "inv": [0, 1]}


@pytest.mark.parametrize("changes, message", [
    ({"arrow_count": -1}, "arrow count must be a non-negative integer, got -1"),
    ({"rng": [0]}, "rng table has length 1, expected 2"),
    ({"units": [0, 2]}, "units[1] is 2, not an int in 0..1"),
    ({"compose": [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 0)]},
     "compose[2][2] is 2, not an int in 0..1"),
    ({"compose": [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 1, 0)]},
     "duplicate compose entry for pair (0,1)"),
])
def test_the_constructor_names_each_malformed_table(changes, message):
    assert FiniteGroupoid(**_Z2) == cyclic_groupoid(2)
    with pytest.raises(StructuralError) as err:
        FiniteGroupoid(**{**_Z2, **changes})
    assert str(err.value) == message


def _id_cases():
    """name: (a call with the value v at one id or count position, the int
    that position holds in a call that succeeds, and how the position is
    checked: ("id", its label, n) for an int in 0..n-1, or ("count", its
    label, least value) for an int with no largest value)."""
    from etale_kit.aut_group import FiniteGroupAction, identity_pair, pair_matrix
    from etale_kit.cstar import LeftRegularRep, delta
    from etale_kit.families import (_cyclic_table, group_inverses, standard_corpus,
                                    transformation_groupoid)
    from etale_kit.inverse_semigroup import (Bisection, InverseSemigroup, SemigroupAction,
                                             canonical_action, enumerate_bisections)

    z2, r1, r2 = cyclic_groupoid(2), pair_groupoid(1), pair_groupoid(2)
    m_id = pair_matrix(identity_pair(z2))
    action, point = canonical_action(r2), canonical_action(r1)  # 5 = {1 -> 0, 0 -> 1}
    semilattice = [[0, 0], [0, 1]]

    def built(**changes):
        return lambda: FiniteGroupoid(**{**_Z2, **changes})

    def point_map(v):
        maps = [*action.maps[:5], {1: 0, 0: v}, *action.maps[6:]]
        return lambda: tuple(SemigroupAction(action.semigroup, 2, maps).maps[5].items())

    return {
        "arrow count": (lambda v: lambda: FiniteGroupoid(v, [0], [0], [0], [(0, 0, 0)], [0]),
                        1, ("count", "arrow count", 0)),
        "units": (lambda v: built(units=[v]), 0, ("id", "units[0]", 2)),
        "src": (lambda v: built(src=[0, v]), 0, ("id", "src[1]", 2)),
        "rng": (lambda v: built(rng=[0, v]), 0, ("id", "rng[1]", 2)),
        "inv": (lambda v: built(inv=[0, v]), 1, ("id", "inv[1]", 2)),
        "compose triples": (lambda v: built(compose=[(0, 0, 0), (0, 1, 1), (1, v, 1), (1, 1, 0)]),
                            0, ("id", "compose[2][1]", 2)),
        "compose mapping": (lambda v: built(compose={(0, 0): 0, (0, 1): 1, (1, 0): v, (1, 1): 0}),
                            1, ("id", "compose[2][2]", 2)),
        "unit set": (lambda v: lambda: restrict(z2, [v]), 0, ("id", "unit set[0]", 2)),
        "homomorphism": (lambda v: lambda: GroupoidHom(r1, r1, (v,)).mapping, 0,
                         ("id", "mapping[0]", 1)),
        "delta": (lambda v: lambda: np.flatnonzero(delta(r2, v).coeff).tolist(), 1,
                  ("id", "arrow", 4)),
        "regular rep": (lambda v: lambda: (LeftRegularRep(r2, v).unit, *LeftRegularRep(r2, v).basis),
                        0, ("id", "unit", 4)),
        "bisection": (lambda v: lambda: Bisection(z2, (v,)).arrows, 1, ("id", "arrows[0]", 2)),
        "group table": (lambda v: lambda: group_inverses([[0, v], [1, 0]]), 1,
                        ("id", "group table entry (0,1)", 2)),
        "group action": (lambda v: lambda: FiniteGroupAction([[0, 1], [v, 0]], [m_id, m_id]).table,
                         1, ("id", "group table entry (1,0)", 2)),
        "point action": (lambda v: lambda: transformation_groupoid(
            _cyclic_table(2), 2, [[0, 1], [v, 0]]), 1, ("id", "action entry (1,0)", 2)),
        "semigroup product": (lambda v: lambda: InverseSemigroup(
            "01", [[0, 0], [0, v]], [0, 1]).table, 1, ("id", "product of elements (1,1)", 2)),
        "semigroup star": (lambda v: lambda: InverseSemigroup("01", semilattice, [0, v]).star,
                           1, ("id", "star of element 1", 2)),
        "semigroup zero": (lambda v: lambda: (InverseSemigroup("01", semilattice, [0, 1],
                                                               zero=v).zero,),
                           0, ("id", "declared zero", 2)),
        "semigroup action point count": (lambda v: lambda: (SemigroupAction(
            point.semigroup, v, point.maps).n_points,), 1, ("id", "point count", 0x110000)),
        "semigroup action point": (point_map, 1, ("id", "map of element 5 point id", 2)),
        "pair point count": (lambda v: lambda: pair_groupoid(v), 2, ("count", "point count", 0)),
        "cyclic order": (lambda v: lambda: cyclic_groupoid(v), 2, ("count", "cyclic order", 1)),
        "fiber order": (lambda v: lambda: group_bundle([2, v]), 3, ("count", "orders[1]", 1)),
        "group action point count": (lambda v: lambda: transformation_groupoid([[0]], v, [[0]]),
                                     1, ("count", "point count", 0)),
        "cocycle order": (lambda v: lambda: tuple(
            phase.den for c in enumerate_cocycles(r1, v) for phase in c.values), 2,
            ("count", "root-of-unity order", 1)),
        "cap": (lambda v: lambda: (len(enumerate_bisections(r1, cap=v)),), 1,
                ("count", "the cap", 0)),
        "corpus cap": (lambda v: lambda: tuple(g.arrow_count for _, g in standard_corpus(v)), 9,
                       ("count", "the cap", 0)),
    }


def _exact_ints(value):
    """Whether every id in a groupoid, or in a tuple or list of ids, is an int."""
    if isinstance(value, FiniteGroupoid):
        value = [value.arrow_count, *value.units, *value.src, *value.rng, *value.inv,
                 *(x for (a, b), c in value.compose.items() for x in (a, b, c))]
    elif isinstance(value, tuple) and value and isinstance(value[0], tuple):
        value = [x for row in value for x in row]
    return {type(x) for x in value} == {int}


def _refusal(shape, label, bound, value):
    if shape == "id":
        return f"{label} is {value!r}, not an int in 0..{bound - 1}"
    return f"{label} must be a {'positive' if bound else 'non-negative'} integer, got {value!r}"


def _id_params():
    """(kind, case) pairs: every case takes a float, a str, a bool, a numpy
    integer and -1; an id also takes n, and a positive count 0."""
    for case, (_, _, (shape, _, bound)) in _id_cases().items():
        kinds = ["float", "str", "bool", "int64", "negative"]
        if shape == "id" or bound:
            kinds.append("out of range")
        yield from (pytest.param(kind, case, id=f"{kind}-{case}") for kind in kinds)


@pytest.mark.parametrize("kind, case", list(_id_params()))
def test_every_constructor_that_takes_ids_refuses_what_is_not_an_int(kind, case):
    """Floats, strings and values out of range are refused in one shape,
    naming the field and the position; bools and numpy integers index a
    tuple, so they are read as the ints they are."""
    make, good, (shape, label, bound) = _id_cases()[case]
    value = {"float": float(good), "str": str(good), "bool": bool(good),
             "int64": np.int64(good), "negative": -1,
             "out of range": bound if shape == "id" else 0}[kind]
    call = make(value)
    if kind in ("bool", "int64"):
        result = call()
        assert result == make(int(value))() and _exact_ints(result)
        return
    with pytest.raises(Exception) as err:
        call()
    assert not isinstance(err.value, (TypeError, IndexError, AttributeError, KeyError))
    error = ActionError if case.startswith("semigroup action") else StructuralError
    assert type(err.value) is error
    assert str(err.value) == _refusal(shape, label, bound, value)


@pytest.mark.parametrize("value", [1, 1.0, None, "1"])
def test_a_cocycle_value_that_is_not_a_phase_is_refused(value):
    from etale_kit.cocycles import Cocycle, Phase
    with pytest.raises(StructuralError) as err:
        Cocycle(pair_groupoid(2), [Phase.exact(0, 1)] * 3 + [value])
    assert str(err.value) == f"values[3] is {value!r}, not a Phase"


def test_every_single_mutation_of_hand_built_tables_is_caught(r2_hand, z2_hand, bundle_hand):
    for g in (r2_hand, z2_hand, bundle_hand):
        for label, mutant in enumerate_mutations(g):
            assert not validation_report(mutant, stop_early=True).ok, label


def test_isotropy_examples(r2_hand, z2_hand, bundle_hand):
    assert isotropy_interior(r2_hand) == (0, 1)
    assert isotropy_interior(z2_hand) == (0, 1)
    assert isotropy_interior(bundle_hand) == (0, 1, 2)


def test_effectiveness_examples(r2_hand, z2_hand):
    assert is_effective(r2_hand)
    assert not is_effective(z2_hand)
    union = disjoint_union([pair_groupoid(2), cyclic_groupoid(2)])
    assert not is_effective(union)


def test_effective_agrees_with_principal_on_corpus(corpus):
    # on a discrete unit space, topological principality means that no unit
    # has isotropy beyond itself
    for name, g in corpus:
        trivial = all(g.src[a] != g.rng[a] or g.is_unit(a) for a in g.arrows())
        assert is_effective(g) == trivial, name


def _invariant_subsets_bruteforce(g):
    out = []
    units = list(g.units)
    for mask in range(1 << len(units)):
        subset = {units[i] for i in range(len(units)) if mask >> i & 1}
        if all(g.rng[a] in subset for a in g.arrows() if g.src[a] in subset):
            out.append(tuple(sorted(subset)))
    return sorted(out)


def test_invariant_subsets_against_bruteforce(corpus):
    for name, g in corpus:
        if len(g.units) > 8:
            continue
        assert invariant_subsets(g) == _invariant_subsets_bruteforce(g), name


def test_invariant_subsets_refuse_past_the_search_budget():
    # 2^20 unions of the 20 one-point orbits: refused before any is built
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="listing 20 orbits' unions needs 1048576 "
                       "unit sets, over the budget of 1000000"):
        invariant_subsets(group_bundle([1] * 20))
    assert time.perf_counter() - start < 1.0


def test_invariant_subsets_examples(r2_hand):
    assert invariant_subsets(r2_hand) == [(), (0, 1)]
    two_points = pair_groupoid(1), pair_groupoid(1)
    flat = disjoint_union(list(two_points))
    assert invariant_subsets(flat) == [(), (0,), (0, 1), (1,)]
    with_point = disjoint_union([pair_groupoid(2), pair_groupoid(1)])
    assert invariant_subsets(with_point) == [(), (0, 1), (0, 1, 4), (4,)]


def test_restrict_examples():
    g = disjoint_union([pair_groupoid(2), pair_groupoid(1)])
    sub = restrict(g, (0, 1))
    assert sub == pair_groupoid(2)
    assert restrict(g, g.units) == g
    empty = restrict(g, ())
    assert empty.arrow_count == 0
    assert _restriction(g, (0, 1)) == ((0, 1, 2, 3), sub)


def test_restricting_to_every_unit_returns_the_groupoid_itself():
    g = disjoint_union([pair_groupoid(2), group_bundle([3])])
    assert restrict(g, reversed(g.units)) is g
    assert _restriction(g, g.units) == (tuple(g.arrows()), g)


def test_restrict_rejects_noninvariant_sets(r2_hand):
    with pytest.raises(HypothesisError, match="arrow [23] has src 0 inside"):
        restrict(r2_hand, (0,))


def test_each_restriction_is_built_once_and_shared(relabel):
    def build():
        return relabel(disjoint_union([pair_groupoid(2), pair_groupoid(3), pair_groupoid(1)]), 4)

    g, fresh = build(), build()
    for f in invariant_subsets(g):
        sub = restrict(g, f)
        assert restrict(g, reversed(f)) is sub
        assert sub == restrict(fresh, f)
        # the homomorphism layer reads the same object (sub is effective)
        data = DecompositionData(f, identity_hom(sub), trivial_cocycle(sub))
        assert decompose(build_hom(g, sub, data)).hom.domain is sub


def test_a_set_that_is_not_invariant_is_refused_every_time_and_not_kept(r2_hand):
    g = disjoint_union([r2_hand, pair_groupoid(1)])
    before = dict(g._cache)
    for _ in range(2):
        with pytest.raises(HypothesisError, match="arrow [23] has src 0 inside"):
            restrict(g, (0, 4))
    assert g._cache == before


def test_restriction_nests_over_intersections():
    g = disjoint_union([pair_groupoid(2), cyclic_groupoid(2), pair_groupoid(1)])
    subsets = invariant_subsets(g)
    for f1 in subsets:
        for f2 in subsets:
            both = tuple(sorted(set(f1) & set(f2)))
            direct = restrict(g, both)
            outer = restrict(g, f1)
            relabel = {orig: i for i, orig in enumerate(_restriction(g, f1)[0])}
            via = restrict(outer, tuple(relabel[x] for x in both))
            assert direct.arrow_count == via.arrow_count
            assert validation_report(via).ok


def test_quotient_examples(r2_hand, z2_hand, bundle_hand):
    q, hom = quotient_by_isotropy(z2_hand)
    assert q.arrow_count == 1 and hom.mapping == (0, 0)
    qb, homb = quotient_by_isotropy(bundle_hand)
    assert qb.arrow_count == 2 and set(qb.units) == {0, 1}
    qr, homr = quotient_by_isotropy(r2_hand)
    assert homr.is_identity()


def test_quotient_is_always_effective_and_unit_separating(corpus):
    for name, g in corpus:
        q, hom = quotient_by_isotropy(g)
        assert validation_report(q).ok, name
        assert is_effective(q), name
        images = [hom.mapping[x] for x in g.units]
        assert len(set(images)) == len(images), name


def _automorphisms_bruteforce(g):
    """All arrow bijections that satisfy the homomorphism laws, checked
    directly against the tables."""
    results = []
    for perm in permutations(range(g.arrow_count)):
        if any(perm[x] not in g.unit_set for x in g.units):
            continue
        ok = all(perm[g.src[a]] == g.src[perm[a]]
                 and perm[g.rng[a]] == g.rng[perm[a]]
                 and perm[g.inv[a]] == g.inv[perm[a]]
                 for a in g.arrows())
        if ok:
            ok = all(g.compose.get((perm[a], perm[b])) == perm[c]
                     for (a, b), c in g.compose.items())
        if ok:
            results.append(perm)
    return sorted(results)


def test_automorphisms_against_bruteforce(r2_hand, z2_hand, bundle_hand):
    for g in (r2_hand, z2_hand, bundle_hand, cyclic_groupoid(3),
              disjoint_union([pair_groupoid(1), pair_groupoid(1)])):
        got = [h.mapping for h in enumerate_automorphisms(g)]
        assert got == _automorphisms_bruteforce(g)


def test_automorphisms_of_pair_groupoids():
    assert len(enumerate_automorphisms(pair_groupoid(2))) == 2
    assert len(enumerate_automorphisms(pair_groupoid(3))) == 6


def test_quaternion_group_has_24_automorphisms():
    # i may go to any of the 6 elements of order 4, and j to any of the 4 of
    # them outside ±(the image of i); Aut(Q8) is S4
    assert len(enumerate_automorphisms(_one_unit(_q8_table()))) == 24


def test_automorphism_search_enforces_the_search_budget():
    # 16 arrows pass the cap, but 16 points without arrows have 16! automorphisms
    with pytest.raises(CapExceeded, match="homomorphism search needs 334764638208000 mapping "
                       "entries, over the budget of 2000000"):
        enumerate_automorphisms(group_bundle([1] * 16))


def test_automorphism_group_closed_under_composition_and_inverse(corpus):
    for name, g in corpus:
        if g.arrow_count > 9:
            continue
        auts = {h.mapping for h in enumerate_automorphisms(g)}
        for m1 in auts:
            h1 = GroupoidHom(g, g, m1)
            assert h1.inverse().mapping in auts, name
            for m2 in auts:
                composed = compose_homs(h1, GroupoidHom(g, g, m2))
                assert composed.mapping in auts, name


@pytest.mark.parametrize("g, mapping, message", [
    (pair_groupoid(2), (0, 0, 2, 3), "src not preserved at arrow 2"),
    (pair_groupoid(2), (1, 1, 2, 3), "rng not preserved at arrow 2"),
    (cyclic_groupoid(4), (0, 2, 2, 2), "composition not preserved at pair (1,1)"),
], ids=["src", "rng", "compose"])
def test_hom_constructor_names_the_broken_law(g, mapping, message):
    with pytest.raises(HomomorphismError) as err:
        GroupoidHom(g, g, mapping)
    assert str(err.value).startswith(message)


def test_hom_constructor_rejects_bad_maps(r2_hand, z2_hand):
    with pytest.raises(HomomorphismError):
        GroupoidHom(z2_hand, z2_hand, (0, 0) if False else (1, 0))
    with pytest.raises(HomomorphismError):
        # collapsing one off-diagonal arrow of the pair groupoid breaks composition
        GroupoidHom(r2_hand, r2_hand, (0, 1, 2, 2))


def test_hom_enumeration_counts():
    r2 = pair_groupoid(2)
    z2 = cyclic_groupoid(2)
    # collapsing homs from a group to an effective groupoid pick a unit
    assert len(enumerate_homomorphisms(z2, r2)) == 2
    # homs between pair groupoids are point maps
    assert len(enumerate_homomorphisms(r2, r2)) == 4
    assert len(enumerate_homomorphisms(r2, r2, injective_on_units=True)) == 2
    assert len(enumerate_homomorphisms(z2, z2)) == 2


def test_orbits_of_disjoint_union():
    g = disjoint_union([pair_groupoid(2), pair_groupoid(1)])
    assert orbits(g) == ((0, 1), (4,))


def _homomorphisms_bruteforce(dom, cod):
    """Filter every arrow map directly through the homomorphism laws."""
    from itertools import product as iproduct
    out = []
    for mapping in iproduct(range(cod.arrow_count), repeat=dom.arrow_count):
        if any(mapping[x] not in cod.unit_set for x in dom.units):
            continue
        if any(mapping[dom.src[a]] != cod.src[mapping[a]]
               or mapping[dom.rng[a]] != cod.rng[mapping[a]]
               or mapping[dom.inv[a]] != cod.inv[mapping[a]]
               for a in dom.arrows()):
            continue
        if all(cod.compose.get((mapping[a], mapping[b])) == mapping[c]
               for (a, b), c in dom.compose.items()):
            out.append(mapping)
    return sorted(out)


def test_hom_enumeration_against_bruteforce(r2_hand, z2_hand, bundle_hand):
    pt = pair_groupoid(1)
    z3 = cyclic_groupoid(3)
    z4 = cyclic_groupoid(4)
    two_points = disjoint_union([pt, pt])
    with_loop = disjoint_union([pt, cyclic_groupoid(2)])
    cases = [(z2_hand, z2_hand), (z2_hand, r2_hand), (r2_hand, r2_hand),
             (bundle_hand, r2_hand), (z3, z3), (r2_hand, bundle_hand),
             (pt, r2_hand), (z2_hand, pt), (z4, z4), (z4, z2_hand),
             (r2_hand, z4), (bundle_hand, bundle_hand), (bundle_hand, z3),
             (two_points, bundle_hand), (with_loop, r2_hand),
             (with_loop, with_loop), (r2_hand, with_loop), (z3, with_loop)]
    for dom, cod in cases:
        got = [h.mapping for h in enumerate_homomorphisms(dom, cod)]
        assert got == _homomorphisms_bruteforce(dom, cod)
        inj = [h.mapping for h in
               enumerate_homomorphisms(dom, cod, injective_on_units=True)]
        assert inj == [m for m in got
                       if len({m[x] for x in dom.units}) == len(dom.units)]
        bij = [h.mapping for h in enumerate_homomorphisms(dom, cod, bijective=True)]
        assert bij == [m for m in got
                       if len(set(m)) == len(m) == cod.arrow_count]


def test_search_depth_is_not_bound_by_the_recursion_limit():
    # pair(32) has 1,024 arrows, one search level each
    g = pair_groupoid(32)
    assert len(enumerate_cocycles(g, 1, cap=2000)) == 1
    (collapse,) = enumerate_homomorphisms(g, pair_groupoid(1))
    assert collapse.mapping == (0,) * g.arrow_count


def test_orbits_against_networkx_components(corpus_and_relabellings):
    nx = pytest.importorskip("networkx")
    for name, g in corpus_and_relabellings:
        assert validation_report(g).ok, name
        graph = nx.Graph()
        graph.add_nodes_from(g.units)
        graph.add_edges_from((g.src[a], g.rng[a]) for a in g.arrows())
        components = tuple(sorted(tuple(sorted(c))
                                  for c in nx.connected_components(graph)))
        assert orbits(g) == components, name


def test_quotient_classes_against_the_definition(corpus_and_relabellings):
    """a ~ b when src(a) = src(b) and a . b^-1 is isotropy; classes are
    numbered in order of their least arrow."""
    for name, g in corpus_and_relabellings:
        q, hom = quotient_by_isotropy(g)
        iso = set(isotropy_interior(g))
        related = {(a, b) for a in g.arrows() for b in g.arrows()
                   if g.src[a] == g.src[b] and g.compose[(a, g.inv[b])] in iso}
        for a in g.arrows():
            for b in g.arrows():
                assert (hom.mapping[a] == hom.mapping[b]) == ((a, b) in related), (name, a, b)
        least = [min(b for b in g.arrows() if (a, b) in related) for a in g.arrows()]
        ranks = sorted(set(least))
        assert hom.mapping == tuple(ranks.index(m) for m in least), name
        assert q.arrow_count == len(ranks), name


# -- associativity on product rows against the per-triple loop ------------------


def _associativity_by_triples(g):
    """The associativity violations of the per-triple loop: three compose
    lookups for every composable triple, entries in table order."""
    table, by_rng = g.compose, g.by_rng()
    for (a, b), ab in table.items():
        for c in by_rng[g.src[b]]:
            bc = table.get((b, c))
            left = table.get((ab, c))
            if bc is None or left is None:
                continue
            right = table.get((a, bc))
            if right is not None and left != right:
                yield Violation("axiom4_associativity", (a, b, c),
                                f"({a}.{b}).{c} = {left} but {a}.({b}.{c}) = {right}")


def _assert_rows_match_the_triple_loop(g, label):
    """The full report has the per-triple loop's associativity violations,
    after axioms 1, 3, 2 and 5 and before inverse uniqueness; stop_early
    keeps its first violation."""
    full = validation_report(g).violations
    last = "inverse_uniqueness"
    expected = ([v for v in full if v.axiom not in ("axiom4_associativity", last)]
                + list(_associativity_by_triples(g))
                + [v for v in full if v.axiom == last])
    assert full == expected, label
    assert validation_report(g, stop_early=True).violations == expected[:1], label


def _rewritten(g, rewrites, drop=None):
    compose = dict(g.compose)
    compose.update(rewrites)
    compose.pop(drop, None)
    return FiniteGroupoid(g.arrow_count, g.units, g.src, g.rng, compose, g.inv)


def _parallel_rewrites(g, rnd, count):
    """`count` compose entries, drawn at random, each given another product
    with the same endpoints; None when the table has too few such entries."""
    parallel = g.by_src_rng()
    open_keys = [key for key, ab in g.compose.items()
                 if len(parallel[g.src[ab], g.rng[ab]]) > 1]
    if len(open_keys) < count:
        return None
    rewrites = {}
    for key in rnd.sample(open_keys, count):
        ab = g.compose[key]
        rewrites[key] = rnd.choice([x for x in parallel[g.src[ab], g.rng[ab]] if x != ab])
    return rewrites


def test_stop_early_reports_the_first_violation_of_the_full_report(corpus):
    # and the full report is that of the per-triple loop
    for name, g in corpus:
        _assert_rows_match_the_triple_loop(g, name)
        for label, mutant in enumerate_mutations(g):
            _assert_rows_match_the_triple_loop(mutant, (name, label))


def _fails_associativity(g):
    return any(v.axiom == "axiom4_associativity" for v in validation_report(g).violations)


def test_row_associativity_matches_the_triple_loop_on_table_rewrites(corpus_and_relabellings):
    rnd = random.Random(17)
    rewritten = dropped = 0
    for name, g in corpus_and_relabellings:
        for _ in range(30):
            rewrites = _parallel_rewrites(g, rnd, rnd.choice((2, 3)))
            if rewrites is None:
                break
            # endpoints kept: axiom 3 holds, so rows decide and the loop
            # names the witnesses of each entry whose rows disagree
            mutant = _rewritten(g, rewrites)
            _assert_rows_match_the_triple_loop(mutant, (name, rewrites))
            rewritten += _fails_associativity(mutant)
        # an entry dropped: axiom 3 fails, so the loop runs on every entry
        for key in rnd.sample(list(g.compose), min(3, len(g.compose))):
            mutant = _rewritten(g, _parallel_rewrites(g, rnd, 1) or {}, drop=key)
            _assert_rows_match_the_triple_loop(mutant, (name, "drop", key))
            dropped += _fails_associativity(mutant)
    # 768 of 1,080 rewrites and 63 of 192 drops
    assert rewritten > 700 and dropped > 50


def test_row_associativity_on_an_empty_range_bucket():
    # no arrow has range 1, so the entries (1, 0) and (2, 0) compare empty
    # rows; the table passes axiom 3 and associativity, and fails axiom 1
    g = FiniteGroupoid(4, [0, 1, 2], [1, 0, 0, 1], [0, 0, 2, 2],
                       {(1, 0): 0, (1, 1): 1, (2, 0): 3, (2, 1): 2}, [0, 1, 2, 3])
    assert g.by_rng()[1] == ()
    report = validation_report(g)
    assert {v.axiom for v in report.violations} >= {"axiom1_units"}
    assert not any(v.axiom.startswith(("axiom3", "axiom4")) for v in report.violations)
    _assert_rows_match_the_triple_loop(g, "empty bucket")


def test_row_associativity_on_one_arrow_buckets():
    g = group_bundle([1, 1, 1])
    assert {len(bucket) for bucket in g.by_rng()} == {1}
    assert validation_report(g).ok
    for label, mutant in enumerate_mutations(g):
        _assert_rows_match_the_triple_loop(mutant, label)


def _listed_mutation_specs(g):
    """Every single-entry change in order, listed one by one: the reference
    for the index arithmetic of `_mutation_specs`."""
    n = g.arrow_count
    for a in range(n):
        yield (f"unit_flip[{a}]", "units", a, None)
    for name, table in (("src", g.src), ("rng", g.rng), ("inv", g.inv)):
        for i in range(n):
            for v in range(n):
                if v != table[i]:
                    yield (f"{name}[{i}]={v}", name, i, v)
    for (a, b), c in g.compose.items():
        for v in range(n):
            if v != c:
                yield (f"compose[{a},{b}]={v}", "compose", (a, b), v)


def _sample_from_the_list(g, rnd, count):
    specs = list(_listed_mutation_specs(g))
    if not specs:
        return []
    drawn = [specs[rnd.randrange(len(specs))] for _ in range(count)]
    return [(label, _mutant(g, field, key, value)) for label, field, key, value in drawn]


def test_mutation_spec_at_every_index_follows_the_listed_order(corpus):
    for name, g in corpus:
        listed = list(_listed_mutation_specs(g))
        total, spec = _mutation_specs(g)
        assert total == len(listed), name
        assert [spec(i) for i in range(total)] == listed, name


def test_sampled_mutations_match_draws_from_the_listed_specs(corpus):
    ours, listed = random.Random(5), random.Random(5)
    for _ in range(200):
        name, g = corpus[ours.randrange(len(corpus))]
        assert corpus[listed.randrange(len(corpus))][0] == name
        assert sample_mutations(g, ours, 1) == _sample_from_the_list(g, listed, 1), name
    g = corpus[-1][1]
    assert sample_mutations(g, ours, 3) == _sample_from_the_list(g, listed, 3)
    assert ours.getstate() == listed.getstate()
    assert sample_mutations(FiniteGroupoid(0, [], [], [], {}, []), ours, 3) == []


# -- the automorphism cache ------------------------------------------------------


@pytest.fixture
def automorphism_searches(monkeypatch):
    """The domains of the automorphism searches run from here on."""
    from etale_kit import hom_search
    searches = []
    search = hom_search._mappings

    def counting(domain, codomain, **kwargs):
        if kwargs.get("bijective"):
            searches.append(domain)
        return search(domain, codomain, **kwargs)

    monkeypatch.setattr(hom_search, "_mappings", counting)
    return searches


def test_automorphisms_are_searched_once_per_groupoid(automorphism_searches):
    g, h = pair_groupoid(3), pair_groupoid(3)
    first = enumerate_automorphisms(g)
    second = enumerate_automorphisms(g, cap=9)
    assert automorphism_searches == [g]
    # fresh lists of fresh homomorphisms, equal to what the search finds
    assert first == second == enumerate_homomorphisms(g, g, bijective=True)
    assert automorphism_searches == [g, g]  # that direct search runs the same search
    assert first is not second
    assert all(a is not b for a, b in zip(first, second))
    # an equal groupoid is a different groupoid with its own search
    assert enumerate_automorphisms(h) == [GroupoidHom(h, h, phi.mapping) for phi in first]
    assert automorphism_searches == [g, g, h]


def test_the_arrow_cap_is_checked_before_the_cache(automorphism_searches):
    g = pair_groupoid(3)
    with pytest.raises(CapExceeded, match="9 arrows exceeds the cap 2"):
        enumerate_automorphisms(g, cap=2)
    assert automorphism_searches == []  # refused before any search, and nothing kept
    assert len(enumerate_automorphisms(g, cap=16)) == 6
    with pytest.raises(CapExceeded, match="9 arrows exceeds the cap 2"):
        enumerate_automorphisms(g, cap=2)
    assert len(enumerate_automorphisms(g)) == 6
    assert automorphism_searches == [g]


def test_a_refusal_by_the_check_budget_is_not_kept(automorphism_searches, monkeypatch):
    from etale_kit import errors, hom_search
    g = pair_groupoid(3)
    # pair(3)'s 6 automorphisms of 9 entries each are charged 54 mapping entries
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 53)
    for _ in range(2):
        with pytest.raises(CapExceeded, match="needs 54 mapping entries"):
            enumerate_automorphisms(g)
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", errors.CHECK_BUDGET)
    assert len(enumerate_automorphisms(g)) == 6
    assert len(enumerate_automorphisms(g)) == 6
    assert automorphism_searches == [g, g, g]


def test_classify_faut_reuses_the_automorphism_search(automorphism_searches):
    from etale_kit.aut_group import classify_faut
    g = pair_groupoid(3)  # principal, so classify_faut reads the automorphisms
    assert is_effective(g)
    automorphisms = enumerate_automorphisms(g)
    assert len(classify_faut(g, 2)) == 4
    assert automorphism_searches == [g]
    assert enumerate_automorphisms(g) == automorphisms
