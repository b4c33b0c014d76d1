"""The homomorphism search through the structure theorem, against the
backtracking search it replaced, kept below as a reference; the orbit tier
and the factors it reads; its charges; and the answers that no longer
depend on the arrow labels.

The reference assigns every domain arrow in turn and checks each compose
entry as soon as its three arrows are assigned.  It charges each level its
candidates times its checks, in compose checks, so it refuses some inputs
the new search answers; every comparison below stays within its budget.
"""

import json
import time
from math import factorial
from typing import Iterator

import pytest

from etale_kit import cli
from etale_kit import io as kio
from etale_kit.cocycles import enumerate_cocycles
from etale_kit.errors import CHECK_BUDGET, CapExceeded, _charge
from etale_kit.families import (
    _cyclic_table,
    cyclic_groupoid,
    disjoint_union,
    group_bundle,
    pair_groupoid,
    standard_corpus,
    symmetry_kinds,
    transformation_groupoid,
)
from etale_kit.groupoid import (
    _automorphism_count,
    _orbit_tier,
    enumerate_automorphisms,
    enumerate_homomorphisms,
)
from etale_kit.hom_search import _factors, _HomSearch, _vertex_groups

FLAGS = [{}, {"injective_on_units": True}, {"bijective": True}]
FLAG_IDS = ["plain", "injective_on_units", "bijective"]


def _reference_homomorphisms(domain, codomain, *, injective_on_units=False,
                             bijective=False) -> list[tuple[int, ...]]:
    """The mappings of every homomorphism, by backtracking with full
    constraint checks: units first, then one level per arrow, each compose
    entry checked once its three arrows are assigned."""
    if bijective and domain.arrow_count != codomain.arrow_count:
        return []
    order = list(domain.units) + [a for a in domain.arrows()
                                  if a not in domain.unit_set]
    pos = {a: i for i, a in enumerate(order)}
    n = domain.arrow_count
    triggers: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (a, b), c in domain.compose.items():
        triggers[max(pos[a], pos[b], pos[c])].append((a, b, c))
    levels = [(a, domain.is_unit(a),
               bijective or (injective_on_units and domain.is_unit(a)),
               domain.src[a], domain.rng[a], triggers[k]) for k, a in enumerate(order)]
    cod_by_src_rng = codomain.by_src_rng()
    cod_compose = codomain.compose
    image = [-1] * n
    uses = [0] * codomain.arrow_count
    found: list[tuple[int, ...]] = []
    checked = 0
    pending: list[Iterator[int]] = []
    while True:
        if len(pending) == n:
            found.append(tuple(image))
        else:
            _, unit, _, s, r, checks = levels[len(pending)]
            candidates = (codomain.units if unit
                          else cod_by_src_rng.get((image[s], image[r]), ()))
            checked = _charge(checked, len(candidates) * len(checks), CHECK_BUDGET,
                              "homomorphism search", "compose checks")
            pending.append(iter(candidates))
        while pending:
            a, _, fresh_only, _, _, checks = levels[len(pending) - 1]
            if image[a] != -1:
                uses[image[a]] -= 1
            for c in pending[-1]:
                if fresh_only and uses[c]:
                    continue
                image[a] = c
                for u, v, w in checks:
                    if cod_compose.get((image[u], image[v])) != image[w]:
                        break
                else:
                    uses[c] += 1
                    break
            else:
                image[a] = -1
                pending.pop()
                continue
            break
        if not pending:
            break
    return sorted(found)


def _agree(domain, codomain, flags):
    got = [h.mapping for h in enumerate_homomorphisms(domain, codomain, **flags)]
    assert got == _reference_homomorphisms(domain, codomain, **flags)
    if not (flags.get("bijective") and domain.arrow_count != codomain.arrow_count):
        search = _HomSearch(domain, codomain,
                            unit_injective=flags.get("injective_on_units", False),
                            bijective=flags.get("bijective", False))
        assert search.count() == len(got)
    return got


@pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
def test_search_matches_the_reference_on_the_corpus_and_relabellings(
        corpus_and_relabellings, flags):
    targets = [(name, h) for name, h in standard_corpus() if h.arrow_count <= 9]
    for name, g in corpus_and_relabellings:
        if g.arrow_count > 9:
            continue
        for target_name, h in targets:
            assert _agree(g, h, flags) is not None, (name, target_name)


@pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
def test_search_matches_the_reference_into_relabelled_targets(corpus, relabel, flags):
    for name, g in corpus:
        if g.arrow_count <= 9:
            for seed in range(2):
                _agree(g, relabel(g, seed), flags)


@pytest.mark.parametrize("name, g, order", symmetry_kinds(), ids=[k[0] for k in symmetry_kinds()])
def test_search_matches_the_reference_on_the_benchmark_kinds(relabel, name, g, order):
    for h in (g, relabel(g, 5)):
        _agree(h, h, {"bijective": True})
        _agree(h, h, {"injective_on_units": True})
        _agree(h, cyclic_groupoid(order), {})
        if h.arrow_count <= 12:
            _agree(h, h, {})


@pytest.mark.parametrize("k", range(1, 8))
def test_search_matches_the_reference_on_the_enum_curve(k):
    bundle = group_bundle([1] * k)
    assert len(_agree(bundle, bundle, {"bijective": True})) == factorial(k)
    assert len(_agree(pair_groupoid(k), cyclic_groupoid(3), {})) == 3 ** (k - 1)


def _permutation_group(*generators):
    """The group the permutations generate, as a one-point transformation
    groupoid whose arrows are its elements, identity first and the rest
    ascending, with p.q the permutation i -> p[q[i]]."""
    identity = tuple(range(len(generators[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for q in generators:
            pq = tuple(p[i] for i in q)
            if pq not in elements:
                elements.add(pq)
                frontier.append(pq)
    order = [identity] + sorted(elements - {identity})
    index = {p: i for i, p in enumerate(order)}
    table = [[index[tuple(p[i] for i in q)] for q in order] for p in order]
    return transformation_groupoid(table, 1, [[0]] * len(order))


def _s3():
    return _permutation_group((1, 0, 2), (1, 2, 0))


def _d4():
    """The symmetries of a square, as permutations of its corners."""
    return _permutation_group((1, 2, 3, 0), (0, 3, 2, 1))


@pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
def test_search_matches_the_reference_on_non_abelian_vertex_groups(relabel, flags):
    """Every vertex group of the corpus is cyclic; S3 and D4 are not."""
    s3, d4 = _s3(), _d4()
    z2 = group_bundle([2])
    cases = [(s3, s3), (d4, d4), (s3, d4), (d4, s3), (s3, z2), (d4, z2)]
    cases += [(u, u) for u in (disjoint_union([s3, pair_groupoid(2)]),
                               disjoint_union([d4, pair_groupoid(2)]))]
    for seed in range(2):
        for g, h in cases:
            _agree(relabel(g, seed), relabel(h, seed + 2), flags)


def test_the_non_abelian_automorphism_groups(monkeypatch):
    """|Aut(S3)| = 6 and |Aut(D4)| = 8; Aut(S3) is found by 1,117 compose
    checks between the vertex groups."""
    from etale_kit import hom_search
    assert len(enumerate_automorphisms(_d4())) == 8
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 1_116)
    with pytest.raises(CapExceeded, match="^vertex-group search needs 1117 compose checks, "
                       "over the budget of 1116$"):
        enumerate_automorphisms(_s3())
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 1_117)
    assert len(enumerate_automorphisms(_s3())) == 6


def _reachability_classes(g):
    """The units' classes under "an arrow leads from x to y", closed
    symmetrically and transitively, with no groupoid axiom assumed."""
    classes, left = [], set(g.units)
    while left:
        found, grown = set(), {min(left)}
        while grown - found:
            found |= grown
            grown = found | {g.rng[a] for a in g.arrows() if g.src[a] in found} \
                | {g.src[a] for a in g.arrows() if g.rng[a] in found}
        classes.append(tuple(sorted(found)))
        left -= found
    return tuple(sorted(classes))


def test_the_summary_holds_least_spanning_arrows_and_each_factor(corpus_and_relabellings,
                                                                relabel):
    # Z/12 on 4 points has three arrows between any two points, so a
    # spanning arrow there is a choice
    z12 = _z12_on_four_points()
    for name, g in corpus_and_relabellings + [("Z/12 on 4 points", z12),
                                              ("Z/12 relabelled", relabel(z12, 1))]:
        tier = _orbit_tier(g)
        assert tier.orbits == _reachability_classes(g), name
        assert _orbit_tier(g) is tier  # built once per groupoid
        for i, (orb, loops, table) in enumerate(zip(tier.orbits, tier.loops,
                                                    _vertex_groups(g))):
            x = orb[0]
            # x first, the rest ascending: a loop's position is its element, identity 0
            assert loops[0] == x and list(loops[1:]) == sorted(loops[1:])
            assert sorted(loops) == list(g.by_src_rng()[x, x])
            if len(loops) == 1:
                assert table is None
            else:
                everything = tuple(range(len(loops)))
                assert table[0] == everything == tuple(row[0] for row in table)
                assert all(loops[table[h][k]] == g.compose[loops[h], loops[k]]
                           for h in everything for k in everything), name
            for y in orb:
                assert tier.orbit_of[y] == i
                assert tier.spanning[y] == (x if y == x else min(g.by_src_rng()[x, y])), name
        for a, (z, h, y) in enumerate(_factors(g)):
            assert (g.src[a], g.rng[a]) == (y, z)
            loops = tier.loops[tier.orbit_of[y]]
            t_z, t_y = tier.spanning[z], tier.spanning[y]
            assert g.compose[g.compose[t_z, loops[h]], g.inv[t_y]] == a, name


def test_a_count_or_a_refusal_builds_no_factors_or_readers(monkeypatch):
    """The factors and the readers are built when the first mapping is
    written, so counting, as `analyze` does, or refusing builds neither."""
    from etale_kit import hom_search

    def unbuilt(g):
        raise AssertionError("factors built")

    monkeypatch.setattr(hom_search, "_factors", unbuilt)
    g = pair_groupoid(3)
    assert _automorphism_count(g) == 6
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 53)
    with pytest.raises(CapExceeded, match="needs 54 mapping entries"):
        enumerate_homomorphisms(g, g, bijective=True)
    assert "readers" not in g._cache
    monkeypatch.undo()
    assert len(enumerate_homomorphisms(g, g, bijective=True)) == 6
    assert "readers" in g._cache


def _z12_on_four_points():
    return transformation_groupoid(_cyclic_table(12), 4,
                                   [[(x + g) % 4 for x in range(4)] for g in range(12)])


def test_inputs_the_reference_refused_are_answered():
    g = pair_groupoid(8)
    with pytest.raises(CapExceeded, match="needs 2000018 compose checks"):
        _reference_homomorphisms(g, cyclic_groupoid(3))
    assert len(enumerate_cocycles(g, 3, cap=64)) == 2_187
    z12 = _z12_on_four_points()
    assert z12.arrow_count == 48
    with pytest.raises(CapExceeded, match="compose checks"):
        _reference_homomorphisms(z12, z12, bijective=True)
    assert len(enumerate_automorphisms(z12, cap=48)) == 1_296


def test_counts_match_the_closed_forms():
    assert _automorphism_count(pair_groupoid(35)) == factorial(35)
    assert _automorphism_count(group_bundle([1] * 16)) == factorial(16)
    assert _automorphism_count(group_bundle([3] * 4)) == factorial(4) * 2 ** 4
    assert _automorphism_count(_z12_on_four_points()) == 1_296


def test_the_charge_is_the_output_count_times_the_arrows(monkeypatch):
    from etale_kit import hom_search
    g = pair_groupoid(8)  # 2,187 cocycles into Z/3, each of 64 entries
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 2_187 * 64)
    assert len(enumerate_cocycles(g, 3, cap=64)) == 2_187
    g = pair_groupoid(8)
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 2_187 * 64 - 1)
    with pytest.raises(CapExceeded, match=f"homomorphism search needs {2_187 * 64} "
                       f"mapping entries, over the budget of {2_187 * 64 - 1}"):
        enumerate_cocycles(g, 3, cap=64)


def test_aut_answers_alike_under_every_labelling(relabel, tmp_path, capsys):
    """`aut --phases 3 --cap 100` on pair(7), the case whose answer once
    depended on the labels.  The counts must be identical; the generators
    are one choice per labelling, so the order of the group they generate
    is compared instead."""
    answers = set()
    for seed in range(12):
        path = tmp_path / f"pair7_{seed}.json"
        path.write_text(kio.canonical_json(kio.groupoid_to_doc(relabel(pair_groupoid(7), seed))))
        capsys.readouterr()
        assert cli.main(["--json", "aut", str(path), "--phases", "3", "--cap", "100"]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        generated = _generated_order([tuple(m) for m in data.pop("generators")])
        answers.add((kio.canonical_json(data), generated))
    assert answers == {(kio.canonical_json({"automorphisms": 5_040, "cocycles_mu3": 729,
                                            "semidirect_order": 5_040 * 729}), 5_040)}


def _generated_order(generators):
    n = len(generators[0])
    reachable = {tuple(range(n))}
    frontier = list(reachable)
    while frontier:
        m = frontier.pop()
        for base in generators:
            nxt = tuple(base[v] for v in m)
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return len(reachable)


def test_pair7_into_z4_has_one_count_under_every_labelling(relabel):
    counts = {len(enumerate_cocycles(relabel(pair_groupoid(7), seed), 4, cap=49))
              for seed in range(12)}
    assert counts == {4 ** 6}



def test_the_vertex_group_searches_charge_their_compose_checks(monkeypatch):
    """Aut(Z/4) is searched once for both components of Z/4 + Z/4: 129
    compose checks, and then 8 automorphisms of 8 entries each."""
    from etale_kit import hom_search
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 128)
    with pytest.raises(CapExceeded, match="^vertex-group search needs 129 compose checks, "
                       "over the budget of 128$"):
        enumerate_automorphisms(group_bundle([4, 4]))
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 129)
    assert len(enumerate_automorphisms(group_bundle([4, 4]))) == 8


def test_placing_the_components_charges_its_partial_counts(monkeypatch):
    """Under unit injectivity the count charges a bound of 160 partial
    counts for pair(1) + pair(2) + pair(3) into itself, against a tenth of
    the budget, before it places any component; the 12 homomorphisms'
    168 mapping entries then fit the 1,600 that bound needs."""
    from etale_kit import hom_search
    g = disjoint_union([pair_groupoid(1), pair_groupoid(2), pair_groupoid(3)])
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 1_599)
    with pytest.raises(CapExceeded, match="^homomorphism count needs 160 partial counts, "
                       "over the budget of 159$"):
        enumerate_homomorphisms(g, g, injective_on_units=True)
    monkeypatch.setattr(hom_search, "CHECK_BUDGET", 1_600)
    assert len(enumerate_homomorphisms(g, g, injective_on_units=True)) == 12


def test_a_placement_over_the_budget_is_refused_before_it_starts():
    """group_bundle([1..16]) into itself has 16 kinds of one component each;
    placing them would keep up to 2^16 partial counts per orbit."""
    g = group_bundle(list(range(1, 17)))
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="^homomorphism count needs 33554432 partial "
                       "counts, over the budget of 200000$"):
        enumerate_homomorphisms(g, g, injective_on_units=True)
    assert time.perf_counter() - start < 0.5


def test_the_placement_charge_is_one_under_every_labelling(relabel, monkeypatch):
    from etale_kit import hom_search
    g = disjoint_union([pair_groupoid(1), pair_groupoid(2), pair_groupoid(3),
                        group_bundle([2, 3])])
    answers, refusals = set(), set()
    for seed in range(6):
        h = relabel(g, seed)
        monkeypatch.setattr(hom_search, "CHECK_BUDGET", CHECK_BUDGET)
        answers.add(len(enumerate_homomorphisms(h, h, injective_on_units=True)))
        monkeypatch.setattr(hom_search, "CHECK_BUDGET", 1_000)
        with pytest.raises(CapExceeded) as err:
            enumerate_homomorphisms(h, h, injective_on_units=True)
        refusals.add(str(err.value))
    assert answers == {168}
    assert refusals == {"homomorphism count needs 1600 partial counts, over the budget of 100"}


# a domain whose every arrow is a unit is placed without a charge
_PLACED = [(name, g) for name, g in standard_corpus() + [k[:2] for k in symmetry_kinds()]
           if len(g.units) < g.arrow_count]


@pytest.mark.parametrize("name, g", _PLACED, ids=[name for name, _ in _PLACED])
def test_the_placement_bound_depends_only_on_the_isomorphism_class(relabel, monkeypatch,
                                                                  name, g):
    """The bound the placement charges is read from the kinds of components
    and the orbit sizes, so seven labellings of one groupoid, each into
    itself, charge one bound and count one number of homomorphisms."""
    from etale_kit import hom_search
    bounds, counts = set(), set()
    for h in [g] + [relabel(g, seed) for seed in range(6)]:
        search = _HomSearch(h, h, unit_injective=True, bijective=False)
        monkeypatch.setattr(hom_search, "CHECK_BUDGET", 0)
        with pytest.raises(CapExceeded, match="^homomorphism count needs") as err:
            search.count()
        bounds.add(str(err.value))
        monkeypatch.undo()
        counts.add(search.count())
    assert len(bounds) == 1 and len(counts) == 1, (name, bounds, counts)


def test_a_discrete_domain_takes_its_unit_images_as_the_mapping(relabel):
    """Every arrow of group_bundle([1]*k) is a unit, so its mappings are the
    unit images themselves: into a discrete target, every injection."""
    from itertools import permutations
    g = group_bundle([1] * 4)
    assert [h.mapping for h in enumerate_homomorphisms(g, group_bundle([1] * 5),
                                                       injective_on_units=True)] \
        == list(permutations(range(5), 4))
    h = relabel(group_bundle([1, 1, 2]), 1)
    assert [m.mapping for m in enumerate_homomorphisms(g, h)] \
        == _reference_homomorphisms(g, h)
