"""Phases and cocycle enumeration, checked against brute-force assignments."""

import cmath
from itertools import permutations
from itertools import product as iproduct
from math import pi

import pytest

from etale_kit import cocycles, hom_search
from etale_kit.cocycles import (
    Cocycle,
    Phase,
    cocycle_conj,
    cocycle_product,
    enumerate_cocycles,
    precompose_cocycle,
    trivial_cocycle,
)
from etale_kit.aut_group import classify_faut
from etale_kit.errors import CapExceeded, CocycleError, StructuralError
from etale_kit.families import (
    cyclic_groupoid,
    disjoint_union,
    group_bundle,
    pair_groupoid,
    transformation_groupoid,
)
from etale_kit.groupoid import enumerate_automorphisms

ONE = Phase.exact(0, 1)


def test_phase_reduction_and_equality():
    assert Phase.exact(2, 4) == Phase.exact(1, 2)
    assert Phase.exact(5, 4) == Phase.exact(1, 4)
    assert Phase.exact(0, 7) == ONE
    assert Phase.exact(1, 3) != Phase.exact(2, 3)


def test_phase_arithmetic():
    third = Phase.exact(1, 3)
    assert third.times(third).times(third) == ONE
    assert third.times(third.conj()) == ONE
    assert Phase.exact(1, 2).times(Phase.exact(1, 4)) == Phase.exact(3, 4)
    assert abs(Phase.exact(1, 4).value - 1j) == 0.0


def test_phase_snapping():
    z = cmath.exp(2j * pi / 3) * (1 + 2e-10)
    snapped = Phase.from_complex(z / abs(z))
    assert snapped.is_exact and (snapped.num, snapped.den) == (1, 3)
    rough = Phase.from_complex(cmath.exp(0.123j))
    assert not rough.is_exact
    assert rough == Phase.approximate(cmath.exp(0.123j))


def test_phase_rejects_off_circle_values():
    with pytest.raises(StructuralError):
        Phase.approximate(1.1 + 0j)


@pytest.mark.parametrize("z", [complex(float("nan"), 0), complex(0, float("nan")),
                               complex(float("inf"), 0), complex(1, float("-inf"))])
@pytest.mark.parametrize("make", [Phase.approximate, Phase.from_complex])
def test_phase_refuses_non_finite_values(make, z):
    # |nan| - 1 compares False against TOL, and round(nan) raises ValueError
    with pytest.raises(StructuralError, match="is not finite"):
        make(z)


@pytest.mark.parametrize("z", [0j, complex(-0.0, -0.0), 0])
def test_phase_from_complex_refuses_zero(z):
    # z / |z| has no value at 0
    with pytest.raises(StructuralError, match="has modulus 0"):
        Phase.from_complex(z)


def _sixths(k):
    """exp(2 pi i k/6) written over the denominators 1, 2, 3, 4 and 6."""
    return {0: ONE, 1: Phase.exact(1, 6), 2: Phase.exact(1, 3),
            3: Phase.exact(2, 4), 4: Phase.exact(2, 3), 5: Phase.exact(5, 6)}[k]


def _sixth_root(k):
    return Phase.approximate(cmath.exp(2j * pi * k / 6))


# Z/6 with arrow k = k mod 6; the values k -> exp(2 pi i k/6) form a cocycle,
# so setting arrow 4 to -1 first fails at the pair (1, 3) in compose key order
@pytest.mark.parametrize("values, message", [
    pytest.param([_sixths(k) for k in range(6)], None, id="exact"),
    pytest.param([_sixths(k) if k != 4 else Phase.exact(1, 2) for k in range(6)],
                 "cocycle law fails at pair (1,3): c(4)=Phase(1/2) but "
                 "c(1)c(3)=Phase(2/3)", id="exact-mixed-denominators"),
    pytest.param([Phase.exact(1, 2)] + [_sixths(k) for k in range(1, 6)],
                 "cocycle value at unit 0 is Phase(1/2), not 1", id="exact-unit"),
    pytest.param([_sixth_root(k) for k in range(6)], None, id="approximate"),
    pytest.param([_sixth_root(k) if k != 4 else Phase.approximate(-1)
                  for k in range(6)],
                 "cocycle law fails at pair (1,3): c(4)=Phase((-1+0j))",
                 id="approximate-broken"),
    pytest.param([_sixths(k) if k % 2 else _sixth_root(k) for k in range(6)],
                 None, id="mixed"),
    pytest.param([_sixths(k) if k % 2 else _sixth_root(k) for k in range(5)]
                 + [Phase.exact(1, 3)],
                 "cocycle law fails at pair (1,4): c(5)=Phase(1/3)", id="mixed-broken"),
    pytest.param([_sixth_root(1)] + [_sixths(k) if k % 2 else _sixth_root(k)
                                     for k in range(1, 6)],
                 "cocycle value at unit 0 is Phase((0.5", id="mixed-unit"),
])
def test_cocycle_law_enforced(values, message):
    g = cyclic_groupoid(6)
    if message is None:
        assert Cocycle(g, values).values == tuple(values)
        return
    with pytest.raises(CocycleError) as err:
        Cocycle(g, values)
    assert str(err.value).startswith(message)


def _cocycles_bruteforce(g, n):
    """Every n-th root assignment satisfying the homomorphism law directly."""
    out = []
    for exps in iproduct(range(n), repeat=g.arrow_count):
        if any(exps[x] for x in g.units):
            continue
        if all((exps[a] + exps[b]) % n == exps[c] % n
               for (a, b), c in g.compose.items()):
            out.append(exps)
    return sorted(out)


def _group_table(elements, mul):
    """Multiplication table of `elements` (identity first) under `mul`."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def _s3_table():
    """S3 as permutations of three points, composed right to left."""
    perms = sorted(permutations(range(3)))  # the identity (0, 1, 2) first
    return _group_table(perms, lambda p, q: tuple(p[q[x]] for x in range(3)))


def _q8_table():
    """The quaternion group {±1, ±i, ±j, ±k} under the Hamilton product."""
    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    quaternions = [tuple(sign if i == axis else 0 for i in range(4))
                   for axis in range(4) for sign in (1, -1)]
    return _group_table(quaternions, hamilton)


def _one_unit(table):
    """A finite group as a groupoid with a single unit."""
    return transformation_groupoid(table, 1, [[0]] * len(table))


def _s3_on_two_points():
    """S3 acting trivially on two points: a bundle of two copies of S3."""
    return transformation_groupoid(_s3_table(), 2, [[0, 1]] * 6)


# the non-abelian cases keep n ** arrows within ~5e4 brute-force assignments
@pytest.mark.parametrize("maker,n", [
    (lambda: pair_groupoid(2), 2),
    (lambda: pair_groupoid(2), 4),
    (lambda: pair_groupoid(3), 3),
    (lambda: cyclic_groupoid(2), 2),
    (lambda: cyclic_groupoid(4), 4),
    (lambda: group_bundle([2, 1]), 2),
    (lambda: group_bundle([2, 2]), 4),
    *(pytest.param(lambda: _one_unit(_s3_table()), n, id=f"S3-mu{n}")
      for n in (1, 2, 3, 6)),
    pytest.param(lambda: _one_unit(_q8_table()), 2, id="Q8-mu2"),
    pytest.param(_s3_on_two_points, 2, id="S3_on_2_points-mu2"),
])
def test_enumeration_matches_bruteforce(maker, n, relabel):
    for g in (maker(), relabel(maker(), 5)):
        got = [tuple(v.num * (n // v.den) % n for v in c.values)
               for c in enumerate_cocycles(g, n)]
        assert got == _cocycles_bruteforce(g, n)


def test_counts_on_non_abelian_isotropy():
    # |Hom(G, Z/n)| = |Hom(G_ab, Z/n)| with S3_ab = Z/2 and Q8_ab = Z/2 x Z/2
    s3, q8 = _one_unit(_s3_table()), _one_unit(_q8_table())
    assert [len(enumerate_cocycles(s3, n)) for n in (1, 2, 3, 6)] == [1, 2, 1, 2]
    assert [len(enumerate_cocycles(q8, n)) for n in (2, 4)] == [4, 4]


def test_counts_from_examples():
    assert len(enumerate_cocycles(pair_groupoid(2), 2)) == 2
    assert len(enumerate_cocycles(pair_groupoid(3), 3)) == 9
    assert len(enumerate_cocycles(pair_groupoid(1), 7)) == 1
    assert len(enumerate_cocycles(cyclic_groupoid(2), 2)) == 2


def test_off_diagonal_values_determine_each_other_on_two_points():
    for c in enumerate_cocycles(pair_groupoid(2), 2):
        assert c.values[2] == c.values[3]  # the two off-diagonal arrows agree in mu_2


def test_pullback_stays_enumerated(corpus):
    for name, g in corpus:
        if g.arrow_count > 9:
            continue
        cocycles = enumerate_cocycles(g, 4)
        for phi in enumerate_automorphisms(g):
            for c in cocycles:
                pulled = precompose_cocycle(c, phi.inverse())
                assert any(pulled == d for d in cocycles), name


def test_product_and_conjugate_are_group_operations():
    g = pair_groupoid(3)
    cocycles = enumerate_cocycles(g, 3)
    for c1 in cocycles:
        assert cocycle_product(c1, cocycle_conj(c1)) == trivial_cocycle(g)
        for c2 in cocycles:
            prod = cocycle_product(c1, c2)
            assert any(prod == d for d in cocycles)
            assert prod == cocycle_product(c2, c1)


def test_precompose_requires_matching_groupoid(z2_hand):
    g = pair_groupoid(2)
    c = trivial_cocycle(g)
    from etale_kit.groupoid import identity_hom
    with pytest.raises(StructuralError):
        precompose_cocycle(c, identity_hom(z2_hand))


def test_cocycle_enumeration_enforces_the_cap():
    with pytest.raises(CapExceeded, match="cocycle enumeration"):
        enumerate_cocycles(pair_groupoid(5), 2, cap=1)
    # cyclic_group(3) is not principal, so classify_faut enumerates no
    # automorphisms and only the cocycle enumeration can refuse
    with pytest.raises(CapExceeded, match="cocycle enumeration"):
        classify_faut(cyclic_groupoid(3), 3, cap=2)
    assert len(enumerate_cocycles(cyclic_groupoid(3), 3, cap=3)) == 3


def test_the_root_of_unity_order_counts_against_the_cap():
    # Z/17 has 17 arrows, more than the default cap of 16
    with pytest.raises(CapExceeded, match="cocycle enumeration"):
        enumerate_cocycles(pair_groupoid(1), 17)
    assert len(enumerate_cocycles(pair_groupoid(1), 17, cap=17)) == 1


def test_cocycle_searches_share_one_target_per_order(monkeypatch):
    targets = []
    search = hom_search._mappings

    def recorded(g, target):
        targets.append(target)
        return search(g, target)

    cocycles._cyclic_target.cache_clear()
    monkeypatch.setattr(hom_search, "_mappings", recorded)
    assert len(enumerate_cocycles(pair_groupoid(2), 5)) == 5
    assert len(enumerate_cocycles(group_bundle([2]), 5)) == 1
    assert len(enumerate_cocycles(pair_groupoid(2), 3)) == 3
    assert [h.arrow_count for h in targets] == [5, 5, 3]
    assert targets[0] is targets[1]
    assert cocycles._cyclic_target.cache_info().misses == 2  # one build per order


def test_cocycle_enumeration_enforces_the_search_budget():
    # 16 arrows and order 16 pass the cap; the 16^4 cocycles of 16 entries
    # each fit the budget, and the 16^7 of pair(8), of 64 entries each, do not
    assert len(enumerate_cocycles(disjoint_union([pair_groupoid(2)] * 4), 16)) == 16 ** 4
    with pytest.raises(CapExceeded, match="homomorphism search needs 17179869184 mapping "
                       "entries, over the budget of 2000000"):
        enumerate_cocycles(pair_groupoid(8), 16, cap=64)


@pytest.fixture
def cocycle_searches(monkeypatch):
    """The homomorphism searches `enumerate_cocycles` runs, by order of Z/n."""
    searches = []
    search = hom_search._mappings

    def counted(domain, codomain, **kwargs):
        searches.append(codomain.arrow_count)
        return search(domain, codomain, **kwargs)

    monkeypatch.setattr(hom_search, "_mappings", counted)
    return searches


def test_each_order_is_searched_once_per_groupoid(cocycle_searches):
    g = disjoint_union([pair_groupoid(2), group_bundle([2])])
    first = enumerate_cocycles(g, 4)
    second = enumerate_cocycles(g, 4)
    assert cocycle_searches == [4]
    assert second == first and second is not first
    assert all(c is not d for c, d in zip(first, second))
    first.clear()
    assert enumerate_cocycles(g, 4) == second
    assert len(enumerate_cocycles(g, 2)) == 4
    assert cocycle_searches == [4, 2]
    # an equal groupoid has its own cache
    assert enumerate_cocycles(disjoint_union([pair_groupoid(2), group_bundle([2])]), 4) == second
    assert cocycle_searches == [4, 2, 4]


def test_the_cap_refuses_after_the_cocycles_are_kept(cocycle_searches):
    g, point = pair_groupoid(2), pair_groupoid(1)
    assert len(enumerate_cocycles(g, 2)) == 2
    assert len(enumerate_cocycles(point, 3)) == 1
    with pytest.raises(CapExceeded, match="cocycle enumeration"):
        enumerate_cocycles(g, 2, cap=1)
    with pytest.raises(CapExceeded, match="into Z/3"):
        enumerate_cocycles(point, 3, cap=2)
    assert cocycle_searches == [2, 3]
