"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The corpus is the standard family corpus (pair groupoids up to 3 points,
cyclic groups up to order 4, bundles over up to 3 points, transformation
groupoids with group order and point count up to 4, and disjoint unions),
plus seeded random mutations for the negative tests.
"""

import json
import random
import subprocess
import sys
from itertools import permutations, product as iproduct
from math import comb, factorial

import numpy as np
import pytest

from etale_kit.aut_group import (
    AutPair,
    FiniteGroupAction,
    classify_faut,
    factors_through_abelianization,
    fixes_diagonal,
    identity_pair,
    pair_matrix,
    sd_inverse,
    sd_multiply,
)
from etale_kit.cocycles import cocycle_product, enumerate_cocycles, trivial_cocycle
from etale_kit.cstar import (
    AlgebraElement,
    LeftRegularRep,
    convolve,
    reduced_norm,
    slice_of_bisection,
    slice_product,
    slice_to_bisection,
    slices_equal,
    star,
)
from etale_kit.decomposition import (
    build_hom,
    decompose,
    enumerate_decomposition_data,
    quotient_hom,
    rigidity_check,
)
from etale_kit.errors import HypothesisError
from etale_kit.families import (
    cyclic_groupoid,
    disjoint_union,
    group_bundle,
    pair_groupoid,
    standard_corpus,
)
from etale_kit.groupoid import (
    enumerate_automorphisms,
    identity_hom,
    is_effective,
    validation_report,
)
from etale_kit.inverse_semigroup import (
    bisection_product,
    canonical_germ_iso,
    enumerate_bisections,
)
from etale_kit.mutate import enumerate_mutations, sample_mutations

CORPUS = standard_corpus()


def announce(capsys, number, description, detail=""):
    with capsys.disabled():
        suffix = f"  [{detail}]" if detail else ""
        print(f"\nACCEPTANCE {number} PASS: {description}{suffix}")


def test_criterion_1_axiom_suite_and_mutation_kill(capsys):
    for name, g in CORPUS:
        assert validation_report(g).ok, name
    total = killed = 0
    for name, g in CORPUS:
        for label, mutant in enumerate_mutations(g):
            total += 1
            if not validation_report(mutant, stop_early=True).ok:
                killed += 1
            else:  # pragma: no cover - documented miss
                print(f"missed mutation: {name} {label}")
    rate = killed / total
    assert rate >= 0.99
    rnd = random.Random(2024)
    for _ in range(200):
        name, g = CORPUS[rnd.randrange(len(CORPUS))]
        for label, mutant in sample_mutations(g, rnd, 1):
            assert not validation_report(mutant, stop_early=True).ok, (name, label)
    announce(capsys, 1, "axiom suite and mutation kill",
             f"{killed}/{total} mutations caught, rate {rate:.4f}")


def test_criterion_2_cstar_numerics(capsys):
    rng = np.random.default_rng(42)
    rep_residual = 0.0
    identity_residual = 0.0
    norm_checked = 0
    for name, g in CORPUS:
        if not g.arrow_count:
            continue
        for _ in range(3):
            f1 = AlgebraElement(g, rng.normal(size=g.arrow_count)
                                + 1j * rng.normal(size=g.arrow_count))
            f2 = AlgebraElement(g, rng.normal(size=g.arrow_count)
                                + 1j * rng.normal(size=g.arrow_count))
            for x in g.units:
                rep = LeftRegularRep(g, x)
                if not rep.basis:
                    continue
                m1, m2 = rep.matrix(f1), rep.matrix(f2)
                rep_residual = max(rep_residual, float(np.max(np.abs(
                    rep.matrix(convolve(f1, f2)) - m1 @ m2))))
                rep_residual = max(rep_residual, float(np.max(np.abs(
                    rep.matrix(star(f1)) - m1.conj().T))))
    assert rep_residual <= 1e-12
    count = 0
    while count < 1000:
        for name, g in CORPUS:
            if not g.arrow_count:
                continue
            f = AlgebraElement(g, rng.normal(size=g.arrow_count)
                               + 1j * rng.normal(size=g.arrow_count))
            lhs = reduced_norm(convolve(star(f), f))
            rhs = reduced_norm(f) ** 2
            identity_residual = max(identity_residual,
                                    abs(lhs - rhs) / max(1.0, rhs))
            count += 1
    assert identity_residual <= 1e-9
    for name, g in CORPUS:
        semigroup = enumerate_bisections(g)
        for b in semigroup.elements[:20]:
            if not b.arrows:
                continue
            coeff = np.zeros(g.arrow_count, dtype=complex)
            for a in b.arrows:
                coeff[a] = rng.normal() + 1j * rng.normal()
            f = AlgebraElement(g, coeff)
            assert abs(reduced_norm(f) - float(np.max(np.abs(coeff)))) <= 1e-12
            norm_checked += 1
    announce(capsys, 2, "reduced C*-algebra numerics",
             f"rep residual {rep_residual:.2e}, identity residual "
             f"{identity_residual:.2e} over {count} elements, "
             f"{norm_checked} bisection norms")


def test_criterion_3_bisection_slice_correspondence(capsys):
    pairs_checked = 0
    for g in (pair_groupoid(2), cyclic_groupoid(3)):
        semigroup = enumerate_bisections(g)
        for u in semigroup.elements:
            su = slice_of_bisection(u)
            for v in semigroup.elements:
                lhs = slice_product(su, slice_of_bisection(v))
                rhs = slice_of_bisection(bisection_product(u, v))
                assert slices_equal(lhs, rhs)
                pairs_checked += 1
    assert pairs_checked == 49 + 16
    roundtrips = 0
    for name, g in CORPUS:
        if not is_effective(g):
            continue
        for b in enumerate_bisections(g).elements:
            assert slice_to_bisection(slice_of_bisection(b)).arrows == b.arrows
            roundtrips += 1
    counts = [len(enumerate_bisections(pair_groupoid(n))) for n in (1, 2, 3)]
    oracle = [sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
              for n in (1, 2, 3)]
    assert counts == oracle == [2, 7, 34]
    announce(capsys, 3, "bisection-slice correspondence",
             f"{pairs_checked} product pairs, {roundtrips} slice roundtrips, "
             f"counts {counts}")


def test_criterion_4_germ_isomorphism(capsys):
    for name, g in CORPUS:
        iso = canonical_germ_iso(g)
        assert iso.is_bijective(), name
        assert iso.codomain == g
    announce(capsys, 4, "germ groupoid isomorphism",
             f"{len(CORPUS)} corpus groupoids")


def test_criterion_5_decomposition_roundtrip(capsys):
    effective = [(n, g) for n, g in CORPUS if is_effective(g)]
    roundtrips = 0
    soundness = 0
    for gname, g in CORPUS:
        for hname, h in effective:
            for data in enumerate_decomposition_data(g, h, 4):
                matrix = build_hom(g, h, data)
                recovered = decompose(matrix)
                assert recovered == data, (gname, hname)
                roundtrips += 1
                rebuilt = build_hom(g, h, recovered)
                if matrix.entries.size:
                    assert float(np.max(np.abs(
                        rebuilt.entries - matrix.entries))) <= 1e-9
                soundness += 1
    assert soundness >= 500
    announce(capsys, 5, "decomposition roundtrip",
             f"{roundtrips} triples over {len(CORPUS)}x{len(effective)} pairs")


def test_criterion_6_rigidity(capsys):
    cases = [
        ("cyclic_group(2)", cyclic_groupoid(2)),
        ("group_bundle([2,1])", group_bundle([2, 1])),
        ("pair(2)+cyclic_group(2)",
         disjoint_union([pair_groupoid(2), cyclic_groupoid(2)])),
    ]
    for name, g in cases:
        iso = rigidity_check(quotient_hom(g))
        assert iso.is_bijective(), name
        assert is_effective(iso.codomain)
    announce(capsys, 6, "rigidity through the fiber-summing surjection",
             ", ".join(name for name, _ in cases))


def _bruteforce_automorphism_count(g):
    # every arrow whose source is itself is a unit here, so a bijective
    # homomorphism must permute the unit block; checking all unit-preserving
    # arrow bijections is therefore exhaustive
    assert {a for a in g.arrows() if g.src[a] == a} == set(g.units)
    units = list(g.units)
    others = [a for a in g.arrows() if a not in g.unit_set]
    count = 0
    for up in permutations(units):
        for op in permutations(others):
            perm = {**{u: v for u, v in zip(units, up)},
                    **{a: b for a, b in zip(others, op)}}
            ok = all(perm[g.src[a]] == g.src[perm[a]]
                     and perm[g.rng[a]] == g.rng[perm[a]]
                     and perm[g.inv[a]] == g.inv[perm[a]]
                     for a in g.arrows())
            if ok and all(g.compose.get((perm[a], perm[b])) == perm[c]
                          for (a, b), c in g.compose.items()):
                count += 1
    return count


def _bruteforce_cocycle_count(g, n):
    count = 0
    for exps in iproduct(range(n), repeat=g.arrow_count):
        if any(exps[x] for x in g.units):
            continue
        if all((exps[a] + exps[b]) % n == exps[c]
               for (a, b), c in g.compose.items()):
            count += 1
    return count


def test_criterion_7_semidirect_product(capsys):
    r3 = pair_groupoid(3)
    auts = enumerate_automorphisms(r3)
    cocycles = enumerate_cocycles(r3, 3)
    assert len(auts) == 6 == _bruteforce_automorphism_count(r3)
    assert len(cocycles) == 9 == _bruteforce_cocycle_count(r3, 3)
    checked_tables = []
    for g, order in ((pair_groupoid(2), 2), (r3, 3)):
        pairs = [AutPair(phi, c)
                 for phi in enumerate_automorphisms(g)
                 for c in enumerate_cocycles(g, order)]
        index = {}
        for i, p in enumerate(pairs):
            index[(p.phi.mapping, tuple((v.num, v.den) for v in p.cocycle.values))] = i

        def key(p):
            return (p.phi.mapping, tuple((v.num, v.den) for v in p.cocycle.values))

        table = [[index[key(sd_multiply(a, b))] for b in pairs] for a in pairs]
        ident = index[key(identity_pair(g))]
        size = len(pairs)
        for i in range(size):
            assert table[ident][i] == i == table[i][ident]
            assert table[i][index[key(sd_inverse(pairs[i]))]] == ident
        for i, j, k in iproduct(range(size), repeat=3):
            assert table[table[i][j]][k] == table[i][table[j][k]]
        mats = [pair_matrix(p).entries for p in pairs]
        for i in range(size):
            for j in range(size):
                assert float(np.max(np.abs(
                    pair_matrix(sd_multiply(pairs[i], pairs[j])).entries
                    - mats[i] @ mats[j]))) <= 1e-12
        flat = {m.tobytes() for m in mats}
        assert len(flat) == size
        checked_tables.append(size)
    assert checked_tables[1] == 54
    announce(capsys, 7, "semidirect product group laws",
             f"orders {checked_tables}, |Aut|=6, |cocycles mu3|=9 vs brute force")


def test_criterion_8_diagonal_fixing_automorphisms(capsys):
    principal = [(n, g) for n, g in CORPUS if is_effective(g)]
    pairs_checked = 0
    for name, g in principal:
        cocycles = enumerate_cocycles(g, 2)
        for phi in enumerate_automorphisms(g):
            for c in cocycles:
                assert fixes_diagonal(AutPair(phi, c)) == phi.is_identity(), name
                pairs_checked += 1
        fauts = classify_faut(g, 2)
        for c1 in fauts:
            for c2 in fauts:
                assert cocycle_product(c1, c2) == cocycle_product(c2, c1)
    announce(capsys, 8, "diagonal-fixing automorphisms",
             f"{pairs_checked} pairs over {len(principal)} principal groupoids")


def test_criterion_9_abelianization(capsys):
    r2 = pair_groupoid(2)
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    s3 = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]

    def sign_of(p):
        flips = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return -1 if flips % 2 else 1

    sign = [c for c in enumerate_cocycles(r2, 2) if any(v.num for v in c.values)][0]
    m_sign = pair_matrix(AutPair(identity_hom(r2), sign))
    m_id = pair_matrix(identity_pair(r2))
    action = FiniteGroupAction(
        s3, [m_sign if sign_of(p) < 0 else m_id for p in perms])
    cert = factors_through_abelianization(action)
    assert cert.ok and len(cert.quotient_table) == 2
    swap = [p for p in enumerate_automorphisms(r2) if not p.is_identity()][0]
    m_swap = pair_matrix(AutPair(swap, trivial_cocycle(r2)))
    with pytest.raises(HypothesisError) as err:
        factors_through_abelianization(FiniteGroupAction(
            [[0, 1], [1, 0]], [m_id, m_swap]))
    assert "element 1 does not fix the diagonal" in str(err.value)
    announce(capsys, 9, "abelianization certificate",
             "sign action certifies through order 2; swap generator named")


def test_criterion_10_selftest_determinism(capsys):
    cmd = [sys.executable, "-m", "etale_kit.cli", "--json",
           "selftest", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["ok"]
    announce(capsys, 10, "selftest determinism",
             f"{len(report['checks'])} checks byte-identical across runs")
