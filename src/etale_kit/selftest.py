"""The built-in property suite behind the `selftest` command.

Every check is deterministic given the seed and the arrow cap, and reports a
name, a pass flag, and a witness for failures.  The acceptance test suite runs
heavier exhaustive versions of the same properties; this driver keeps each
check small enough for interactive use.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

import numpy as np

from .aut_group import (
    AutPair,
    FiniteGroupAction,
    factors_through_abelianization,
    fixes_diagonal,
    identity_pair,
    pair_matrix,
    sd_inverse,
    sd_multiply,
)
from .cocycles import enumerate_cocycles, precompose_cocycle, trivial_cocycle
from .cstar import (
    AlgebraElement,
    LeftRegularRep,
    convolve,
    delta,
    reduced_norm,
    slice_of_bisection,
    slice_product,
    slice_to_bisection,
    slices_equal,
    star,
)
from .decomposition import (
    build_hom,
    decompose,
    enumerate_decomposition_data,
    quotient_hom,
    rigidity_check,
    validate_hom,
)
from .errors import CapExceeded, HypothesisError, StructuralError
from .families import cyclic_groupoid, disjoint_union, group_bundle, pair_groupoid, standard_corpus
from .groupoid import (
    enumerate_automorphisms,
    identity_hom,
    invariant_subsets,
    is_effective,
    quotient_by_isotropy,
    validation_report,
)
from .inverse_semigroup import (
    Bisection,
    bisection_product,
    canonical_germ_iso,
    enumerate_bisections,
)
from .mutate import sample_mutations

__all__ = ["run_selftest"]


def _partial_injection_count(n: int) -> int:
    from math import comb, factorial
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def _random_element(g, rng: np.random.Generator) -> AlgebraElement:
    v = rng.normal(size=g.arrow_count) + 1j * rng.normal(size=g.arrow_count)
    return AlgebraElement(g, v)


def run_selftest(seed: int = 0, cap: int = 16) -> list[dict]:
    rnd = random.Random(seed)
    nprng = np.random.default_rng(seed)
    corpus = standard_corpus(cap)
    if not corpus:
        raise CapExceeded(f"selftest: the cap {cap} admits no corpus groupoid")
    small = [(n, g) for n, g in corpus if g.arrow_count <= min(cap, 9)]
    checks: list[dict] = []

    def check(name: str, passed: bool, witness=None):
        checks.append({"name": name, "pass": bool(passed),
                       "witness": witness if not passed else None})

    # 1. the corpus satisfies the groupoid axioms
    bad = [(name, v.axiom) for name, g in corpus
           for v in validation_report(g).violations]
    check("corpus_validates", not bad, bad[:3] or None)

    # 2. seeded single-entry mutations are all caught
    missed = []
    for _ in range(200):
        name, g = corpus[rnd.randrange(len(corpus))]
        for label, mutant in sample_mutations(g, rnd, 1):
            if validation_report(mutant, stop_early=True).ok:
                missed.append([name, label])
    check("mutation_kill", not missed, missed[:3] or None)

    # 3. invariant subsets form a lattice containing the extremes
    witness = None
    for name, g in corpus:
        subsets = set(invariant_subsets(g))
        if () not in subsets or g.units not in subsets:
            witness = [name, "missing extremes"]
            break
        for a in subsets:
            for b in subsets:
                if (tuple(sorted(set(a) | set(b))) not in subsets
                        or tuple(sorted(set(a) & set(b))) not in subsets):
                    witness = [name, list(a), list(b)]
                    break
    check("invariant_subsets_lattice", witness is None, witness)

    # 4. isotropy-collapsed quotients are effective, units stay separated
    witness = None
    for name, g in corpus:
        quotient, q = quotient_by_isotropy(g)
        unit_images = [q.mapping[x] for x in g.units]
        if not is_effective(quotient) or len(set(unit_images)) != len(unit_images):
            witness = [name]
            break
    check("quotient_effective", witness is None, witness)

    # 5. pulling a cocycle back along an automorphism stays in the enumeration
    witness = None
    for name, g in small:
        cocycles = enumerate_cocycles(g, 4)
        for phi in enumerate_automorphisms(g):
            for c in cocycles:
                pulled = precompose_cocycle(c, phi.inverse())
                if not any(pulled == d for d in cocycles):
                    witness = [name, phi.mapping]
                    break
    check("cocycle_pullback", witness is None, witness)

    # 6. bisection counts against the partial-injection formula
    witness = None
    for n in (1, 2, 3):
        got = len(enumerate_bisections(pair_groupoid(n)))
        want = _partial_injection_count(n)
        if got != want:
            witness = [n, got, want]
    check("bisection_counts", witness is None, witness)

    # 7. the germ groupoid of the canonical action is isomorphic to the groupoid
    witness = None
    # the groupoid caches its semigroup weakly, so hold what check 12 reads
    effective_bisections = [(name, enumerate_bisections(g))
                            for name, g in corpus if is_effective(g)]
    for name, g in corpus:
        iso = canonical_germ_iso(g)
        if not iso.is_bijective():
            witness = [name]
            break
    check("germ_canonical_iso", witness is None, witness)

    # 8. regular representations are *-homomorphisms
    worst = 0.0
    for name, g in corpus:
        if not g.units:
            continue
        f1, f2 = _random_element(g, nprng), _random_element(g, nprng)
        for x in g.units:
            rep = LeftRegularRep(g, x)
            if not rep.basis:
                continue
            m1, m2 = rep.matrix(f1), rep.matrix(f2)
            worst = max(worst, float(np.max(np.abs(rep.matrix(convolve(f1, f2)) - m1 @ m2))))
            worst = max(worst, float(np.max(np.abs(rep.matrix(star(f1)) - m1.conj().T))))
    check("regular_rep_homomorphism", worst <= 1e-12, worst)

    # 9. the C*-identity holds for random elements
    worst = 0.0
    for name, g in corpus:
        for _ in range(10):
            f = _random_element(g, nprng)
            lhs = reduced_norm(convolve(star(f), f))
            rhs = reduced_norm(f) ** 2
            worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    check("cstar_identity", worst <= 1e-9, worst)

    # 10. evaluation bounds: sup norm below reduced norm, zero only at zero
    witness = None
    for name, g in corpus:
        f = _random_element(g, nprng)
        if g.arrow_count and float(np.max(np.abs(f.coeff))) > reduced_norm(f) + 1e-9:
            witness = [name, "sup exceeds norm"]
        if g.arrow_count and reduced_norm(delta(g, 0)) == 0.0:
            witness = [name, "norm vanishes on a point mass"]
    check("evaluation_bounds", witness is None, witness)

    # 11. on effective groupoids, normalizers are exactly bisection-supported
    witness = None
    from .cstar import is_normalizer
    for name, g in corpus:
        if not is_effective(g) or not g.arrow_count:
            continue
        for _ in range(10):
            size = rnd.randrange(1, g.arrow_count + 1)
            support = sorted(rnd.sample(range(g.arrow_count), size))
            v = np.zeros(g.arrow_count, dtype=complex)
            for a in support:
                v[a] = complex(rnd.uniform(0.5, 1.5), rnd.uniform(-1, 1))
            f = AlgebraElement(g, v)
            try:
                Bisection(g, tuple(support))
                is_bis = True
            except StructuralError:
                is_bis = False
            if is_normalizer(f) != is_bis:
                witness = [name, support]
                break
    check("normalizer_bisection_support", witness is None, witness)

    # 12. bisection-slice correspondence
    witness = None
    r2 = pair_groupoid(2)
    sg = enumerate_bisections(r2)
    for u in sg.elements:
        for v in sg.elements:
            lhs = slice_product(slice_of_bisection(u), slice_of_bisection(v))
            rhs = slice_of_bisection(bisection_product(u, v))
            if not slices_equal(lhs, rhs):
                witness = [list(u.arrows), list(v.arrows)]
    for name, semigroup in effective_bisections:
        if witness is not None:
            break
        for b in semigroup.elements:
            if slice_to_bisection(slice_of_bisection(b)).arrows != b.arrows:
                witness = [name, list(b.arrows)]
                break
    check("slice_correspondence", witness is None, witness)

    # 13/14. decomposition roundtrips, sampled over the corpus
    effective = [(n, g) for n, g in corpus if is_effective(g)]
    triples = []
    for gname, g in corpus:
        for hname, h in effective:
            for data in enumerate_decomposition_data(g, h, 4):
                triples.append((gname, hname, g, h, data))
    rnd.shuffle(triples)
    sample = triples[:150]
    witness = None
    rebuild_witness = None
    for gname, hname, g, h, data in sample:
        matrix = build_hom(g, h, data)
        recovered = decompose(matrix)
        if recovered != data:
            witness = [gname, hname]
            break
        rebuilt = build_hom(g, h, recovered)
        dev = float(np.max(np.abs(rebuilt.entries - matrix.entries))) if matrix.entries.size else 0.0
        if dev > 1e-9:
            rebuild_witness = [gname, hname, dev]
            break
    check("decomposition_roundtrip", witness is None, witness)
    check("rebuild_soundness", rebuild_witness is None, rebuild_witness)

    # 15. fiber-summing quotients decompose as expected
    witness = None
    for name, g in corpus:
        qh = quotient_hom(g)
        if not validate_hom(qh).ok:
            witness = [name, "validation"]
            break
        data = decompose(qh)
        if data.invariant_units != g.units or any(
                v.num != 0 for v in data.cocycle.values):
            witness = [name, "decomposition"]
            break
    check("quotient_hom_decompose", witness is None, witness)

    # 16. rigidity on the three reference cases
    witness = None
    for g in (cyclic_groupoid(2), group_bundle([2, 1]),
              disjoint_union([pair_groupoid(2), cyclic_groupoid(2)])):
        iso = rigidity_check(quotient_hom(g))
        if not iso.is_bijective():
            witness = [g.arrow_count]
    check("rigidity_cases", witness is None, witness)

    # 17/18. semidirect product laws and their monomial realization
    witness = None
    mult_worst = 0.0
    pairs = [AutPair(phi, c)
             for phi in enumerate_automorphisms(r2)
             for c in enumerate_cocycles(r2, 2)]
    table = [[pairs.index(sd_multiply(a, b)) for b in pairs] for a in pairs]
    ident = pairs.index(identity_pair(r2))
    for i in range(len(pairs)):
        if table[ident][i] != i or table[i][ident] != i:
            witness = ["identity", i]
        if table[i][pairs.index(sd_inverse(pairs[i]))] != ident:
            witness = ["inverse", i]
    for i, j, k in iproduct(range(len(pairs)), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            witness = ["associativity", i, j, k]
            break
    for a in pairs:
        for b in pairs:
            lhs = pair_matrix(sd_multiply(a, b)).entries
            rhs = pair_matrix(a).entries @ pair_matrix(b).entries
            mult_worst = max(mult_worst, float(np.max(np.abs(lhs - rhs))))
    check("semidirect_group_laws", witness is None, witness)
    check("pair_matrix_multiplicative", mult_worst <= 1e-12, mult_worst)

    # 19. diagonal-fixing pairs have identity arrow maps on principal groupoids
    witness = None
    for name, g in small:
        if not is_effective(g):
            continue
        for phi in enumerate_automorphisms(g):
            for c in enumerate_cocycles(g, 2):
                if fixes_diagonal(AutPair(phi, c)) != phi.is_identity():
                    witness = [name, phi.mapping]
                    break
    check("faut_iff_identity", witness is None, witness)

    # 20. the sign-character action factors, the point-swap action is refused
    from itertools import permutations
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    s3 = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]

    def sign_of(p):
        flips = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return -1 if flips % 2 else 1

    sign_cocycle = [c for c in enumerate_cocycles(r2, 2)
                    if any(v.num for v in c.values)][0]
    m_sign = pair_matrix(AutPair(identity_hom(r2), sign_cocycle))
    m_id = pair_matrix(identity_pair(r2))
    action = FiniteGroupAction(
        s3, [m_sign if sign_of(p) < 0 else m_id for p in perms])
    cert = factors_through_abelianization(action)
    swap = [phi for phi in enumerate_automorphisms(r2) if not phi.is_identity()][0]
    m_swap = pair_matrix(AutPair(swap, trivial_cocycle(r2)))
    try:
        bad_action = FiniteGroupAction([[0, 1], [1, 0]], [m_id, m_swap])
        factors_through_abelianization(bad_action)
        refused = False
    except HypothesisError:
        refused = True
    check("abelianization_certificate",
          cert.ok and len(cert.quotient_table) == 2 and refused,
          [cert.ok, len(cert.quotient_table), refused])

    return checks
