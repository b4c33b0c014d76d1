"""Convolution algebra, regular representations, norms, normalizers, slices."""

import numpy as np
import pytest

from etale_kit.cstar import (
    AlgebraElement,
    convolve,
    delta,
    LeftRegularRep,
    is_normalizer,
    reduced_norm,
    slice_failure,
    slice_of_bisection,
    slice_product,
    slice_to_bisection,
    slices_equal,
    star,
    Slice,
)
from etale_kit.errors import TOL, HypothesisError, SliceError, StructuralError
from etale_kit.families import group_bundle, pair_groupoid
from etale_kit.inverse_semigroup import Bisection, bisection_product, enumerate_bisections


def convolve_bruteforce(f, g):
    """Direct double loop over arrow pairs, independent of the indexed kernel."""
    gp = f.groupoid
    out = np.zeros(gp.arrow_count, dtype=complex)
    for a in gp.arrows():
        for b in gp.arrows():
            if gp.src[a] == gp.rng[b]:
                out[gp.compose[(a, b)]] += f.coeff[a] * g.coeff[b]
    return out


def random_elements(g, seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield AlgebraElement(
            g, rng.normal(size=g.arrow_count) + 1j * rng.normal(size=g.arrow_count))


def test_delta_convolution_rules(r2_hand):
    for (a, b), c in r2_hand.compose.items():
        prod = convolve(delta(r2_hand, a), delta(r2_hand, b))
        assert np.allclose(prod.coeff, delta(r2_hand, c).coeff)
    # non-composable pair gives zero: (1,2) then (1,2) again
    prod = convolve(delta(r2_hand, 2), delta(r2_hand, 2))
    assert np.allclose(prod.coeff, 0)


def test_all_ones_convolution_doubles(r2_hand):
    ones = AlgebraElement(r2_hand, np.ones(4))
    assert np.allclose(convolve(ones, ones).coeff, 2 * np.ones(4))


def test_convolution_matches_bruteforce(corpus):
    for name, g in corpus:
        if not g.arrow_count:
            continue
        fs = list(random_elements(g, seed=7, count=2))
        got = convolve(fs[0], fs[1]).coeff
        assert np.allclose(got, convolve_bruteforce(fs[0], fs[1]), atol=1e-12), name


def test_star_is_antimultiplicative(r2_hand):
    f, g = random_elements(r2_hand, seed=3, count=2)
    lhs = star(convolve(f, g)).coeff
    rhs = convolve(star(g), star(f)).coeff
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_elements_reject_mismatched_groupoids(r2_hand, z2_hand):
    f = delta(r2_hand, 0)
    g = delta(z2_hand, 0)
    with pytest.raises(StructuralError):
        convolve(f, g)


def test_elements_reject_nonfinite_values(r2_hand):
    with pytest.raises(StructuralError):
        AlgebraElement(r2_hand, [np.nan, 0, 0, 0])


def test_left_regular_frozen_examples(r2_hand, z2_hand):
    rep = LeftRegularRep(r2_hand, 0)
    assert rep.basis == (0, 3)
    # the arrow (2,1) acts as the matrix unit E_21 on basis ((1,1),(2,1))
    assert np.allclose(rep.matrix(delta(r2_hand, 3)), np.array([[0, 0], [1, 0]]))
    assert np.allclose(rep.matrix(delta(r2_hand, 0) + delta(r2_hand, 1)), np.eye(2))
    repz = LeftRegularRep(z2_hand, 0)
    assert np.allclose(repz.matrix(delta(z2_hand, 1)), np.array([[0, 1], [1, 0]]))


def test_left_regular_rejects_non_units(r2_hand):
    with pytest.raises(StructuralError):
        LeftRegularRep(r2_hand, 2)


def test_rep_is_star_homomorphism(corpus):
    for name, g in corpus:
        fs = list(random_elements(g, seed=11, count=2))
        if not fs:
            continue
        f1, f2 = fs
        for x in g.units:
            rep = LeftRegularRep(g, x)
            if not rep.basis:
                continue
            m1, m2 = rep.matrix(f1), rep.matrix(f2)
            assert np.max(np.abs(rep.matrix(convolve(f1, f2)) - m1 @ m2)) <= 1e-12, name
            assert np.max(np.abs(rep.matrix(star(f1)) - m1.conj().T)) <= 1e-12, name


def test_norm_frozen_examples(r2_hand):
    assert reduced_norm(delta(r2_hand, 0) + delta(r2_hand, 1)) == pytest.approx(1.0, abs=1e-12)
    swap = delta(r2_hand, 2) + delta(r2_hand, 3)
    assert reduced_norm(swap) == pytest.approx(1.0, abs=1e-12)
    ones = AlgebraElement(r2_hand, np.ones(4))
    assert reduced_norm(ones) == pytest.approx(2.0, abs=1e-12)


def test_norm_against_eigenvalue_oracle(corpus):
    # largest singular value equals the root of the largest eigenvalue of m* m
    for name, g in corpus[:6]:
        for f in random_elements(g, seed=5, count=3):
            oracle = 0.0
            for x in g.units:
                rep = LeftRegularRep(g, x)
                if not rep.basis:
                    continue
                m = rep.matrix(f)
                oracle = max(oracle, float(np.sqrt(np.max(
                    np.linalg.eigvalsh(m.conj().T @ m)))))
            assert reduced_norm(f) == pytest.approx(oracle, abs=1e-9), name


def test_cstar_identity_random(corpus):
    for name, g in corpus:
        for f in random_elements(g, seed=13, count=5):
            lhs = reduced_norm(convolve(star(f), f))
            rhs = reduced_norm(f) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs), name


def test_norm_vanishes_only_at_zero(corpus):
    for name, g in corpus:
        for f in random_elements(g, seed=17, count=2):
            assert reduced_norm(f) > 0, name
            assert np.max(np.abs(f.coeff)) <= reduced_norm(f) + 1e-9, name
        if g.arrow_count:
            assert reduced_norm(AlgebraElement(g, np.zeros(g.arrow_count))) == 0.0


def test_normalizer_examples(r2_hand):
    swap = delta(r2_hand, 2) + 0.5 * delta(r2_hand, 3)
    assert is_normalizer(swap)  # supported on a bisection
    assert is_normalizer(delta(r2_hand, 0) + delta(r2_hand, 1))  # diagonal
    bad = delta(r2_hand, 0) + delta(r2_hand, 2)  # support has non-injective rng
    assert not is_normalizer(bad)


def test_normalizers_are_bisection_supported_iff_effective(corpus):
    import random
    rnd = random.Random(23)
    from etale_kit.groupoid import is_effective
    for name, g in corpus:
        if not is_effective(g) or not g.arrow_count:
            continue
        for _ in range(20):
            size = rnd.randrange(1, g.arrow_count + 1)
            support = sorted(rnd.sample(range(g.arrow_count), size))
            coeff = np.zeros(g.arrow_count, dtype=complex)
            for a in support:
                coeff[a] = complex(rnd.uniform(0.5, 2.0), rnd.uniform(-1, 1))
            f = AlgebraElement(g, coeff)
            try:
                Bisection(g, tuple(support))
                expected = True
            except StructuralError:
                expected = False
            assert is_normalizer(f) == expected, (name, support)


def test_slice_of_bisection_and_product(r2_hand):
    u = Bisection(r2_hand, (2,))
    v = Bisection(r2_hand, (3,))
    prod = slice_product(slice_of_bisection(u), slice_of_bisection(v))
    assert slices_equal(prod, slice_of_bisection(Bisection(r2_hand, (0,))))
    empty = slice_of_bisection(Bisection(r2_hand, ()))
    assert empty.dim == 0
    assert slice_product(empty, slice_of_bisection(u)).dim == 0


def test_slice_map_is_multiplicative_and_injective(r2_hand):
    semigroup = enumerate_bisections(r2_hand)
    seen = []
    for u in semigroup.elements:
        su = slice_of_bisection(u)
        for prev in seen:
            assert not slices_equal(su, prev)
        seen.append(su)
        for v in semigroup.elements:
            lhs = slice_product(su, slice_of_bisection(v))
            rhs = slice_of_bisection(bisection_product(u, v))
            assert slices_equal(lhs, rhs)


def test_slice_roundtrip_on_effective(corpus):
    from etale_kit.groupoid import is_effective
    for name, g in corpus:
        if not is_effective(g):
            continue
        for b in enumerate_bisections(g).elements:
            assert slice_to_bisection(slice_of_bisection(b)).arrows == b.arrows, name


def test_slice_recovery_refuses_non_effective(z2_hand):
    sl = slice_of_bisection(Bisection(z2_hand, (1,)))
    with pytest.raises(HypothesisError):
        slice_to_bisection(sl)


def test_non_slices_are_rejected_with_reason(r2_hand):
    # a mixture across two sources is not closed under diagonal projections
    mix = Slice(r2_hand, np.array([[0, 0, 1.0, 1.0]], dtype=complex))
    assert slice_failure(mix) is not None
    with pytest.raises(SliceError):
        slice_to_bisection(mix)
    # the span of both units is fine
    diag = Slice(r2_hand, np.eye(4, dtype=complex)[:2])
    assert slice_failure(diag) is None


def reference_slice_failure(m):
    """slice_failure as the definition reads: each member of the basis is
    multiplied by the point mass of each unit, on each side, by convolution,
    and the product is tested with Slice.contains; then the support checks."""
    g = m.groupoid
    for x in g.units:
        d = delta(g, x)
        for v in m.basis:
            fv = AlgebraElement(g, v)
            if not m.contains(convolve(d, fv)):
                return (f"not closed under left multiplication by the "
                        f"diagonal at unit {x}")
            if not m.contains(convolve(fv, d)):
                return (f"not closed under right multiplication by the "
                        f"diagonal at unit {x}")
    support = sorted({int(a) for v in m.basis
                      for a in np.nonzero(np.abs(v) > TOL)[0]})
    try:
        Bisection(g, tuple(support))
    except StructuralError as exc:
        return f"members are not normalizers: support is not a bisection ({exc})"
    if len(support) != m.dim:
        return (f"dimension {m.dim} does not match support size {len(support)}")
    return None


def _random_unitary(rng, k):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _parity_slices(g, rng):
    """Bisection slices, random dense slices, random rows on a few arrows,
    rotated point masses and plain subsets of point masses of g."""
    n = g.arrow_count
    eye = np.eye(n, dtype=complex)
    for b in enumerate_bisections(g).elements:
        yield slice_of_bisection(b)
    for _ in range(4):
        k = int(rng.integers(1, n + 1))
        yield Slice(g, rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
    for _ in range(8):
        rows = rng.normal(size=(int(rng.integers(1, 3)), n))
        rows[:, rng.choice(n, size=max(n - 3, 0), replace=False)] = 0
        yield Slice(g, rows)
    for _ in range(4):
        arrows = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        yield Slice(g, _random_unitary(rng, arrows.size) @ eye[arrows])
        yield Slice(g, eye[np.sort(arrows)])


def test_slice_failure_matches_reference_loop(corpus):
    rng = np.random.default_rng(29)
    verdicts = set()
    for name, g in corpus:
        if not g.arrow_count or g.arrow_count > 16:
            continue
        for m in _parity_slices(g, rng):
            want = reference_slice_failure(m)
            assert slice_failure(m) == want, (name, m.basis)
            verdicts.add(want and want.split(":")[0])
    closure = "not closed under {} multiplication by the diagonal at unit {}"
    assert {None, "members are not normalizers", closure.format("left", 0),
            closure.format("right", 0), closure.format("left", 1)} <= verdicts


@pytest.mark.parametrize("rows, message", [
    # δ0 + δ2 is fixed on the left by unit 0, but on the right unit 0 keeps δ0
    ([[1, 0, 1, 0]], "not closed under right multiplication by the diagonal at unit 0"),
    # δ2 + δ3: on the left unit 0 keeps only δ2
    ([[0, 0, 1, 1]], "not closed under left multiplication by the diagonal at unit 0"),
])
def test_slice_failure_names_side_and_unit_on_pair2(rows, message):
    g = pair_groupoid(2)
    m = Slice(g, np.array(rows, dtype=complex))
    assert slice_failure(m) == message == reference_slice_failure(m)


def test_slice_failure_names_a_later_unit_on_pair3():
    g = pair_groupoid(3)
    # arrows 6 (2 -> 1) and 8 (1 -> 2) avoid unit 0 on both sides; on the
    # left, unit 1 keeps only arrow 6
    assert (g.src[6], g.rng[6], g.src[8], g.rng[8]) == (2, 1, 1, 2)
    m = Slice(g, np.eye(9, dtype=complex)[[6]] + np.eye(9, dtype=complex)[[8]])
    message = "not closed under left multiplication by the diagonal at unit 1"
    assert slice_failure(m) == message == reference_slice_failure(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0)])
def test_slice_rejects_nonfinite_basis(r2_hand, bad):
    with pytest.raises(StructuralError, match="slice basis must be finite"):
        Slice(r2_hand, [[bad, 0, 0, 0]])


@pytest.mark.parametrize("g, limit_mb", [
    # projecting every unit's products at once would hold units * dim * 2
    # rows of arrow length: 2 MB on pair(16), and 256 MB on 200 points
    (pair_groupoid(16), 2),
    (group_bundle([1] * 200), 8),
], ids=["pair(16)", "200 points"])
def test_slice_check_memory_stays_within_a_block(g, limit_mb):
    import tracemalloc
    m = Slice(g, np.eye(g.arrow_count, dtype=complex)[list(g.units)])
    tracemalloc.start()
    try:
        assert slice_failure(m) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20, peak


# -- the algebra layer against its first implementation ------------------------
#
# The regular representations, `is_normalizer` and `slice_product` read their
# products from one convolution kernel over the compose arrays.  These are
# the implementations they replaced, kept as the reference: each product
# must agree with them bit for bit.


def reference_convolve(f, h):
    """convolve as first written: one np.add.at over the compose arrays."""
    g = f.groupoid
    items = list(g.compose.items())
    left = np.array([a for (a, _), _ in items], dtype=np.intp)
    right = np.array([b for (_, b), _ in items], dtype=np.intp)
    out = np.array([c for _, c in items], dtype=np.intp)
    result = np.zeros(g.arrow_count, dtype=complex)
    np.add.at(result, out, f.coeff[left] * h.coeff[right])
    return AlgebraElement(g, result)


def reference_regular(g, unit, f):
    """The basis and matrix at a unit, from a loop over by_src and compose."""
    by_src = g.by_src()
    basis = by_src[unit]
    pos = {a: i for i, a in enumerate(basis)}
    rows, cols, coeffs = [], [], []
    for a in basis:
        for b in by_src[g.rng[a]]:
            rows.append(pos[g.compose[(b, a)]])
            cols.append(pos[a])
            coeffs.append(b)
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    np.add.at(m, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)),
              f.coeff[np.array(coeffs, dtype=np.intp)])
    return basis, m


def reference_reduced_norm(f):
    best = 0.0
    for x in f.groupoid.units:
        basis, m = reference_regular(f.groupoid, x, f)
        if basis:
            best = max(best, float(np.linalg.norm(m, 2)))
    return best


def reference_is_normalizer(f):
    """Four convolutions per unit, with the point mass of the unit."""
    g = f.groupoid
    scale = float(np.max(np.abs(f.coeff))) if g.arrow_count else 0.0
    bound = TOL * max(1.0, scale * scale)
    fs = star(f)
    off_units = [a for a in g.arrows() if not g.is_unit(a)]
    for x in g.units:
        d = delta(g, x)
        for prod in (reference_convolve(reference_convolve(f, d), fs),
                     reference_convolve(reference_convolve(fs, d), f)):
            if off_units and np.max(np.abs(prod.coeff[off_units])) > bound:
                return False
    return True


def reference_slice_product(m, n):
    """One convolution per pair of basis rows, each row wrapped as an element."""
    g = m.groupoid
    prods = [reference_convolve(AlgebraElement(g, u), AlgebraElement(g, v)).coeff
             for u in m.basis for v in n.basis]
    if not prods:
        return Slice(g, np.zeros((0, g.arrow_count), dtype=complex), _orthonormal=True)
    return Slice(g, np.array(prods))


def _reference_cases(corpus):
    return list(corpus) + [(f"pair({n})", pair_groupoid(n)) for n in (0, 4, 5)]


def _parity_elements(g, rng):
    """Dense random elements, sparse ones, unimodular ones on bisections, and
    the Fourier matrix f(a) = w^(rng a * src a) over the units, which on
    pair(k) has f f* and f* f diagonal without being a normalizer."""
    n = g.arrow_count
    point = {x: i for i, x in enumerate(g.units)}
    yield AlgebraElement(g, [np.exp(2j * np.pi * point[g.rng[a]] * point[g.src[a]]
                                    / len(g.units)) for a in g.arrows()])
    for _ in range(3):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v[rng.random(n) < rng.random()] = 0
        yield AlgebraElement(g, v)
    for b in (enumerate_bisections(g).elements[:6] if n <= 16 else ()):
        v = np.zeros(n, dtype=complex)
        v[list(b.arrows)] = np.exp(1j * rng.normal(size=len(b.arrows)))
        yield AlgebraElement(g, v)


def test_algebra_matches_the_reference_bit_for_bit(corpus):
    rng = np.random.default_rng(31)
    verdicts = set()
    for name, g in _reference_cases(corpus):
        elements = list(_parity_elements(g, rng))
        for f, h in zip(elements, elements[1:] + elements[:1]):
            assert (convolve(f, h).coeff.tobytes()
                    == reference_convolve(f, h).coeff.tobytes()), name
            for x in g.units:
                basis, want = reference_regular(g, x, f)
                rep = LeftRegularRep(g, x)
                assert rep.basis == basis, (name, x)
                assert rep.matrix(f).tobytes() == want.tobytes(), (name, x)
            assert reduced_norm(f) == reference_reduced_norm(f), name
            verdict = is_normalizer(f)
            assert verdict == reference_is_normalizer(f), (name, f.coeff)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_slice_product_matches_the_reference_bit_for_bit(corpus):
    rng = np.random.default_rng(37)
    for name, g in _reference_cases(corpus):
        if g.arrow_count > 16:
            continue
        n = g.arrow_count
        slices = [slice_of_bisection(b) for b in enumerate_bisections(g).elements[:8]]
        slices += [Slice(g, rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
                   for k in (1, 2, 3)]
        for m in slices:
            for s in slices:
                want = reference_slice_product(m, s).basis
                assert slice_product(m, s).basis.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("n, dim, limit_mb", [(16, 16, 8), (8, 64, 16)])
def test_slice_product_of_random_slices_in_small_memory(n, dim, limit_mb):
    # the kernel takes one row of the first basis at a time; all rows at
    # once held dim * dim * |compose| terms, 25 MB and 52 MB here
    import tracemalloc
    g = pair_groupoid(n)
    rng = np.random.default_rng(41)
    m, s = (Slice(g, rng.normal(size=(dim, g.arrow_count))
                  + 1j * rng.normal(size=(dim, g.arrow_count))) for _ in range(2))
    tracemalloc.start()
    try:
        product = slice_product(m, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20, peak
    assert product.basis.tobytes() == reference_slice_product(m, s).basis.tobytes()
