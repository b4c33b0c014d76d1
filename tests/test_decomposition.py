"""Building, validating, and decomposing diagonal-compatible homomorphism matrices."""

import collections
import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from etale_kit.cocycles import (
    PHASE_ONE,
    Cocycle,
    Phase,
    cocycle_conj,
    cocycle_product,
    enumerate_cocycles,
    precompose_cocycle,
    trivial_cocycle,
)
from etale_kit.cstar import AlgebraElement, _conv_arrays, reduced_norm
from etale_kit import cocycles, decomposition, groupoid
from etale_kit.decomposition import (
    DecompositionData,
    HomMatrix,
    _multiplicativity,
    build_hom,
    decompose,
    enumerate_decomposition_data,
    quotient_hom,
    rigidity_check,
    validate_hom,
)
from etale_kit.errors import (
    TOL,
    CapExceeded,
    HypothesisError,
    InternalInconsistencyError,
    StructuralError,
)
from etale_kit.families import (
    cyclic_groupoid,
    disjoint_union,
    group_bundle,
    pair_groupoid,
    standard_corpus,
)
from etale_kit.groupoid import (
    GroupoidHom,
    compose_homs,
    enumerate_automorphisms,
    enumerate_homomorphisms,
    identity_hom,
    invariant_subsets,
    is_effective,
    quotient_by_isotropy,
    restrict,
    restriction_arrows,
)
from etale_kit.inverse_semigroup import Bisection, enumerate_bisections


def identity_data(g):
    return DecompositionData(g.units, identity_hom(g), trivial_cocycle(g))


def sign_matrix(r2):
    return HomMatrix(r2, r2, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def test_build_identity(r2_hand):
    hm = build_hom(r2_hand, r2_hand, identity_data(r2_hand))
    assert np.allclose(hm.entries, np.eye(4))


def test_build_sign_twist(r2_hand):
    twist = Cocycle(r2_hand, [PHASE_ONE, PHASE_ONE,
                              Phase.exact(1, 2), Phase.exact(1, 2)])
    data = DecompositionData(r2_hand.units, identity_hom(r2_hand), twist)
    hm = build_hom(r2_hand, r2_hand, data)
    assert np.allclose(hm.entries, np.diag([1, 1, -1, -1]))


def test_build_restriction_kills_extra_point():
    g = disjoint_union([pair_groupoid(2), pair_groupoid(1)])
    r2 = pair_groupoid(2)
    sub = restrict(g, (0, 1))
    hom = GroupoidHom(sub, r2, (0, 1, 2, 3))
    data = DecompositionData((0, 1), hom, trivial_cocycle(sub))
    hm = build_hom(g, r2, data)
    expect = np.zeros((4, 5))
    expect[:4, :4] = np.eye(4)
    assert np.allclose(hm.entries, expect)


def test_build_rejects_bad_data(r2_hand, z2_hand):
    with pytest.raises(HypothesisError):
        # {0} is not invariant in pair(2)
        build_hom(r2_hand, r2_hand,
                  DecompositionData((0,), identity_hom(r2_hand), trivial_cocycle(r2_hand)))
    with pytest.raises(HypothesisError):
        # arrow map defined on the wrong restriction (the empty one)
        build_hom(r2_hand, r2_hand,
                  DecompositionData((), identity_hom(r2_hand), trivial_cocycle(r2_hand)))
    # unit-injectivity of the arrow map is required
    two_points = disjoint_union([pair_groupoid(1), pair_groupoid(1)])
    pt = pair_groupoid(1)
    collapse = GroupoidHom(two_points, pt, (0, 0))
    with pytest.raises(HypothesisError):
        build_hom(two_points, pt,
                  DecompositionData(two_points.units, collapse,
                                    trivial_cocycle(two_points)))
    # collapsing a group's isotropy is fine: units stay injective
    hom = GroupoidHom(z2_hand, pt, (0, 0))
    data = DecompositionData(z2_hand.units, hom, trivial_cocycle(z2_hand))
    assert build_hom(z2_hand, pt, data).entries.shape == (1, 2)


def test_validate_identity_and_sign(r2_hand):
    assert validate_hom(HomMatrix(r2_hand, r2_hand, np.eye(4))).ok
    report = validate_hom(sign_matrix(r2_hand))
    assert report.ok
    assert report.failed_checks() == []


def test_validation_report_is_computed_once_and_frozen(r2_hand):
    hm = sign_matrix(r2_hand)
    report = validate_hom(hm)
    assert validate_hom(hm) is report
    assert rigidity_check(hm).is_bijective()
    assert validate_hom(hm) is report
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.is_star_hom = False


def test_validate_random_dense_matrix_fails_with_witness(r2_hand):
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    report = validate_hom(HomMatrix(r2_hand, r2_hand, m))
    assert not report.is_star_hom
    assert report.star_witness is not None


def test_validate_names_the_column_that_breaks_star_preservation():
    # conjugation by diag(1, 2) on pair(2): multiplicative, keeps the
    # diagonal, but scales arrow 2 by 1/2 and its inverse, arrow 3, by 2
    r2 = pair_groupoid(2)
    report = validate_hom(HomMatrix(r2, r2, np.diag([1, 1, 0.5, 2]).astype(complex)))
    assert not report.is_star_hom
    assert report.star_witness == (3, 1.5)
    assert report.diagonal_into_diagonal and report.diagonal_witness is None
    assert report.image_diag_is_ideal and report.ideal_witness is None


def test_decomposition_data_refuses_too_many_invariant_sets_up_front():
    # 30 one-point orbits: 2^30 invariant sets, refused before any is built
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="listing 30 orbits' unions needs "
                       "1073741824 unit sets, over the budget of 1000000"):
        next(enumerate_decomposition_data(group_bundle([1] * 30), pair_groupoid(1), 1))
    assert time.perf_counter() - start < 1.0


def test_validate_counts_overflowing_products_as_failures():
    # every product overflows to +-inf, and their sums to inf - inf = NaN
    r2 = pair_groupoid(2)
    m = np.full((4, 4), 1e200)
    m[0] = -1e200
    report = validate_hom(HomMatrix(r2, r2, m))
    assert not report.is_star_hom
    assert report.star_witness == (0, 0, np.inf)


def test_validate_peak_memory_stays_below_a_dense_product_table():
    # a dense (|compose|, n, n) complex table for pair(8) alone is 32 MB
    g = pair_groupoid(8)
    hm = HomMatrix(g, g, np.eye(g.arrow_count))
    tracemalloc.start()
    try:
        assert validate_hom(hm).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def first_max_residual(g, h, m):
    """(a, b, residual) at the first maximum in (w, a, b) order of
    |m(a.b) - m(a) * m(b)| at target arrow w, from the two compose tables."""
    best = None
    for w in h.arrows():
        for a in g.arrows():
            for b in g.arrows():
                image = m[w][g.compose[(a, b)]] if (a, b) in g.compose else 0
                product = sum(m[l][a] * m[r][b]
                              for (l, r), c in h.compose.items() if c == w)
                residual = abs(image - product)
                if best is None or residual > best[2]:
                    best = (a, b, residual)
    return best


@pytest.mark.parametrize("source, target", [
    (pair_groupoid(2), pair_groupoid(2)),
    (group_bundle([2, 1]), pair_groupoid(2)),
    (cyclic_groupoid(3), cyclic_groupoid(3)),
])
@pytest.mark.parametrize("kind", ["ones", "twos", "random"])
def test_star_witness_is_the_first_maximum(source, target, kind):
    # integer entries keep every residual exact, so ties are real ties
    shape = (target.arrow_count, source.arrow_count)
    m = {"ones": np.ones(shape, dtype=int),
         "twos": 2 * np.ones(shape, dtype=int),
         "random": np.random.default_rng(2).integers(-2, 3, size=shape)}[kind]
    expected = first_max_residual(source, target, m.tolist())
    assert expected[2] > 0
    report = validate_hom(HomMatrix(source, target, m))
    assert report.star_witness == expected


def dense_residual(g, h, m):
    """A dense multiplicativity loop over every cell, one left factor a at a
    time, summing all products in target compose order: (-peak, w, a, b) at
    the first maximum in (w, a, b) order."""
    n, k = g.arrow_count, h.arrow_count
    g_left, g_right, g_out = _conv_arrays(g)
    bounds = np.searchsorted(g_left, np.arange(n + 1))
    left, right, out = _conv_arrays(h)
    m_left, m_right = m[left], m[right]
    peaks = []
    for a in range(n):
        pairs = slice(bounds[a], bounds[a + 1])
        lhs = np.zeros((k, n), dtype=complex)
        lhs[:, g_right[pairs]] = m[:, g_out[pairs]]
        rhs = np.zeros((k, n), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(rhs, out, m_left[:, a, None] * m_right)
            diff = np.abs(lhs - rhs)
        diff[np.isnan(diff)] = np.inf
        w, b = divmod(int(np.argmax(diff)), n)
        peaks.append((-float(diff[w, b]), w, a, b))
    return min(peaks)


def residual_cases(g, h, rng):
    """Matrices with at most one nonzero entry per column: up to two
    `build_hom` images, each with one entry moved to another row, rescaled,
    zeroed, or set to an overflowing 1e200; the identity (a true one where
    the groupoids are equal); random ones with tied integer entries; and ones
    that put every column in the same row.  Then matrices with more: each
    image with one extra entry, or with one column added to its shift by a
    row; dense random complex ones, two of random integers in -2..2, all
    ones, 60 % and 90 % sparse random ones, random +-1e200 entries, and
    zero."""
    k, n = h.arrow_count, g.arrow_count
    images = [build_hom(g, h, data).entries for data in
              itertools.islice(enumerate_decomposition_data(g, h, 2), 2)]
    for m in images:
        yield "image", m
        col = int(rng.integers(n))
        rows = np.flatnonzero(m[:, col])
        if rows.size:
            row = int(rows[0])
            for name, value in (("rescaled", 1.5 * m[row, col]), ("zeroed", 0),
                                ("overflow", 1e200), ("overflow-", -1e200 + 1e200j)):
                x = m.copy()
                x[row, col] = value
                yield name, x
            x = m.copy()
            x[row, col], x[(row + 1) % k, col] = 0, m[row, col]
            yield "moved", x
        yield "all-overflow", 1e200 * m
    yield "identity", np.eye(k, n, dtype=complex)
    ties = np.zeros((k, n), dtype=complex)
    hit = rng.integers(-1, k, size=n)
    ties[hit[hit >= 0], np.flatnonzero(hit >= 0)] = rng.integers(1, 3, size=n)[hit >= 0]
    yield "ties", ties
    one_row = np.zeros((k, n), dtype=complex)
    one_row[int(rng.integers(k))] = rng.normal(size=n) + 1j * rng.normal(size=n)
    yield "one-row", one_row
    for m in images:
        x = m.copy()
        x[int(rng.integers(k)), int(rng.integers(n))] += 0.5
        yield "extra-entry", x
        col = int(rng.integers(n))
        x = m.copy()
        x[:, col] = np.roll(m[:, col], 1) + m[:, col]
        yield "spread", x
    yield "dense", rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    for _ in range(2):
        yield "integers", rng.integers(-2, 3, size=(k, n)).astype(complex)
    yield "ones", np.ones((k, n), dtype=complex)
    for zeros in (0.6, 0.9):
        sparse = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        sparse[rng.random((k, n)) < zeros] = 0
        yield "sparse", sparse
    huge = 1e200 * rng.choice([-1, 1, 1j, -1j], size=(k, n))
    huge[rng.random((k, n)) < 0.5] = 0
    yield "huge", huge
    yield "zero", np.zeros((k, n), dtype=complex)


def test_multiplicativity_matches_the_dense_loop(monkeypatch):
    # every ordered pair of the corpus, square or not, with rows * cols <= 900;
    # each matrix also in blocks of 7 cells, so that most left factors take a
    # block of their own and a witness must be carried across blocks
    rng = np.random.default_rng(10)
    compared = non_monomial = 0
    corpus = [g for _, g in standard_corpus()]
    block_cells = decomposition._BLOCK_CELLS
    for g, h in itertools.product(corpus, repeat=2):
        if g.arrow_count * h.arrow_count > 900:
            continue
        for name, m in residual_cases(g, h, rng):
            expected = dense_residual(g, h, m)
            expected = (repr(expected[0]),) + expected[1:]
            for cells in (block_cells, 7):
                monkeypatch.setattr(decomposition, "_BLOCK_CELLS", cells)
                found = _multiplicativity(g, h, m)
                assert (repr(found[0]),) + found[1:] == expected, (name, cells, g, h)
            compared += 1
            non_monomial += int((m != 0).sum(axis=0).max() > 1)
    assert compared >= 5000 and non_monomial >= 1000, (compared, non_monomial)


def test_many_columns_in_one_row_are_checked_in_small_memory():
    # 2000 points onto one: each of the 2000^2 column pairs forms a product
    g, pt = group_bundle([1] * 2000), pair_groupoid(1)
    m = np.ones((1, 2000))
    tracemalloc.start()
    try:
        report = validate_hom(HomMatrix(g, pt, m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.star_witness == (0, 1, 1.0)
    assert peak < 8 * 2**20, peak


def test_twisted_pair16_validates_and_decomposes_in_small_memory(twisted_pair16):
    data, built = twisted_pair16
    hm = HomMatrix(built.source, built.target, built.entries)
    tracemalloc.start()
    try:
        assert validate_hom(hm).ok
        recovered = decompose(hm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, peak
    assert recovered.invariant_units == data.invariant_units
    assert recovered.hom.mapping == data.hom.mapping
    assert recovered.cocycle.values == data.cocycle.values


def test_one_extra_entry_on_pair16_is_answered_with_a_witness(twisted_pair16):
    _, built = twisted_pair16
    m = built.entries.copy()
    m[0, 0] += 0.5
    start = time.perf_counter()
    report = validate_hom(HomMatrix(built.source, built.target, m))
    assert time.perf_counter() - start < 1.0
    assert not report.is_star_hom
    assert report.star_witness is not None


def test_dense_check_refuses_past_its_budget(twisted_pair16):
    # all ones on pair(16): 4096 target compose entries, each pairing two
    # rows of 256 entries, so 4096 * 256 * 256 products
    _, built = twisted_pair16
    m = np.ones_like(built.entries)
    with pytest.raises(CapExceeded, match="the multiplicativity check of a "
                       "256x256 matrix needs 268435456 products"):
        validate_hom(HomMatrix(built.source, built.target, m))


def test_validate_diagonal_escape_detected(r2_hand):
    m = np.eye(4, dtype=complex)
    m[2, 0] = 1.0  # unit column leaks onto an off-diagonal arrow
    report = validate_hom(HomMatrix(r2_hand, r2_hand, m))
    assert not report.diagonal_into_diagonal
    assert report.diagonal_witness == (0, 2)


def test_validate_ideal_criterion():
    # embedding one point diagonally into two is a *-homomorphism whose
    # diagonal image (constants) is a subalgebra but not an ideal
    pt = pair_groupoid(1)
    g = disjoint_union([pair_groupoid(1), pair_groupoid(1)])
    m = np.array([[1.0], [1.0]], dtype=complex)
    report = validate_hom(HomMatrix(pt, g, m))
    assert report.is_star_hom
    assert report.diagonal_into_diagonal
    assert not report.image_diag_is_ideal
    assert report.ideal_witness == (1, 2)


def test_decompose_identity_and_sign(r2_hand):
    data = decompose(HomMatrix(r2_hand, r2_hand, np.eye(4)))
    assert data == identity_data(r2_hand)
    d2 = decompose(sign_matrix(r2_hand))
    assert d2.invariant_units == (0, 1)
    assert d2.hom.is_identity()
    assert d2.cocycle.values[2] == Phase.exact(1, 2)


def test_decompose_collapse_of_group(z2_hand):
    hm = quotient_hom(z2_hand)
    assert np.allclose(hm.entries, np.ones((1, 2)))
    data = decompose(hm)
    assert data.invariant_units == (0,)
    assert data.hom.mapping == (0, 0)
    assert all(v == PHASE_ONE for v in data.cocycle.values)


def test_decompose_refuses_non_effective_target(z2_hand):
    with pytest.raises(HypothesisError):
        decompose(HomMatrix(z2_hand, z2_hand, np.eye(2)))


def test_decompose_refuses_invalid_matrix(r2_hand):
    bad = np.eye(4, dtype=complex)
    bad[3, 2] = 1.0
    with pytest.raises(HypothesisError):
        decompose(HomMatrix(r2_hand, r2_hand, bad))


def test_trusted_decompose_flags_corruption(r2_hand):
    bad = np.eye(4, dtype=complex)
    bad[3, 2] = 1.0
    with pytest.raises(InternalInconsistencyError):
        decompose(HomMatrix(r2_hand, r2_hand, bad), trust=True)
    off_modulus = np.eye(4, dtype=complex)
    off_modulus[2, 2] = 0.5
    with pytest.raises(InternalInconsistencyError):
        decompose(HomMatrix(r2_hand, r2_hand, off_modulus), trust=True)


def _eye_with(**cells):
    """The identity of pair(2), arrows 0, 1 units and 2: 1 -> 0, 3: 0 -> 1,
    with the named cells `r<row>c<col>` overwritten."""
    m = np.eye(4, dtype=complex)
    for cell, value in cells.items():
        row, col = cell[1:].split("c")
        m[int(row), int(col)] = value
    return HomMatrix(pair_groupoid(2), pair_groupoid(2), m)


def _outside_entry():
    """Two copies of pair(2) onto pair(2): the identity on the first copy,
    and one entry in a non-unit column of the second, which lies outside
    the recovered invariant set and so only the rebuild can see."""
    g, h = disjoint_union([pair_groupoid(2)] * 2), pair_groupoid(2)
    m = np.zeros((4, 8), dtype=complex)
    m[:, :4] = np.eye(4)
    m[0, 6] = 0.5
    return HomMatrix(g, h, m)


# one corrupted matrix per refusal `decompose(..., trust=True)` can reach
@pytest.mark.parametrize("make, fragment", [
    pytest.param(lambda: _eye_with(r1c0=1), "diagonal column 0 is supported on 2",
                 id="unit-column-supported-twice"),
    pytest.param(lambda: _eye_with(r0c0=0.5), "diagonal column 0 is not a unit point mass",
                 id="unit-column-off-one"),
    pytest.param(lambda: _eye_with(r0c0=0, r2c0=1), "diagonal column 0 is not a unit point",
                 id="unit-column-off-the-units"),
    pytest.param(lambda: _eye_with(r1c1=0, r0c1=1), "unit images collide",
                 id="unit-images-collide"),
    pytest.param(lambda: _eye_with(r1c1=0), "not invariant", id="unit-set-not-invariant"),
    pytest.param(lambda: _eye_with(r3c2=1), "column 2 is supported on 2 arrows",
                 id="column-supported-twice"),
    pytest.param(lambda: _eye_with(r2c2=0), "column 2 is supported on 0 arrows",
                 id="column-empty"),
    pytest.param(lambda: _eye_with(r2c2=0, r3c2=1, r3c3=0, r2c3=1),
                 "column 2 is supported at an arrow with the wrong endpoints",
                 id="wrong-endpoints"),
    pytest.param(lambda: _eye_with(r2c2=0.5), "column 2 has entry of modulus 0.5",
                 id="bad-modulus"),
    pytest.param(lambda: _eye_with(r2c2=1j, r3c3=1j),
                 "recovered twist is not a cocycle: cocycle law fails at pair",
                 id="twist-not-a-cocycle"),
    pytest.param(_outside_entry, "rebuilt matrix deviates by 5.000e-01",
                 id="rebuild-deviates-outside-the-invariant-set"),
])
def test_trusted_decompose_refusals(make, fragment):
    with pytest.raises(InternalInconsistencyError) as err:
        decompose(make(), trust=True)
    assert fragment in str(err.value)


# the refusals of `build_hom`, each with otherwise consistent data
@pytest.mark.parametrize("source, target, make, fragment", [
    pytest.param(pair_groupoid(2), pair_groupoid(2),
                 lambda g, h: DecompositionData((0,), identity_hom(g), trivial_cocycle(g)),
                 "unit set is not invariant", id="not-invariant"),
    pytest.param(pair_groupoid(2), pair_groupoid(2),
                 lambda g, h: DecompositionData((), identity_hom(g), trivial_cocycle(g)),
                 "arrow map is not defined on the restriction", id="hom-domain"),
    pytest.param(cyclic_groupoid(2), cyclic_groupoid(2),
                 lambda g, h: DecompositionData(
                     g.units, GroupoidHom(g, cyclic_groupoid(1), (0, 0)),
                     trivial_cocycle(g)),
                 "arrow map does not land in the target groupoid", id="hom-codomain"),
    pytest.param(pair_groupoid(2), pair_groupoid(2),
                 lambda g, h: DecompositionData(
                     g.units, identity_hom(g), trivial_cocycle(pair_groupoid(1))),
                 "twist is not defined on the restriction", id="twist-domain"),
    pytest.param(group_bundle([1, 1]), pair_groupoid(1),
                 lambda g, h: DecompositionData(
                     g.units, GroupoidHom(g, h, (0, 0)), trivial_cocycle(g)),
                 "arrow map is not injective on the restricted units: [0, 1]",
                 id="not-injective-on-units"),
    # only units 1 and 2 share an image, so unit 0 is not named
    pytest.param(group_bundle([1, 1, 1]), group_bundle([1, 1]),
                 lambda g, h: DecompositionData(
                     g.units, GroupoidHom(g, h, (0, 1, 1)), trivial_cocycle(g)),
                 "arrow map is not injective on the restricted units: [1, 2]",
                 id="names-only-the-colliding-units"),
])
def test_build_hom_refusals(source, target, make, fragment):
    with pytest.raises(HypothesisError) as err:
        build_hom(source, target, make(source, target))
    assert fragment in str(err.value)


def test_quotient_hom_examples(r2_hand, z2_hand, bundle_hand):
    assert np.allclose(quotient_hom(r2_hand).entries, np.eye(4))
    assert np.allclose(quotient_hom(z2_hand).entries, np.ones((1, 2)))
    mb = quotient_hom(bundle_hand).entries
    assert mb.shape == (2, 3)
    assert np.allclose(mb, np.array([[1, 0, 1], [0, 1, 0]]))
    for g in (r2_hand, z2_hand, bundle_hand):
        assert validate_hom(quotient_hom(g)).ok


def test_quotient_hom_is_surjective_and_decomposes_trivially(corpus):
    for name, g in corpus:
        hm = quotient_hom(g)
        rank = np.linalg.matrix_rank(hm.entries) if hm.entries.size else 0
        assert rank == hm.target.arrow_count, name
        data = decompose(hm)
        assert data.invariant_units == g.units, name
        assert all(v == PHASE_ONE for v in data.cocycle.values), name


def test_rigidity_cases():
    for g in (cyclic_groupoid(2), group_bundle([2, 1]),
              disjoint_union([pair_groupoid(2), cyclic_groupoid(2)])):
        iso = rigidity_check(quotient_hom(g))
        assert iso.is_bijective()
        assert is_effective(iso.codomain)


def test_rigidity_via_automorphism(r2_hand):
    iso = rigidity_check(sign_matrix(r2_hand))
    assert iso.is_bijective()
    assert iso.codomain == r2_hand


def test_rigidity_refuses_non_surjective(r2_hand):
    g = disjoint_union([pair_groupoid(2), pair_groupoid(1)])
    sub = restrict(g, (0, 1))
    hom = GroupoidHom(sub, r2_hand, (0, 1, 2, 3))
    hm = build_hom(g, r2_hand, DecompositionData((0, 1), hom, trivial_cocycle(sub)))
    # this one is surjective; shrink instead to the empty set
    empty = restrict(g, ())
    zero = build_hom(g, r2_hand,
                     DecompositionData((), GroupoidHom(empty, r2_hand, ()),
                                       trivial_cocycle(empty)))
    with pytest.raises(HypothesisError) as err:
        rigidity_check(zero)
    assert "rank" in str(err.value)
    assert rigidity_check(hm).is_bijective()


def test_norm_is_preserved_on_bisection_columns(r2_hand):
    # images of bisection-supported elements keep their sup norm
    twist = Cocycle(r2_hand, [PHASE_ONE, PHASE_ONE,
                              Phase.exact(1, 4), Phase.exact(3, 4)])
    hm = build_hom(r2_hand, r2_hand,
                   DecompositionData(r2_hand.units, identity_hom(r2_hand), twist))
    f = AlgebraElement(r2_hand, [0, 0, 1.5, 0])
    image = AlgebraElement(r2_hand, hm.entries @ f.coeff)
    assert reduced_norm(image) == pytest.approx(1.5, abs=1e-12)
    assert reduced_norm(f) == pytest.approx(1.5, abs=1e-12)


def test_images_of_bisection_supported_elements_are_isometric():
    # for any built homomorphism, an element supported on a bisection inside
    # the invariant region keeps its sup norm
    rng = np.random.default_rng(9)
    g = disjoint_union([pair_groupoid(2), cyclic_groupoid(2)])
    h = pair_groupoid(2)
    from etale_kit.inverse_semigroup import enumerate_bisections
    checked = 0
    for data in enumerate_decomposition_data(g, h, 2):
        hm = build_hom(g, h, data)
        inside = set(restriction_arrows(g, data.invariant_units))
        for b in enumerate_bisections(g).elements[:12]:
            support = [a for a in b.arrows if a in inside]
            if not support:
                continue
            coeff = np.zeros(g.arrow_count, dtype=complex)
            for a in support:
                coeff[a] = rng.normal() + 1j * rng.normal()
            f = AlgebraElement(g, coeff)
            image = AlgebraElement(h, hm.entries @ f.coeff)
            assert reduced_norm(image) == pytest.approx(
                float(np.max(np.abs(coeff))), abs=1e-9)
            checked += 1
    assert checked


def test_roundtrip_small_pairs():
    r2 = pair_groupoid(2)
    z2 = cyclic_groupoid(2)
    checked = 0
    for g, h in ((r2, r2), (z2, r2), (z2, pair_groupoid(1))):
        for data in enumerate_decomposition_data(g, h, 4):
            hm = build_hom(g, h, data)
            assert validate_hom(hm).ok
            assert decompose(hm) == data
            checked += 1
    assert checked > 10


def test_decompose_absorbs_noise_within_tolerance(r2_hand):
    rng = np.random.default_rng(3)
    noise = 1e-10 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    noisy = HomMatrix(r2_hand, r2_hand, sign_matrix(r2_hand).entries + noise)
    assert validate_hom(noisy).ok
    data = decompose(noisy)
    rebuilt = build_hom(r2_hand, r2_hand, data)
    assert float(np.max(np.abs(rebuilt.entries - noisy.entries))) <= 1e-9
    assert data.hom.is_identity()


@pytest.mark.parametrize("modulus", [1.0, 1 + 4e-10])
@pytest.mark.parametrize("eps", [1e-10, 1e-9, 1e-8, 1e-7, 5e-7, 2e-6])
def test_every_accepted_twist_near_a_root_of_unity_decomposes(eps, modulus):
    # z lies eps along the circle from -1; a phase snapped to -1 would be
    # rebuilt further than TOL from z for eps between about 1e-9 and 5e-7
    r2 = pair_groupoid(2)
    z = -modulus * np.exp(1j * eps)
    hm = HomMatrix(r2, r2, np.diag([1, 1, z, np.conj(z)]))
    assert validate_hom(hm).ok
    data = decompose(hm)
    rebuilt = build_hom(r2, r2, data)
    assert float(np.max(np.abs(rebuilt.entries - hm.entries))) <= TOL
    assert data.cocycle.values[2].is_exact == (abs(z + 1) <= TOL)


def test_decomposition_data_refuses_one_triple_past_the_search_budget(monkeypatch):
    g = pair_groupoid(2)
    triples = list(enumerate_decomposition_data(g, g, 2))
    monkeypatch.setattr(decomposition, "SEARCH_BUDGET", len(triples))
    assert list(enumerate_decomposition_data(g, g, 2)) == triples
    monkeypatch.setattr(decomposition, "SEARCH_BUDGET", len(triples) - 1)
    with pytest.raises(CapExceeded, match=f"decomposition data needs {len(triples)} "
                       f"triples, over the budget of {len(triples) - 1}"):
        list(enumerate_decomposition_data(g, g, 2))


def test_decomposition_data_counts_its_triples_against_the_search_budget():
    # 101,441 triples over the invariant sets before {0, 1, 2, 3}, which
    # would add 6,144 arrow maps times 256 twists: 1,674,305 in all
    g = group_bundle([4] * 4)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="decomposition data needs 1674305 triples, "
                       "over the budget of 1000000"):
        for _ in enumerate_decomposition_data(g, g, 4):
            pass
    assert time.perf_counter() - start < 2
    g = group_bundle([3] * 4)
    assert sum(1 for _ in enumerate_decomposition_data(g, g, 3)) == 233_425


def test_decomposition_data_searches_cocycles_once_per_invariant_set(monkeypatch):
    # a fresh corpus, so that no other test has filled its caches
    corpus = [g for _, g in standard_corpus()]
    z4 = cyclic_groupoid(4)
    searches = collections.Counter()

    def counting(search):
        def counted(domain, codomain, **kwargs):
            searches[codomain == z4] += 1
            return search(domain, codomain, **kwargs)
        return counted

    for module in (groupoid, cocycles, decomposition):
        monkeypatch.setattr(module, "enumerate_homomorphisms",
                            counting(module.enumerate_homomorphisms))
    targets = [h for h in corpus if is_effective(h)]
    for g in corpus:
        for h in targets:
            for _ in enumerate_decomposition_data(g, h, 4):
                pass
    assert searches[True] == sum(len(invariant_subsets(g)) for g in corpus) == 54
    assert searches[False] == sum(len(invariant_subsets(g)) for g in corpus) * len(targets)


def test_irrational_twist_roundtrips_approximately(r2_hand):
    # phases off every small root of unity survive the roundtrip as
    # approximate values compared under the 1e-9 phase tolerance
    theta = 0.7351
    z = np.exp(1j * theta)
    twist = Cocycle(r2_hand, [PHASE_ONE, PHASE_ONE,
                              Phase.approximate(z), Phase.approximate(z.conjugate())])
    data = DecompositionData(r2_hand.units, identity_hom(r2_hand), twist)
    hm = build_hom(r2_hand, r2_hand, data)
    recovered = decompose(hm)
    assert not recovered.cocycle.values[2].is_exact
    assert recovered == data


def test_empty_invariant_set_roundtrip(r2_hand):
    empty = restrict(r2_hand, ())
    data = DecompositionData((), GroupoidHom(empty, r2_hand, ()),
                             trivial_cocycle(empty))
    hm = build_hom(r2_hand, r2_hand, data)
    assert np.allclose(hm.entries, 0)
    assert decompose(hm) == data
    # a target without arrows leaves every column empty
    assert decompose(HomMatrix(r2_hand, empty, np.zeros((0, 4)))).invariant_units == ()


def test_matrices_without_rows_or_without_columns_validate(r2_hand):
    empty = restrict(r2_hand, ())
    for hm in (HomMatrix(r2_hand, empty, np.zeros((0, 4))),
               HomMatrix(empty, r2_hand, np.zeros((4, 0)))):
        assert validate_hom(hm).ok, hm


def test_hom_matrix_shape_checks(r2_hand, z2_hand):
    with pytest.raises(StructuralError):
        HomMatrix(r2_hand, z2_hand, np.eye(4))


# -- values the library builds from checked parts -------------------------------


@pytest.fixture
def constructor_checks(monkeypatch):
    """Counts, by type, of the public constructors' checks run since the
    counter was last cleared."""
    counts = collections.Counter()

    def counted(name, check):
        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return check(self, *args, **kwargs)
        return wrapper

    for cls, attr in ((GroupoidHom, "__post_init__"), (Cocycle, "__init__"),
                      (HomMatrix, "__init__"), (Bisection, "__post_init__")):
        monkeypatch.setattr(cls, attr, counted(cls.__name__, getattr(cls, attr)))
    return counts


def test_library_built_values_skip_the_constructor_checks(constructor_checks):
    g = pair_groupoid(3)
    bundle = group_bundle([2, 1])
    phi, psi = enumerate_automorphisms(g)[1:3]
    c1, c2 = enumerate_cocycles(g, 4)[1:3]
    data = DecompositionData(g.units, phi, c1)

    def checks(build):
        constructor_checks.clear()
        build()
        return dict(constructor_checks)

    for build in (lambda: enumerate_homomorphisms(g, g),
                  lambda: identity_hom(g),
                  lambda: compose_homs(phi, psi),
                  phi.inverse,
                  lambda: quotient_by_isotropy(bundle),
                  lambda: enumerate_cocycles(g, 4),
                  lambda: trivial_cocycle(g),
                  lambda: cocycle_product(c1, c2),
                  lambda: cocycle_conj(c1),
                  lambda: precompose_cocycle(c1, phi),
                  lambda: build_hom(g, g, data),
                  lambda: quotient_hom(bundle),
                  lambda: enumerate_bisections(g)):
        assert checks(build) == {}, build
    # the twist read off the matrix enters through the public constructor
    assert checks(lambda: decompose(build_hom(g, g, data))) == {"Cocycle": 1}
    assert checks(lambda: rigidity_check(build_hom(g, g, data))) == {"Cocycle": 1}


def test_library_built_values_pass_the_constructor_checks(corpus):
    for name, g in corpus:
        if g.arrow_count > 12:
            continue
        auts = enumerate_automorphisms(g)
        homs = auts + [a.inverse() for a in auts] + [
            compose_homs(a, b) for a, b in zip(auts, auts[1:] + auts[:1])]
        for phi in homs:
            assert GroupoidHom(g, g, phi.mapping) == phi, name
        quotient, collapse = quotient_by_isotropy(g)
        assert GroupoidHom(g, quotient, collapse.mapping) == collapse, name
        iso = rigidity_check(quotient_hom(g))
        assert GroupoidHom(iso.domain, iso.codomain, iso.mapping) == iso, name
        cocycles = enumerate_cocycles(g, 4)
        if is_effective(g):
            for phi in auts:
                data = DecompositionData(g.units, phi, cocycles[-1])
                read = decompose(build_hom(g, g, data)).hom
                assert GroupoidHom(g, g, read.mapping) == read == phi, name
        built = (cocycles + [cocycle_conj(c) for c in cocycles]
                 + [cocycle_product(c, d) for c in cocycles for d in cocycles]
                 + [precompose_cocycle(c, phi) for c in cocycles for phi in auts])
        for c in built:
            assert Cocycle(g, c.values) == c, name
        for b in enumerate_bisections(g).elements:
            assert Bisection(g, b.arrows) == b, name
