"""Building, validating, and decomposing diagonal-compatible homomorphism matrices."""

import dataclasses

import numpy as np
import pytest

from etale_kit.cocycles import Cocycle, Phase, PHASE_ONE, trivial_cocycle
from etale_kit.cstar import AlgebraElement, reduced_norm
from etale_kit.decomposition import (
    DecompositionData,
    HomMatrix,
    build_hom,
    decompose,
    enumerate_decomposition_data,
    quotient_hom,
    rigidity_check,
    validate_hom,
)
from etale_kit.errors import (
    HypothesisError,
    InternalInconsistencyError,
    StructuralError,
)
from etale_kit.families import (
    cyclic_groupoid,
    disjoint_union,
    group_bundle,
    pair_groupoid,
)
from etale_kit.groupoid import (
    GroupoidHom,
    identity_hom,
    is_effective,
    restrict,
    restriction_arrows,
)


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


def test_hom_matrix_shape_checks(r2_hand, z2_hand):
    with pytest.raises(StructuralError):
        HomMatrix(r2_hand, z2_hand, np.eye(4))
