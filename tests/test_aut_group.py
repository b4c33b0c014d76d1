"""Semidirect product of automorphisms and cocycles; diagonal-fixing subgroup;
abelianization of diagonal-fixing group actions."""

from itertools import permutations, product as iproduct

import numpy as np
import pytest

from etale_kit.aut_group import (
    AutPair,
    FiniteGroupAction,
    _commutator_closure,
    classify_faut,
    factors_through_abelianization,
    fixes_diagonal,
    identity_pair,
    pair_matrix,
    sd_inverse,
    sd_multiply,
)
from etale_kit.cocycles import enumerate_cocycles, trivial_cocycle
from etale_kit.decomposition import decompose, validate_hom
from etale_kit.errors import HypothesisError, StructuralError
from etale_kit.families import _cyclic_table, group_inverses, pair_groupoid
from etale_kit.groupoid import (
    enumerate_automorphisms,
    identity_hom,
    is_effective,
)


def all_pairs(g, order):
    return [AutPair(phi, c)
            for phi in enumerate_automorphisms(g)
            for c in enumerate_cocycles(g, order)]


def symmetric_table(n):
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return perms, table


def perm_sign(p):
    flips = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if flips % 2 else 1


def test_pair_requires_bijective_self_map(r2_hand, z2_hand):
    with pytest.raises(StructuralError):
        AutPair(identity_hom(r2_hand), trivial_cocycle(z2_hand))


def test_identity_and_inverse_laws():
    r3 = pair_groupoid(3)
    pairs = all_pairs(r3, 3)
    ident = identity_pair(r3)
    for a in pairs:
        assert sd_multiply(ident, a) == a
        assert sd_multiply(a, ident) == a
        prod = sd_multiply(a, sd_inverse(a))
        assert prod == ident
        assert sd_multiply(sd_inverse(a), a) == ident


def test_group_laws_exhaustive_on_two_points():
    r2 = pair_groupoid(2)
    pairs = all_pairs(r2, 2)
    assert len(pairs) == 4
    table = [[pairs.index(sd_multiply(a, b)) for b in pairs] for a in pairs]
    for i, j, k in iproduct(range(4), repeat=3):
        assert table[table[i][j]][k] == table[i][table[j][k]]


def test_noncommutativity_of_rotation_and_twist():
    r3 = pair_groupoid(3)
    rotation = [phi for phi in enumerate_automorphisms(r3)
                if phi.mapping[0] == 1 and phi.mapping[1] == 2][0]
    twist = [c for c in enumerate_cocycles(r3, 3)
             if any(v.num for v in c.values)][0]
    a = AutPair(rotation, trivial_cocycle(r3))
    b = AutPair(identity_hom(r3), twist)
    ab, ba = sd_multiply(a, b), sd_multiply(b, a)
    assert ab.phi.mapping == ba.phi.mapping
    assert any(not (u == v) for u, v in zip(ab.cocycle.values, ba.cocycle.values))


def test_pair_matrix_frozen_examples(r2_hand):
    sign = [c for c in enumerate_cocycles(r2_hand, 2) if any(v.num for v in c.values)][0]
    m = pair_matrix(AutPair(identity_hom(r2_hand), sign)).entries
    assert np.allclose(m, np.diag([1, 1, -1, -1]))
    assert np.allclose(pair_matrix(identity_pair(r2_hand)).entries, np.eye(4))
    swap = [p for p in enumerate_automorphisms(r2_hand) if not p.is_identity()][0]
    mswap = pair_matrix(AutPair(swap, trivial_cocycle(r2_hand))).entries
    perm = np.zeros((4, 4))
    perm[1, 0] = perm[0, 1] = perm[3, 2] = perm[2, 3] = 1
    assert np.allclose(mswap, perm)


def test_pair_matrix_is_multiplicative_and_injective():
    r2 = pair_groupoid(2)
    pairs = all_pairs(r2, 2)
    mats = [pair_matrix(p).entries for p in pairs]
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            lhs = pair_matrix(sd_multiply(a, b)).entries
            assert np.max(np.abs(lhs - mats[i] @ mats[j])) <= 1e-12
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.max(np.abs(mats[i] - mats[j])) > 0.5


def test_pair_matrices_validate_and_decompose_back():
    r2 = pair_groupoid(2)
    for pair in all_pairs(r2, 4):
        hm = pair_matrix(pair)
        assert validate_hom(hm).ok
        data = decompose(hm)
        assert data.invariant_units == r2.units
        assert data.hom.mapping == pair.phi.mapping
        assert all(u == v for u, v in zip(data.cocycle.values, pair.cocycle.values))


def test_supplied_diagonal_preserving_matrix_lands_in_enumerated_image(r2_hand):
    # a monomial matrix written down by hand, not produced by pair_matrix:
    # swap the two points and twist the off-diagonal arrows by -1
    m = np.zeros((4, 4), dtype=complex)
    m[1, 0] = m[0, 1] = 1.0
    m[3, 2] = m[2, 3] = -1.0
    hm = pair_matrix(identity_pair(r2_hand))  # shape template
    from etale_kit.decomposition import HomMatrix
    supplied = HomMatrix(r2_hand, r2_hand, m)
    assert validate_hom(supplied).ok
    data = decompose(supplied)
    assert data.invariant_units == r2_hand.units
    recovered = AutPair(data.hom, data.cocycle)
    enumerated = all_pairs(r2_hand, 2)
    assert any(recovered == p for p in enumerated)


def test_fixes_diagonal_examples(r2_hand):
    sign = [c for c in enumerate_cocycles(r2_hand, 2) if any(v.num for v in c.values)][0]
    assert fixes_diagonal(AutPair(identity_hom(r2_hand), sign))
    swap = [p for p in enumerate_automorphisms(r2_hand) if not p.is_identity()][0]
    assert not fixes_diagonal(AutPair(swap, trivial_cocycle(r2_hand)))
    assert not fixes_diagonal(AutPair(swap, sign))


def test_fixes_diagonal_iff_identity_on_principal(corpus):
    for name, g in corpus:
        if not is_effective(g) or g.arrow_count > 9:
            continue
        for pair in all_pairs(g, 2):
            assert fixes_diagonal(pair) == pair.phi.is_identity(), name


def test_classify_faut_counts_and_commutativity():
    r2 = pair_groupoid(2)
    cocycles = classify_faut(r2, 2)
    assert len(cocycles) == 2
    from etale_kit.cocycles import cocycle_product
    for c1 in cocycles:
        for c2 in cocycles:
            assert cocycle_product(c1, c2) == cocycle_product(c2, c1)


def test_group_table_helpers():
    perms, s3 = symmetric_table(3)
    inv = group_inverses(s3)
    assert all(s3[a][inv[a]] == 0 for a in range(6))
    commutators = _commutator_closure(s3)
    # the commutator subgroup of the symmetric group on 3 letters is the
    # 3-element alternating subgroup
    assert len(commutators) == 3
    assert _commutator_closure(_cyclic_table(4)) == {0}
    with pytest.raises(StructuralError):
        group_inverses([[0, 1], [1, 1]])


def test_sign_character_action_factors_through_z2(r2_hand):
    perms, s3 = symmetric_table(3)
    sign = [c for c in enumerate_cocycles(r2_hand, 2) if any(v.num for v in c.values)][0]
    m_sign = pair_matrix(AutPair(identity_hom(r2_hand), sign))
    m_id = pair_matrix(identity_pair(r2_hand))
    action = FiniteGroupAction(
        s3, [m_sign if perm_sign(p) < 0 else m_id for p in perms])
    cert = factors_through_abelianization(action)
    assert cert.ok
    assert len(cert.quotient_table) == 2
    assert cert.quotient_table[1][1] == 0  # the quotient is of order two
    # cosets alternate with the permutation sign
    for i, p in enumerate(perms):
        assert cert.projection[i] == (0 if perm_sign(p) > 0 else 1)


def test_trivial_action_factors(r2_hand):
    perms, s3 = symmetric_table(3)
    m_id = pair_matrix(identity_pair(r2_hand))
    action = FiniteGroupAction(s3, [m_id] * 6)
    cert = factors_through_abelianization(action)
    assert cert.ok


def test_point_swap_generator_is_named(r2_hand):
    swap = [p for p in enumerate_automorphisms(r2_hand) if not p.is_identity()][0]
    m_swap = pair_matrix(AutPair(swap, trivial_cocycle(r2_hand)))
    m_id = pair_matrix(identity_pair(r2_hand))
    action = FiniteGroupAction([[0, 1], [1, 0]], [m_id, m_swap])
    with pytest.raises(HypothesisError) as err:
        factors_through_abelianization(action)
    assert "element 1 does not fix the diagonal" in str(err.value)


def test_action_constructor_rejects_non_multiplicative(r2_hand):
    sign = [c for c in enumerate_cocycles(r2_hand, 2) if any(v.num for v in c.values)][0]
    m_sign = pair_matrix(AutPair(identity_hom(r2_hand), sign))
    m_id = pair_matrix(identity_pair(r2_hand))
    with pytest.raises(StructuralError):
        # assigning the sign twist to both elements of Z/2 breaks e.g = g
        FiniteGroupAction([[0, 1], [1, 0]], [m_sign, m_sign])
    assert FiniteGroupAction([[0, 1], [1, 0]], [m_id, m_sign])


def test_action_constructor_refuses_an_empty_group_table():
    with pytest.raises(StructuralError, match="identity 0"):
        FiniteGroupAction([], [])
