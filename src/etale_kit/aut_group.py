"""The semidirect product of groupoid automorphisms and cocycles, its monomial
realization on the algebra, diagonal-fixing automorphisms, and the
abelianization certificate for diagonal-fixing group actions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cocycles import (
    Cocycle,
    cocycle_conj,
    cocycle_product,
    enumerate_cocycles,
    precompose_cocycle,
    trivial_cocycle,
)
from .decomposition import (
    DecompositionData,
    HomMatrix,
    build_hom,
    numerical_rank,
    validate_hom,
)
from .errors import TOL, HypothesisError, StructuralError
from .families import group_inverses
from .groupoid import (
    FiniteGroupoid,
    GroupoidHom,
    compose_homs,
    enumerate_automorphisms,
    identity_hom,
    is_effective,
)

__all__ = [
    "AutPair",
    "identity_pair",
    "sd_multiply",
    "sd_inverse",
    "pair_matrix",
    "fixes_diagonal",
    "classify_faut",
    "FiniteGroupAction",
    "AbelianizationCertificate",
    "factors_through_abelianization",
]

@dataclass(frozen=True)
class AutPair:
    """An automorphism together with a cocycle on the same groupoid."""

    phi: GroupoidHom
    cocycle: Cocycle

    def __post_init__(self):
        if self.phi.domain != self.phi.codomain:
            raise StructuralError("automorphism must be a self-map")
        if not self.phi.is_bijective():
            raise StructuralError("the arrow map of a pair must be bijective")
        if self.cocycle.groupoid != self.phi.domain:
            raise StructuralError("cocycle lives on a different groupoid")

    @property
    def groupoid(self) -> FiniteGroupoid:
        return self.phi.domain


def identity_pair(g: FiniteGroupoid) -> AutPair:
    return AutPair(identity_hom(g), trivial_cocycle(g))


def sd_multiply(a: AutPair, b: AutPair) -> AutPair:
    """(phi1, c1) . (phi2, c2) = (phi1 o phi2, (c1 o phi2) . c2)."""
    if a.groupoid != b.groupoid:
        raise StructuralError("pairs live on different groupoids")
    return AutPair(compose_homs(a.phi, b.phi),
                   cocycle_product(precompose_cocycle(a.cocycle, b.phi), b.cocycle))


def sd_inverse(a: AutPair) -> AutPair:
    """The group inverse: (phi^-1, conjugate of c o phi^-1)."""
    phi_inv = a.phi.inverse()
    return AutPair(phi_inv, cocycle_conj(precompose_cocycle(a.cocycle, phi_inv)))


def pair_matrix(pair: AutPair) -> HomMatrix:
    """The monomial algebra automorphism of a pair: the column of an arrow
    carries its cocycle value in the row of its image."""
    g = pair.groupoid
    data = DecompositionData(g.units, pair.phi, pair.cocycle)
    return build_hom(g, g, data)


def _diagonal_failure(entries: np.ndarray, units) -> int | None:
    """The first unit whose column differs from its own point mass by more
    than TOL, or None when every diagonal basis column is fixed."""
    for x in units:
        col = entries[:, x].copy()
        col[x] -= 1.0
        if np.max(np.abs(col)) > TOL:
            return x
    return None


def fixes_diagonal(pair: AutPair) -> bool:
    """Whether the monomial automorphism fixes every diagonal basis column."""
    return _diagonal_failure(pair_matrix(pair).entries, pair.groupoid.units) is None


def classify_faut(g: FiniteGroupoid, phase_order: int,
                  cap: int | None = None) -> list[Cocycle]:
    """The cocycles valued in the n-th roots of unity, which biject with the
    diagonal-fixing monomial automorphisms.  On a principal groupoid the
    bijection is verified against the enumerated automorphism pairs."""
    cocycles = enumerate_cocycles(g, phase_order, cap)
    if is_effective(g):
        for c in cocycles:
            if not fixes_diagonal(AutPair(identity_hom(g), c)):
                raise HypothesisError(
                    "a cocycle pair fails to fix the diagonal")
        auts = enumerate_automorphisms(g, cap)
        for phi in auts:
            if phi.is_identity():
                continue
            for c in cocycles:
                if fixes_diagonal(AutPair(phi, c)):
                    raise HypothesisError(
                        "a non-identity pair fixes the diagonal on a "
                        "principal groupoid")
    return cocycles


# -- group actions on the algebra ---------------------------------------------


def _commutator_closure(table: Sequence[Sequence[int]]) -> set[int]:
    """The commutator subgroup: closure of all commutators under products."""
    inv = group_inverses(table)
    k = len(table)
    gens = {table[table[s][t]][table[inv[s]][inv[t]]]
            for s in range(k) for t in range(k)}
    subgroup = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = table[a][g]
            if b not in subgroup:
                subgroup.add(b)
                frontier.append(b)
    return subgroup


class FiniteGroupAction:
    """A finite group acting on a groupoid algebra through validated
    automorphism matrices; the assignment must be multiplicative.  Messages
    and witnesses name a group element by its row in the table."""

    def __init__(self, table: Sequence[Sequence[int]],
                 matrices: Sequence[HomMatrix]):
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.inverses = group_inverses(self.table)
        k = len(self.table)
        self.matrices = tuple(matrices)
        if len(self.matrices) != k:
            raise StructuralError("one matrix per group element required")
        g = self.matrices[0].source
        for i, m in enumerate(self.matrices):
            if m.source != g or m.target != g:
                raise StructuralError(f"matrix of element {i} is not a self-map")
            report = validate_hom(m)
            if not report.ok:
                raise StructuralError(
                    f"matrix of element {i} fails validation: "
                    f"{', '.join(report.failed_checks())}")
            if numerical_rank(m.entries) != g.arrow_count:
                raise StructuralError(f"matrix of element {i} is not invertible")
        for s in range(k):
            for t in range(k):
                prod = self.matrices[s].entries @ self.matrices[t].entries
                target = self.matrices[self.table[s][t]].entries
                if prod.size and np.max(np.abs(prod - target)) > TOL:
                    raise StructuralError(
                        f"assignment is not multiplicative at ({s},{t})")
        self.groupoid = g


@dataclass
class AbelianizationCertificate:
    ok: bool
    witness: tuple[int, int] | None
    quotient_table: tuple[tuple[int, ...], ...]
    projection: tuple[int, ...]
    coset_matrices: tuple[HomMatrix, ...]


def factors_through_abelianization(action: FiniteGroupAction) -> AbelianizationCertificate:
    """Verify that a diagonal-fixing action kills every commutator, and
    certify it by the induced action of the abelianized group.

    The hypothesis that every matrix fixes the diagonal pointwise is enforced
    first; a violator is named.  The certificate carries the quotient group
    table by the commutator subgroup, the projection, and one matrix per coset.
    """
    g = action.groupoid
    for i, m in enumerate(action.matrices):
        x = _diagonal_failure(m.entries, g.units)
        if x is not None:
            raise HypothesisError(
                f"element {i} does not fix the diagonal (column of unit {x})")
    k = len(action.table)
    identity = np.eye(g.arrow_count, dtype=complex)
    for s in range(k):
        for t in range(k):
            c = action.table[action.table[s][t]][
                action.table[action.inverses[s]][action.inverses[t]]]
            m = action.matrices[c].entries
            if m.size and np.max(np.abs(m - identity)) > TOL:
                return AbelianizationCertificate(False, (s, t), (), (), ())

    kernel = _commutator_closure(action.table)
    cosets: list[set[int]] = []
    seen: set[int] = set()
    for a in range(k):
        if a in seen:
            continue
        coset = {action.table[a][n] for n in kernel}
        seen |= coset
        cosets.append(coset)
    projection = [0] * k
    for i, coset in enumerate(cosets):
        for a in coset:
            projection[a] = i
    reps = [min(c) for c in cosets]
    quotient = tuple(
        tuple(projection[action.table[ra][rb]] for rb in reps) for ra in reps)
    coset_matrices = tuple(action.matrices[r] for r in reps)
    return AbelianizationCertificate(
        True, None, quotient, tuple(projection), coset_matrices)
