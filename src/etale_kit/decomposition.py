"""Diagonal-compatible *-homomorphisms between finite groupoid algebras.

Such a homomorphism into the algebra of an effective groupoid is monomial: it
is determined by an invariant unit set of the source, an arrow map from the
restriction into the target, and a circle-valued twist.  `build_hom` realizes
the triple as a matrix, `decompose` recovers it, and the two are mutually
inverse on validated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cocycles import Cocycle, Phase, enumerate_cocycles
from .cstar import _conv_arrays
from .errors import (
    SUPPORT_TOL,
    TOL,
    HomomorphismError,
    HypothesisError,
    InternalInconsistencyError,
    StructuralError,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidHom,
    enumerate_homomorphisms,
    invariance_witness,
    invariant_subsets,
    is_effective,
    normalize_unit_set,
    quotient_by_isotropy,
    restrict,
    restriction_arrows,
)

__all__ = [
    "HomMatrix",
    "HomReport",
    "numerical_rank",
    "validate_hom",
    "require_valid",
    "DecompositionData",
    "build_hom",
    "decompose",
    "quotient_hom",
    "rigidity_check",
    "enumerate_decomposition_data",
]

class HomMatrix:
    """A linear map between groupoid algebras in the point-mass bases.

    Column a holds the image of the point mass at arrow a of the source,
    expressed over the arrows of the target.  No algebra conditions are
    assumed until `validate_hom` establishes them.
    """

    __slots__ = ("source", "target", "entries", "_report")

    def __init__(self, source: FiniteGroupoid, target: FiniteGroupoid, entries):
        mat = np.asarray(entries, dtype=complex)
        if mat.shape != (target.arrow_count, source.arrow_count):
            raise StructuralError(
                f"entries have shape {mat.shape}, expected "
                f"({target.arrow_count}, {source.arrow_count})")
        if mat.size and not np.all(np.isfinite(mat.view(float))):
            raise StructuralError("entries must be finite")
        mat = mat.copy()
        mat.flags.writeable = False
        self.source = source
        self.target = target
        self.entries = mat
        self._report = None

    def __repr__(self):
        return (f"HomMatrix({self.target.arrow_count}x{self.source.arrow_count})")


@dataclass(frozen=True)
class HomReport:
    is_star_hom: bool
    star_witness: tuple | None
    diagonal_into_diagonal: bool
    diagonal_witness: tuple | None
    image_diag_is_ideal: bool
    ideal_witness: tuple | None

    @property
    def ok(self) -> bool:
        return (self.is_star_hom and self.diagonal_into_diagonal
                and self.image_diag_is_ideal)

    def failed_checks(self) -> list[str]:
        out = []
        if not self.is_star_hom:
            out.append("is_star_hom")
        if not self.diagonal_into_diagonal:
            out.append("diagonal_into_diagonal")
        if not self.image_diag_is_ideal:
            out.append("image_diag_is_ideal")
        return out


def numerical_rank(mat: np.ndarray) -> int:
    """Count of singular values above TOL * max(1, largest singular value)."""
    if not mat.size:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > TOL * max(1.0, float(sv[0]))))


def validate_hom(hm: HomMatrix) -> HomReport:
    """Check the *-homomorphism laws on all basis pairs, that the diagonal
    lands in the diagonal, and that the diagonal image is a full function
    algebra on its support (the finite-scale ideal criterion).

    The report depends on the read-only entries alone, so it is computed
    once per matrix and stored on it."""
    if hm._report is not None:
        return hm._report
    g, h, m = hm.source, hm.target, hm.entries
    n, k = g.arrow_count, h.arrow_count

    # multiplicativity: image of every basis product vs product of images
    lhs = np.zeros((k, n, n), dtype=complex)
    for (a, b), c in g.compose.items():
        lhs[:, a, b] = m[:, c]
    rhs = np.zeros((k, n, n), dtype=complex)
    left, right, out = _conv_arrays(h)
    np.add.at(rhs, out, m[left][:, :, None] * m[right][:, None, :])
    diff = np.abs(lhs - rhs)
    is_star_hom = True
    star_witness = None
    if diff.size and diff.max() > TOL:
        w, a, b = np.unravel_index(int(np.argmax(diff)), diff.shape)
        is_star_hom = False
        star_witness = (int(a), int(b), float(diff.max()))

    # star preservation: column of the inverse arrow vs starred column
    if is_star_hom and n:
        inv_g = np.array(g.inv, dtype=np.intp)
        inv_h = np.array(h.inv, dtype=np.intp)
        sdiff = np.abs(m[:, inv_g] - np.conj(m[inv_h, :]))
        if sdiff.size and sdiff.max() > TOL:
            _, a = np.unravel_index(int(np.argmax(sdiff)), sdiff.shape)
            is_star_hom = False
            star_witness = (int(a), float(sdiff.max()))

    unit_cols = list(g.units)
    unit_rows = list(h.units)
    non_unit_rows = [a for a in h.arrows() if not h.is_unit(a)]
    diagonal_ok = True
    diagonal_witness = None
    if unit_cols and non_unit_rows:
        block = np.abs(m[np.ix_(non_unit_rows, unit_cols)])
        if block.max() > TOL:
            i, j = np.unravel_index(int(np.argmax(block)), block.shape)
            diagonal_ok = False
            diagonal_witness = (int(unit_cols[j]), int(non_unit_rows[i]))

    ideal_ok = True
    ideal_witness = None
    if unit_cols and unit_rows:
        block = m[np.ix_(unit_rows, unit_cols)]
        row_peak = np.max(np.abs(block), axis=1) if block.size else np.zeros(0)
        support = int(np.sum(row_peak > TOL))
        rank = numerical_rank(block)
        if rank != support:
            ideal_ok = False
            ideal_witness = (rank, support)
    hm._report = HomReport(is_star_hom, star_witness, diagonal_ok,
                           diagonal_witness, ideal_ok, ideal_witness)
    return hm._report


def require_valid(hm: HomMatrix) -> None:
    """Refuse a matrix that fails `validate_hom`, naming the failed checks."""
    report = validate_hom(hm)
    if not report.ok:
        raise HypothesisError(
            f"matrix fails validation: {', '.join(report.failed_checks())}")


@dataclass(frozen=True)
class DecompositionData:
    """The invariant unit set, arrow map, and twist of a diagonal-compatible
    homomorphism.  The arrow map goes from the restriction to the invariant
    set into the target and must be injective on the restricted units."""

    invariant_units: tuple[int, ...]
    hom: GroupoidHom
    cocycle: Cocycle


def _check_data(g: FiniteGroupoid, h: FiniteGroupoid, data: DecompositionData) -> FiniteGroupoid:
    f = normalize_unit_set(g, data.invariant_units)
    w = invariance_witness(g, f)
    if w is not None:
        raise HypothesisError(
            f"unit set is not invariant: witness arrow {w}")
    restriction = restrict(g, f)
    if data.hom.domain != restriction:
        raise HypothesisError("arrow map is not defined on the restriction")
    if data.hom.codomain != h:
        raise HypothesisError("arrow map does not land in the target groupoid")
    if data.cocycle.groupoid != restriction:
        raise HypothesisError("twist is not defined on the restriction")
    images = [data.hom.mapping[x] for x in restriction.units]
    if len(set(images)) != len(images):
        dup = [x for x in restriction.units
               if images.count(data.hom.mapping[x]) > 1]
        raise HypothesisError(
            f"arrow map is not injective on the restricted units: {dup[:2]}")
    return restriction


def build_hom(g: FiniteGroupoid, h: FiniteGroupoid,
              data: DecompositionData) -> HomMatrix:
    """Realize (invariant set, arrow map, twist) as a matrix: the column of an
    arrow inside the restriction has a single entry, the twist value, in the
    row of its image; columns outside the invariant set vanish."""
    restriction = _check_data(g, h, data)
    keep = restriction_arrows(g, data.invariant_units)
    entries = np.zeros((h.arrow_count, g.arrow_count), dtype=complex)
    for i, orig in enumerate(keep):
        entries[data.hom.mapping[i], orig] = data.cocycle.values[i].value
    return HomMatrix(g, h, entries)


def decompose(hm: HomMatrix, *, trust: bool = False) -> DecompositionData:
    """Recover (invariant set, arrow map, twist) from a validated matrix.

    Requires the target to be effective and the matrix to pass `validate_hom`
    (skipped with `trust`, so that corrupted input reaches the checks below).
    Support patterns a genuine homomorphism cannot produce raise
    `InternalInconsistencyError`, signalling corrupted input.
    """
    g, h = hm.source, hm.target
    if not is_effective(h):
        raise HypothesisError("decomposition requires an effective target groupoid")
    if not trust:
        require_valid(hm)
    m = hm.entries

    kept_units = []
    sigma = {}
    for x in g.units:
        col = m[:, x]
        rows = np.nonzero(np.abs(col) > SUPPORT_TOL)[0]
        if rows.size == 0:
            continue
        if rows.size > 1:
            raise InternalInconsistencyError(
                f"diagonal column {x} is supported on {rows.size} arrows")
        row = int(rows[0])
        if not h.is_unit(row) or abs(col[row] - 1.0) > SUPPORT_TOL:
            raise InternalInconsistencyError(
                f"diagonal column {x} is not a unit point mass")
        kept_units.append(x)
        sigma[x] = row
    if len(set(sigma.values())) != len(sigma):
        raise InternalInconsistencyError("unit images collide")
    f = tuple(kept_units)
    if invariance_witness(g, f) is not None:
        raise InternalInconsistencyError("recovered unit set is not invariant")

    restriction = restrict(g, f)
    keep = restriction_arrows(g, f)
    mapping = []
    values = []
    for i, orig in enumerate(keep):
        col = m[:, orig]
        rows = np.nonzero(np.abs(col) > SUPPORT_TOL)[0]
        if rows.size != 1:
            raise InternalInconsistencyError(
                f"column {orig} is supported on {rows.size} arrows; its support "
                f"does not lie in a single bisection")
        row = int(rows[0])
        if h.src[row] != sigma[g.src[orig]] or h.rng[row] != sigma[g.rng[orig]]:
            raise InternalInconsistencyError(
                f"column {orig} is supported at an arrow with the wrong endpoints")
        value = complex(col[row])
        if abs(abs(value) - 1.0) > SUPPORT_TOL:
            raise InternalInconsistencyError(
                f"column {orig} has entry of modulus {abs(value)}, expected 1")
        mapping.append(row)
        values.append(Phase.from_complex(value / abs(value)))
    try:
        hom = GroupoidHom(restriction, h, tuple(mapping))
    except HomomorphismError as exc:
        raise InternalInconsistencyError(
            f"recovered arrow map is not a homomorphism: {exc}") from exc
    try:
        cocycle = Cocycle(restriction, values)
    except Exception as exc:
        raise InternalInconsistencyError(
            f"recovered twist is not a cocycle: {exc}") from exc
    data = DecompositionData(f, hom, cocycle)

    rebuilt = build_hom(g, h, data)
    residual = float(np.max(np.abs(rebuilt.entries - m))) if m.size else 0.0
    if residual > TOL:
        raise InternalInconsistencyError(
            f"rebuilt matrix deviates by {residual:.3e}")
    return data


def quotient_hom(h: FiniteGroupoid) -> HomMatrix:
    """The fiber-summing map onto the algebra of the isotropy-collapsed
    quotient: entry 1 wherever the collapse map sends the column arrow to the
    row arrow."""
    quotient, q = quotient_by_isotropy(h)
    entries = np.zeros((quotient.arrow_count, h.arrow_count), dtype=complex)
    for a in h.arrows():
        entries[q.mapping[a], a] = 1.0
    return HomMatrix(h, quotient, entries)


def rigidity_check(hm: HomMatrix) -> GroupoidHom:
    """For a surjective validated matrix onto an effective target, return the
    induced isomorphism from the isotropy-collapsed restriction onto the target."""
    g, h = hm.source, hm.target
    if not is_effective(h):
        raise HypothesisError("rigidity requires an effective target groupoid")
    require_valid(hm)
    rank = numerical_rank(hm.entries)
    if rank < h.arrow_count:
        raise HypothesisError(
            f"matrix is not surjective: rank {rank} < {h.arrow_count}")
    data = decompose(hm)
    restriction = data.hom.domain
    quotient, q = quotient_by_isotropy(restriction)
    induced = [-1] * quotient.arrow_count
    for a in restriction.arrows():
        cls = q.mapping[a]
        img = data.hom.mapping[a]
        if induced[cls] == -1:
            induced[cls] = img
        elif induced[cls] != img:
            raise InternalInconsistencyError(
                f"arrow map does not factor through the quotient at arrow {a}")
    try:
        iso = GroupoidHom(quotient, h, tuple(induced))
    except HomomorphismError as exc:
        raise InternalInconsistencyError(
            f"induced quotient map is not a homomorphism: {exc}") from exc
    if not iso.is_bijective():
        raise InternalInconsistencyError(
            "induced quotient map is not bijective")
    return iso


def enumerate_decomposition_data(
    g: FiniteGroupoid,
    h: FiniteGroupoid,
    phase_order: int,
) -> Iterator[DecompositionData]:
    """Every (invariant set, unit-injective arrow map, root-of-unity twist)
    triple between the two groupoids, in deterministic order."""
    for f in invariant_subsets(g):
        restriction = restrict(g, f)
        homs = enumerate_homomorphisms(restriction, h, injective_on_units=True)
        if not homs:
            continue
        cocycles = enumerate_cocycles(restriction, phase_order)
        for hom in homs:
            for c in cocycles:
                yield DecompositionData(f, hom, c)
