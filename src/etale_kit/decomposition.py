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

from .cocycles import Cocycle, Phase, enumerate_cocycles, trivial_cocycle
from .cstar import _conv_arrays
from .errors import (
    DENSE_PRODUCT_BUDGET,
    SEARCH_BUDGET,
    SUPPORT_TOL,
    TOL,
    CapExceeded,
    CocycleError,
    HypothesisError,
    InternalInconsistencyError,
    StructuralError,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidHom,
    _restriction,
    enumerate_homomorphisms,
    invariant_subsets,
    is_effective,
    normalize_unit_set,
    quotient_by_isotropy,
    restrict,
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
        return not self.failed_checks()

    def failed_checks(self) -> list[str]:
        return [name for name in ("is_star_hom", "diagonal_into_diagonal",
                                  "image_diag_is_ideal") if not getattr(self, name)]


def numerical_rank(mat: np.ndarray) -> int:
    """Count of singular values above TOL * max(1, largest singular value)."""
    if not mat.size:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > TOL * max(1.0, float(sv[0]))))


def _monomial_residual(g: FiniteGroupoid, h: FiniteGroupoid, m: np.ndarray):
    """The dense loop's `(-peak, w, a, b)` for a matrix with at most one
    nonzero entry per column, or None for any other matrix.

    If column a is nonzero only in row r(a), the multiplicativity residual
    image(a.b) - image(a) * image(b) at target arrow w can be nonzero only at
    w = r(a.b), for a composable source pair, or at w = r(a).r(b), where the
    rows compose in the target; every other cell is an exact zero.  Only these
    cells are evaluated, with the dense loop's array operations, so the floats
    and the first maximum in (w, a, b) order are the same.  A matrix with more
    cells of the second kind than the source has composable pairs plus the
    matrix has entries also gets None, so that the arrays here stay within
    the size of the input."""
    n, k = g.arrow_count, h.arrow_count
    nonzero = m != 0
    per_col = nonzero.sum(axis=0)
    if per_col.max() > 1:
        return None
    rows = np.where(per_col == 1, nonzero.argmax(axis=0), -1)
    g_left, g_right, g_out = _conv_arrays(g)
    h_left, h_right, h_out = _conv_arrays(h)

    # second kind: the support columns grouped by row, then for each target
    # pair (x, y) every column of row x against every column of row y
    cols = np.flatnonzero(rows >= 0)
    cols = cols[np.argsort(rows[cols], kind="stable")]
    per_row = np.bincount(rows[cols], minlength=k)
    first = np.cumsum(per_row) - per_row
    sizes = per_row[h_left] * per_row[h_right]
    if sizes.sum() > len(g_out) + m.size:
        return None
    pair = np.repeat(np.arange(len(sizes)), sizes)
    offset = np.arange(len(pair)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = per_row[h_right[pair]]
    a2 = cols[first[h_left[pair]] + offset // width]
    b2 = cols[first[h_right[pair]] + offset % width]
    w2 = h_out[pair]
    # the image side m[w, a.b] where a.b exists; the source's compose keys
    # are sorted, as FiniteGroupoid builds its table in key order
    keys = np.append(g_left * n + g_right, n * n)
    query = a2 * n + b2
    pos = np.searchsorted(keys, query)
    hit = keys[pos] == query
    pos = pos[hit]
    lhs2 = np.zeros(len(pair), dtype=complex)
    lhs2[hit] = m[w2[hit], g_out[pos]]
    # first kind: composable source pairs with a nonzero product column, less
    # the cells the second kind holds; the product side of the rest is zero
    covered = np.zeros(len(g_out), dtype=bool)
    covered[pos] = rows[g_out[pos]] == w2[hit]
    first_kind = (rows[g_out] >= 0) & ~covered
    a1, b1, c1 = g_left[first_kind], g_right[first_kind], g_out[first_kind]
    w1 = rows[c1]

    with np.errstate(over="ignore", invalid="ignore"):
        rhs2 = m[rows[a2], a2] * m[rows[b2], b2]
        diff = np.abs(np.concatenate([m[w1, c1], lhs2 - rhs2]))
    diff[np.isnan(diff)] = np.inf
    peak = float(diff.max(initial=0.0))
    if peak == 0.0:
        # every cell is zero, and the dense loop names the first, (0, 0, 0)
        return (-peak, 0, 0, 0)
    cell = ((np.concatenate([w1, w2]) * n + np.concatenate([a1, a2])) * n
            + np.concatenate([b1, b2]))
    w, ab = divmod(int(cell[diff == peak].min()), n * n)
    return (-peak, w) + divmod(ab, n)


def validate_hom(hm: HomMatrix) -> HomReport:
    """Check the *-homomorphism laws on all basis pairs, that the diagonal
    lands in the diagonal, and that the diagonal image is a full function
    algebra on its support (the finite-scale ideal criterion).

    Multiplicativity is checked on the cells where the residual can be
    nonzero when every column has at most one nonzero entry, as every matrix
    `build_hom` makes does; any other matrix takes the dense loop over all
    (w, a, b), which refuses with `CapExceeded` past `DENSE_PRODUCT_BUDGET`
    products.  Both paths compute the same floats, and every decision
    compares them with `TOL` as they stand; none reads a `Phase`, so that a
    twist near a root of unity is judged by its entry, not by the root.  The
    report depends on the read-only entries alone, so it is computed once
    per matrix and stored on it."""
    if hm._report is not None:
        return hm._report
    g, h, m = hm.source, hm.target, hm.entries
    n, k = g.arrow_count, h.arrow_count

    # multiplicativity: image of each basis product a.b vs product of images;
    # the witness is the first maximum in (w, a, b) order
    is_star_hom = True
    star_witness = None
    if n and k:
        found = _monomial_residual(g, h, m)
        if found is None:
            products = n * n * len(h.compose)
            if products > DENSE_PRODUCT_BUDGET:
                raise CapExceeded(
                    f"the dense multiplicativity check of a {k}x{n} matrix "
                    f"needs {products} products, over the budget of "
                    f"{DENSE_PRODUCT_BUDGET}")
            # one left factor a at a time, so that residuals take (k, n)
            # memory, not (k, n, n)
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
                # products that overflow leave inf - inf = NaN residuals,
                # which would compare below TOL; they count as infinite
                with np.errstate(over="ignore", invalid="ignore"):
                    np.add.at(rhs, out, m_left[:, a, None] * m_right)
                    diff = np.abs(lhs - rhs)
                diff[np.isnan(diff)] = np.inf
                w, b = divmod(int(np.argmax(diff)), n)
                peaks.append((-float(diff[w, b]), w, a, b))
            found = min(peaks)
        neg_peak, _, a, b = found
        if -neg_peak > TOL:
            is_star_hom = False
            star_witness = (a, b, -neg_peak)

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


def _fill(g: FiniteGroupoid, h: FiniteGroupoid, keep: tuple[int, ...],
          data: DecompositionData) -> np.ndarray:
    """The entries of a triple: column keep[i] holds the twist value at arrow
    i of the restriction in the row of its image, and every other entry is 0."""
    entries = np.zeros((h.arrow_count, g.arrow_count), dtype=complex)
    entries[list(data.hom.mapping), list(keep)] = [v.value for v in data.cocycle.values]
    return entries


def build_hom(g: FiniteGroupoid, h: FiniteGroupoid,
              data: DecompositionData) -> HomMatrix:
    """Realize (invariant set, arrow map, twist) as a matrix: the column of an
    arrow inside the restriction has a single entry, the twist value, in the
    row of its image; columns outside the invariant set vanish."""
    keep, restriction = _restriction(g, normalize_unit_set(g, data.invariant_units))
    if data.hom.domain != restriction:
        raise HypothesisError("arrow map is not defined on the restriction")
    if data.hom.codomain != h:
        raise HypothesisError("arrow map does not land in the target groupoid")
    if data.cocycle.groupoid != restriction:
        raise HypothesisError("twist is not defined on the restriction")
    images = [data.hom.mapping[x] for x in restriction.units]
    if len(set(images)) != len(images):
        dup = [x for x, y in zip(restriction.units, images) if images.count(y) > 1]
        raise HypothesisError(
            f"arrow map is not injective on the restricted units: {dup[:2]}")
    return HomMatrix(g, h, _fill(g, h, keep, data))


def decompose(hm: HomMatrix, *, trust: bool = False) -> DecompositionData:
    """Recover (invariant set, arrow map, twist) from a validated matrix.

    Requires the target to be effective and the matrix to pass `validate_hom`
    (skipped with `trust`, so that corrupted input reaches the checks below).
    Support patterns a genuine homomorphism cannot produce raise
    `InternalInconsistencyError`, signalling corrupted input.  A twist entry
    becomes a root of unity only if it lies within TOL of that root.
    """
    g, h = hm.source, hm.target
    if not is_effective(h):
        raise HypothesisError("decomposition requires an effective target groupoid")
    if not trust:
        require_valid(hm)
    m = hm.entries
    # each column's support size and first supported row, from one mask; a
    # target without arrows supports nothing, and has no row to point at
    support = np.abs(m) > SUPPORT_TOL
    counts = support.sum(axis=0).tolist()
    rows = support.argmax(axis=0).tolist() if h.arrow_count else counts

    sigma = {}
    for x in g.units:
        if counts[x] > 1:
            raise InternalInconsistencyError(
                f"diagonal column {x} is supported on {counts[x]} arrows")
        if counts[x]:
            if not h.is_unit(rows[x]) or abs(m[rows[x], x] - 1.0) > SUPPORT_TOL:
                raise InternalInconsistencyError(
                    f"diagonal column {x} is not a unit point mass")
            sigma[x] = rows[x]
    if len(set(sigma.values())) != len(sigma):
        raise InternalInconsistencyError("unit images collide")
    f = tuple(sigma)
    try:
        keep, restriction = _restriction(g, f)
    except HypothesisError as exc:
        raise InternalInconsistencyError(f"recovered {exc}") from exc

    mapping = []
    values = []
    for orig in keep:
        if counts[orig] != 1:
            raise InternalInconsistencyError(
                f"column {orig} is supported on {counts[orig]} arrows; its "
                f"support does not lie in a single bisection")
        row = rows[orig]
        if h.src[row] != sigma[g.src[orig]] or h.rng[row] != sigma[g.rng[orig]]:
            raise InternalInconsistencyError(
                f"column {orig} is supported at an arrow with the wrong endpoints")
        value = complex(m[row, orig])
        if abs(abs(value) - 1.0) > SUPPORT_TOL:
            raise InternalInconsistencyError(
                f"column {orig} has entry of modulus {abs(value)}, expected 1")
        mapping.append(row)
        values.append(Phase.from_complex(value))
    # an effective target has one arrow per pair of endpoints, and every
    # column's endpoints are checked above, so this is a homomorphism
    hom = GroupoidHom(restriction, h, tuple(mapping))
    try:
        cocycle = Cocycle(restriction, values)
    except CocycleError as exc:
        raise InternalInconsistencyError(
            f"recovered twist is not a cocycle: {exc}") from exc
    data = DecompositionData(f, hom, cocycle)

    residual = float(np.max(np.abs(_fill(g, h, keep, data) - m))) if m.size else 0.0
    if residual > TOL:
        raise InternalInconsistencyError(
            f"rebuilt matrix deviates by {residual:.3e}")
    return data


def quotient_hom(h: FiniteGroupoid) -> HomMatrix:
    """The fiber-summing map onto the algebra of the isotropy-collapsed
    quotient: the triple (all units, collapse map, trivial twist), so entry 1
    wherever the collapse map sends the column arrow to the row arrow."""
    quotient, q = quotient_by_isotropy(h)
    return build_hom(h, quotient, DecompositionData(h.units, q, trivial_cocycle(h)))


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
    # a class of the quotient holds the arrows with one pair of endpoints,
    # which the arrow map sends to the one target arrow between their images
    induced = [0] * quotient.arrow_count
    for a in restriction.arrows():
        induced[q.mapping[a]] = data.hom.mapping[a]
    iso = GroupoidHom(quotient, h, tuple(induced))
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
    triple between the two groupoids, in deterministic order; refuses with
    `CapExceeded` before the count of triples would pass SEARCH_BUDGET."""
    count = 0
    for f in invariant_subsets(g):
        restriction = restrict(g, f)
        homs = enumerate_homomorphisms(restriction, h, injective_on_units=True)
        if not homs:
            continue
        cocycles = enumerate_cocycles(restriction, phase_order)
        count += len(homs) * len(cocycles)
        if count > SEARCH_BUDGET:
            raise CapExceeded(
                f"decomposition data: {count} triples exceed the search "
                f"budget of {SEARCH_BUDGET}")
        for hom in homs:
            for c in cocycles:
                yield DecompositionData(f, hom, c)
