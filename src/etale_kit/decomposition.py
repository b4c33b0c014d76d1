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
    PRODUCT_BUDGET,
    SEARCH_BUDGET,
    SUPPORT_TOL,
    TOL,
    CocycleError,
    HypothesisError,
    InternalInconsistencyError,
    StructuralError,
    _charge,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidHom,
    _restriction,
    _unchecked,
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
    assumed until `validate_hom` establishes them.  The public constructor
    checks shape and finiteness; `build_hom`'s matrices are not checked again.
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


# cells formed at once by the multiplicativity check; a left factor with more
# cells takes a block of its own, which holds no more than the (|compose|, n)
# products a dense pass over that factor would
_BLOCK_CELLS = 2**15


def _expand(starts: np.ndarray, counts: np.ndarray):
    """The indices starts[i], ..., starts[i] + counts[i] - 1 for each i in
    turn, as one array, and the i each of them came from."""
    owner = np.arange(len(counts)).repeat(counts)
    return np.arange(len(owner)) + (starts - counts.cumsum() + counts)[owner], owner


def _multiplicativity(g: FiniteGroupoid, h: FiniteGroupoid, m: np.ndarray):
    """`(-peak, w, a, b)`: the largest |image(a.b) - image(a) * image(b)| at
    target arrow w, at the first maximum in (w, a, b) order, with a NaN
    residual counted as infinite.

    A cell (w, a, b) can be nonzero only if m[w, a.b] is, for a composable
    source pair, or if some target compose entry (x, y) -> w has m[x, a] and
    m[y, b] both nonzero; every other cell is an exact zero, and so is every
    product term left out.  Each cell adds its terms in target compose order
    from zero, as a dense sum over all of them would, so the floats are the
    same.  Counts the products to form from the row sizes, and refuses with
    `CapExceeded` when they pass `PRODUCT_BUDGET`, before forming any."""
    n, k = g.arrow_count, h.arrow_count
    g_left, g_right, g_out = _conv_arrays(g)
    h_left, h_right, h_out = _conv_arrays(h)
    # the nonzero entries and their values by row (CSR), and by column (CSC)
    flat = np.flatnonzero(m != 0)
    row_y, row_b = np.divmod(flat, n)
    row_v = m.ravel()[flat]
    by_col = row_b.argsort(kind="stable")
    col_a, col_x, col_v = row_b[by_col], row_y[by_col], row_v[by_col]
    col_ptr = col_a.searchsorted(np.arange(n + 1))
    row_ptr = row_y.searchsorted(np.arange(k + 1))
    col_nnz, row_nnz = col_ptr[1:] - col_ptr[:-1], row_ptr[1:] - row_ptr[:-1]
    g_ptr = g_left.searchsorted(np.arange(n + 1))
    # the target compose entries whose right factor's row has entries
    live = row_nnz[h_right].nonzero()[0]
    h_ptr = h_left[live].searchsorted(np.arange(k + 1))
    h_nnz = h_ptr[1:] - h_ptr[:-1]

    # products per target row x as left factor, then per source column a, as
    # float sums: exact up to 2**53, far past the budget
    per_x = np.bincount(h_left, weights=row_nnz[h_right], minlength=k)
    _charge(0, int(per_x @ row_nnz), PRODUCT_BUDGET,
            f"the multiplicativity check of a {k}x{n} matrix", "products")
    cells = (np.bincount(col_a, weights=per_x[col_x], minlength=n)
             + np.bincount(g_left, weights=col_nnz[g_out], minlength=n))
    reach = cells.cumsum()

    best = (-0.0, 0)  # (-peak, key) of the first maximum; min keeps the earliest
    start = 0
    while start < n:
        stop = max(start + 1, int(np.searchsorted(
            reach, reach[start] - cells[start] + _BLOCK_CELLS, side="right")))
        # image side: m[w, c] for each composable (a, b) -> c, nonzero row w
        pairs = np.arange(g_ptr[start], g_ptr[stop])
        c = g_out[pairs]
        at, i = _expand(col_ptr[c], col_nnz[c])
        pairs = pairs[i]
        w1, a1, b1 = col_x[at], g_left[pairs], g_right[pairs]
        # product side: m[x, a] * m[y, b] for each compose entry (x, y) -> w;
        # for each a the entries come in compose order, as they are sorted by x
        ax = np.arange(col_ptr[start], col_ptr[stop])
        x = col_x[ax]
        entries, i = _expand(h_ptr[x], h_nnz[x])
        ax, entries = ax[i], live[entries]
        y = h_right[entries]
        yb, i = _expand(row_ptr[y], row_nnz[y])
        ax, entries = ax[i], entries[i]
        w2, a2, b2 = h_out[entries], col_a[ax], row_b[yb]

        keys = (np.concatenate([w1, w2]) * n + np.concatenate([a1, a2])) * n \
            + np.concatenate([b1, b2])
        order = keys.argsort()
        ranked = keys[order]
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = ranked[1:] != ranked[:-1]
        cell = np.empty(len(keys), dtype=np.intp)
        cell[order] = fresh.cumsum() - 1
        count = int(fresh.sum())
        lhs = np.zeros(count, dtype=complex)
        lhs[cell[:len(w1)]] = col_v[at]
        with np.errstate(over="ignore", invalid="ignore"):
            terms = col_v[ax] * row_v[yb]
            rhs = np.empty(count, dtype=complex)
            rhs.real = np.bincount(cell[len(w1):], terms.real, minlength=count)
            rhs.imag = np.bincount(cell[len(w1):], terms.imag, minlength=count)
            diff = np.abs(lhs - rhs)
        diff[np.isnan(diff)] = np.inf
        if count:
            top = int(diff.argmax())
            best = min(best, (-float(diff[top]), int(ranked[fresh][top])))
        start = stop
    w, ab = divmod(best[1], n * n)
    return (best[0], w) + divmod(ab, n)


def validate_hom(hm: HomMatrix) -> HomReport:
    """Check the *-homomorphism laws on all basis pairs, that the diagonal
    lands in the diagonal, and that the diagonal image is a full function
    algebra on its support (the finite-scale ideal criterion).

    Multiplicativity is checked by `_multiplicativity` on the cells where
    the residual can be nonzero, for every matrix, and refuses with
    `CapExceeded` past `PRODUCT_BUDGET` products.  Every decision compares
    the floats with `TOL` as they stand; none reads a `Phase`, so that a
    twist near a root of unity is judged by its entry, not by the root.  The
    report depends on the read-only entries alone, so it is computed once
    per matrix and stored on it."""
    if hm._report is not None:
        return hm._report
    g, h, m = hm.source, hm.target, hm.entries
    n, k = g.arrow_count, h.arrow_count

    # multiplicativity: image of each basis product a.b vs product of images
    is_star_hom = True
    star_witness = None
    if n and k:
        neg_peak, _, a, b = _multiplicativity(g, h, m)
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
    """The read-only entries of a triple: column keep[i] holds the twist value
    at arrow i of the restriction in the row of its image, every other entry 0."""
    entries = np.zeros((h.arrow_count, g.arrow_count), dtype=complex)
    entries[list(data.hom.mapping), list(keep)] = [v.value for v in data.cocycle.values]
    entries.flags.writeable = False
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
    return _unchecked(HomMatrix, source=g, target=h, entries=_fill(g, h, keep, data), _report=None)


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
    hom = _unchecked(GroupoidHom, domain=restriction, codomain=h, mapping=tuple(mapping))
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
    data = decompose(hm, trust=True)
    quotient, q = quotient_by_isotropy(data.hom.domain)
    # a class of the quotient holds the arrows with one pair of endpoints,
    # which the arrow map sends to the one target arrow between their images
    induced = dict(zip(q.mapping, data.hom.mapping))
    iso = _unchecked(GroupoidHom, domain=quotient, codomain=h,
                     mapping=tuple(induced[c] for c in quotient.arrows()))
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
    `CapExceeded` before the triples yielded would pass SEARCH_BUDGET."""
    count = 0
    for f in invariant_subsets(g):
        restriction = restrict(g, f)
        homs = enumerate_homomorphisms(restriction, h, injective_on_units=True)
        if not homs:
            continue
        cocycles = enumerate_cocycles(restriction, phase_order)
        count = _charge(count, len(homs) * len(cocycles), SEARCH_BUDGET,
                        "decomposition data", "triples")
        for hom in homs:
            for c in cocycles:
                yield DecompositionData(f, hom, c)
