"""The reduced C*-algebra of a finite groupoid as a concrete matrix algebra.

Elements are complex coefficient vectors indexed by arrows; the norm is the
largest operator norm over the regular representations at the units, which for
a finite groupoid realizes the full reduced norm.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ROW_SPACE_CUT, TOL, HypothesisError, SliceError, StructuralError
from .groupoid import FiniteGroupoid, _int, _unchecked, is_effective

__all__ = [
    "AlgebraElement",
    "delta",
    "convolve",
    "star",
    "LeftRegularRep",
    "reduced_norm",
    "is_normalizer",
    "Slice",
    "slice_of_bisection",
    "slice_product",
    "slice_to_bisection",
    "slices_equal",
    "slice_failure",
]

class AlgebraElement:
    """A compactly supported function on the groupoid, i.e. a coefficient per arrow."""

    __slots__ = ("groupoid", "coeff")

    def __init__(self, groupoid: FiniteGroupoid, coeff):
        arr = np.asarray(coeff, dtype=complex)
        if arr.shape != (groupoid.arrow_count,):
            raise StructuralError(
                f"coefficient vector has shape {arr.shape}, "
                f"expected ({groupoid.arrow_count},)")
        if not np.all(np.isfinite(arr.view(float))):
            raise StructuralError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        self.groupoid = groupoid
        self.coeff = arr

    def __add__(self, other):
        _same_groupoid(self, other)
        return AlgebraElement(self.groupoid, self.coeff + other.coeff)

    def __sub__(self, other):
        _same_groupoid(self, other)
        return AlgebraElement(self.groupoid, self.coeff - other.coeff)

    def __mul__(self, scalar):
        return AlgebraElement(self.groupoid, self.coeff * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"AlgebraElement({self.coeff!r})"


def _same_groupoid(f: AlgebraElement, g: AlgebraElement) -> None:
    if f.groupoid != g.groupoid:
        raise StructuralError("elements live on different groupoids")


def delta(g: FiniteGroupoid, a: int) -> AlgebraElement:
    v = np.zeros(g.arrow_count, dtype=complex)
    v[_int("arrow", a, 0, g.arrow_count - 1)] = 1.0
    return AlgebraElement(g, v)


def _conv_arrays(g: FiniteGroupoid):
    cached = g._cache.get("conv_arrays")
    if cached is None:
        k = len(g.compose)
        pairs = np.fromiter(chain.from_iterable(g.compose), dtype=np.intp, count=2 * k)
        left, right = pairs.reshape(k, 2).T.copy()
        cached = (left, right, np.fromiter(g.compose.values(), dtype=np.intp, count=k))
        g._cache["conv_arrays"] = cached
    return cached


def _convolutions(g: FiniteGroupoid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row i * len(v) + j is u[i] convolved with v[j], summed in compose order."""
    left, right, out = _conv_arrays(g)
    rows = len(u) * len(v)
    terms = np.take(u, left, axis=1)[:, None] * np.take(v, right, axis=1)[None]
    cells = np.arange(rows)[:, None] * g.arrow_count + out
    result = np.zeros((rows, g.arrow_count), dtype=complex)
    np.add.at(result.reshape(-1), cells.ravel(), terms.ravel())
    return result


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f*g)(c) = sum of f(a) g(b) over factorizations a.b = c."""
    _same_groupoid(f, g)
    return AlgebraElement(
        f.groupoid, _convolutions(f.groupoid, f.coeff[None], g.coeff[None])[0])


def star(f: AlgebraElement) -> AlgebraElement:
    """f*(a) = conjugate of f at the inverse arrow."""
    inv = np.array(f.groupoid.inv, dtype=np.intp)
    return AlgebraElement(f.groupoid, np.conj(f.coeff[inv]))


class LeftRegularRep:
    """The regular representation at a unit, acting on the arrows with that source.

    The matrix of an element f sends the basis vector at arrow a to the sum of
    f(b) at b.a over arrows b whose source is rng(a); this is convolution on
    the left, so the representation is multiplicative and star-preserving.
    """

    def __init__(self, groupoid: FiniteGroupoid, unit: int):
        unit = _int("unit", unit, 0, groupoid.arrow_count - 1)
        if not groupoid.is_unit(unit):
            raise StructuralError(f"{unit} is not a unit")
        self.groupoid = groupoid
        self.unit = unit
        self.basis = groupoid.by_src()[unit]
        self._rows, self._cols, self._coeffs = _regular_index(groupoid)[unit]

    def matrix(self, f: AlgebraElement) -> np.ndarray:
        if f.groupoid != self.groupoid:
            raise StructuralError("element lives on a different groupoid")
        k = len(self.basis)
        m = np.zeros((k, k), dtype=complex)
        np.add.at(m, (self._rows, self._cols), f.coeff[self._coeffs])
        return m


def _regular_index(g: FiniteGroupoid) -> list[tuple[np.ndarray, ...]]:
    """Indexed by unit x, the (row, column, coefficient arrow) triples of the
    regular representation at x: the compose entries b.a with src(a) = x, at
    the slots of b.a and a in by_src()[x], one per cell.  The cache holds only
    arrays, so no reference back to the groupoid."""
    cached = g._cache.get("regular_index")
    if cached is None:
        left, right, out = _conv_arrays(g)
        slot = np.array([g.by_src()[g.src[a]].index(a) for a in g.arrows()], dtype=np.intp)
        at = np.asarray(g.src, dtype=np.intp)[right]
        order = np.argsort(at, kind="stable")
        cuts = np.cumsum(np.bincount(at, minlength=g.arrow_count))[:-1]
        table = np.stack([slot[out], slot[right], left])[:, order]
        cached = [tuple(block) for block in np.split(table, cuts, axis=1)]
        g._cache["regular_index"] = cached
    return cached


def reduced_norm(f: AlgebraElement) -> float:
    """Largest operator norm of the regular representations over all units."""
    best = 0.0
    for x in f.groupoid.units:
        rep = LeftRegularRep(f.groupoid, x)
        if rep.basis:
            best = max(best, float(np.linalg.norm(rep.matrix(f), 2)))
    return best


def is_normalizer(f: AlgebraElement) -> bool:
    """Whether f d f* and f* d f stay diagonal for every diagonal basis
    element d, up to TOL * max(1, max|f|^2).  For d the point mass at a unit
    x, f d is f on the arrows with source x, so each is one convolution."""
    g = f.groupoid
    scale = float(np.max(np.abs(f.coeff))) if g.arrow_count else 0.0
    bound = TOL * max(1.0, scale * scale)
    fs = star(f).coeff
    off_units = np.array([not g.is_unit(a) for a in g.arrows()], dtype=bool)
    src = np.asarray(g.src)
    for x in g.units:
        for h, k in ((f.coeff, fs), (fs, f.coeff)):
            prod = _convolutions(g, np.where(src == x, h, 0)[None], k[None])[0]
            if np.max(np.abs(prod[off_units]), initial=0.0) > bound:
                return False
    return True


# -- slices ------------------------------------------------------------------


class Slice:
    """A subspace of the algebra stored by an orthonormal coefficient basis."""

    __slots__ = ("groupoid", "basis")

    def __init__(self, groupoid: FiniteGroupoid, vectors):
        mat = np.asarray(vectors, dtype=complex)
        if mat.ndim != 2 or mat.shape[1] != groupoid.arrow_count:
            raise StructuralError("slice basis must be rows of arrow length")
        if not np.all(np.isfinite(mat)):
            raise StructuralError("slice basis must be finite")
        mat = _row_space_basis(mat).copy()
        mat.flags.writeable = False
        self.groupoid = groupoid
        self.basis = mat

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project_residual(self, vector: np.ndarray) -> float:
        proj = self.basis.T @ (self.basis.conj() @ vector)
        return float(np.linalg.norm(vector - proj))

    def contains(self, f: AlgebraElement) -> bool:
        return self.project_residual(f.coeff) <= TOL * max(1.0, float(np.linalg.norm(f.coeff)))

    def __repr__(self):
        return f"Slice(dim={self.dim})"


def _row_space_basis(mat: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return mat[:0]
    rank = int(np.sum(s > ROW_SPACE_CUT * s[0]))
    return vh[:rank]


def slice_of_bisection(u: Bisection) -> Slice:
    """The span of the point masses of u's arrows, which are already orthonormal."""
    g = u.groupoid
    mat = np.zeros((len(u.arrows), g.arrow_count), dtype=complex)
    mat[range(len(u.arrows)), u.arrows] = 1.0
    mat.flags.writeable = False
    return _unchecked(Slice, groupoid=g, basis=mat)


def slice_product(m: Slice, n: Slice) -> Slice:
    """Span of all pairwise convolutions of basis elements, re-orthonormalized.

    The kernel takes one row of the first basis at a time, so that its terms
    stay within dim(n) * |compose|; the rows stack in the same order."""
    if m.groupoid != n.groupoid:
        raise StructuralError("slices live on different groupoids")
    g = m.groupoid
    # an empty first basis still makes one call, for the (0, arrows) shape
    return Slice(g, np.concatenate([_convolutions(g, m.basis[i:i + 1], n.basis)
                                    for i in range(max(m.dim, 1))]))


def slices_equal(m: Slice, n: Slice) -> bool:
    if m.groupoid != n.groupoid or m.dim != n.dim:
        return False
    return not any(b.project_residual(v) > TOL
                   for a, b in ((m, n), (n, m)) for v in a.basis)


def slice_failure(m: Slice) -> str | None:
    """Why the subspace is not a slice, or None if it is one.

    Checks closure under left and right multiplication by the diagonal basis,
    then that the supports assemble into a bisection (which, on an effective
    groupoid, is exactly the normalizer condition for every member).

    Multiplying a basis row by the point mass of a unit x is a mask: on the
    left it keeps the entries at arrows with range x, on the right those with
    source x, and zeroes the rest.  A row the mask leaves all zero lies in
    every subspace, so only the nonzero (unit, row, side) products are
    tested, in the order units, then rows, then left before right, each with
    the bound TOL * max(1, |product|) of `Slice.contains`.  They are
    projected onto the basis 2 * dim products at a time, so the memory stays
    within a (units, dim, 2) table and a block of twice the basis; the first
    failure is reported by side and unit."""
    g = m.groupoid
    basis = m.basis
    unit_of = np.zeros(g.arrow_count, dtype=np.intp)
    unit_of[list(g.units)] = np.arange(len(g.units))
    ends = unit_of[[g.rng, g.src]]  # (side, arrow): the unit a mask keeps
    rows, arrows = np.nonzero(basis)
    hit = np.zeros((len(g.units), m.dim, 2), dtype=bool)
    for side in (0, 1):
        hit[ends[side, arrows], rows, side] = True
    units, rows, sides = np.nonzero(hit)
    step = max(2 * m.dim, 1)  # an empty basis has no products to test
    for start in range(0, units.size, step):
        at = slice(start, start + step)
        products = basis[rows[at]]
        products[ends[sides[at]] != units[at, None]] = 0
        residual = np.linalg.norm(
            products - (products @ basis.conj().T) @ basis, axis=1)
        bound = TOL * np.maximum(1.0, np.linalg.norm(products, axis=1))
        failed = np.flatnonzero(~(residual <= bound))  # NaN fails, as in contains
        if failed.size:
            k = start + failed[0]
            return (f"not closed under {('left', 'right')[sides[k]]} "
                    f"multiplication by the diagonal at unit {g.units[units[k]]}")
    from .inverse_semigroup import Bisection
    support = _support(m)
    try:
        Bisection(g, support)
    except StructuralError as exc:
        return f"members are not normalizers: support is not a bisection ({exc})"
    if len(support) != m.dim:
        return (f"dimension {m.dim} does not match support size {len(support)}")
    return None


def _support(m: Slice) -> tuple[int, ...]:
    """The arrows where some basis row exceeds TOL in modulus, ascending."""
    return tuple(np.flatnonzero((np.abs(m.basis) > TOL).any(axis=0)).tolist())


def slice_to_bisection(m: Slice) -> Bisection:
    """Recover the bisection underneath a slice of an effective groupoid."""
    if not is_effective(m.groupoid):
        raise HypothesisError(
            "slice-to-bisection recovery requires an effective groupoid")
    reason = slice_failure(m)
    if reason is not None:
        raise SliceError(reason)
    from .inverse_semigroup import Bisection
    return Bisection(m.groupoid, _support(m))
