"""The reduced C*-algebra of a finite groupoid as a concrete matrix algebra.

Elements are complex coefficient vectors indexed by arrows; the norm is the
largest operator norm over the regular representations at the units, which for
a finite groupoid realizes the full reduced norm.
"""

from __future__ import annotations

import numpy as np

from .errors import ROW_SPACE_CUT, TOL, HypothesisError, SliceError, StructuralError
from .groupoid import FiniteGroupoid, is_effective
from .inverse_semigroup import Bisection

__all__ = [
    "AlgebraElement",
    "delta",
    "unit_indicator",
    "convolve",
    "star",
    "LeftRegularRep",
    "left_regular",
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
    v[a] = 1.0
    return AlgebraElement(g, v)


def unit_indicator(g: FiniteGroupoid) -> AlgebraElement:
    v = np.zeros(g.arrow_count, dtype=complex)
    for x in g.units:
        v[x] = 1.0
    return AlgebraElement(g, v)


def _conv_arrays(g: FiniteGroupoid):
    cached = g._cache.get("conv_arrays")
    if cached is None:
        items = g.compose.items()
        left = np.array([a for (a, _), _ in items], dtype=np.intp)
        right = np.array([b for (_, b), _ in items], dtype=np.intp)
        out = np.array([c for _, c in items], dtype=np.intp)
        cached = (left, right, out)
        g._cache["conv_arrays"] = cached
    return cached


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f*g)(c) = sum of f(a) g(b) over factorizations a.b = c."""
    _same_groupoid(f, g)
    left, right, out = _conv_arrays(f.groupoid)
    result = np.zeros(f.groupoid.arrow_count, dtype=complex)
    np.add.at(result, out, f.coeff[left] * g.coeff[right])
    return AlgebraElement(f.groupoid, result)


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
        if not groupoid.is_unit(unit):
            raise StructuralError(f"{unit} is not a unit")
        self.groupoid = groupoid
        self.unit = unit
        by_src = groupoid.by_src()
        self.basis = by_src[unit]
        pos = {a: i for i, a in enumerate(self.basis)}
        rows, cols, coeffs = [], [], []
        for a in self.basis:
            for b in by_src[groupoid.rng[a]]:
                rows.append(pos[groupoid.compose[(b, a)]])
                cols.append(pos[a])
                coeffs.append(b)
        self._rows = np.array(rows, dtype=np.intp)
        self._cols = np.array(cols, dtype=np.intp)
        self._coeffs = np.array(coeffs, dtype=np.intp)

    def matrix(self, f: AlgebraElement) -> np.ndarray:
        if f.groupoid != self.groupoid:
            raise StructuralError("element lives on a different groupoid")
        k = len(self.basis)
        m = np.zeros((k, k), dtype=complex)
        np.add.at(m, (self._rows, self._cols), f.coeff[self._coeffs])
        return m


def left_regular(g: FiniteGroupoid, unit: int) -> LeftRegularRep:
    cache = g._cache.setdefault("left_regular", {})
    rep = cache.get(unit)
    if rep is None:
        rep = LeftRegularRep(g, unit)
        cache[unit] = rep
    return rep


def reduced_norm(f: AlgebraElement) -> float:
    """Largest operator norm of the regular representations over all units."""
    best = 0.0
    for x in f.groupoid.units:
        rep = left_regular(f.groupoid, x)
        if rep.basis:
            best = max(best, float(np.linalg.norm(rep.matrix(f), 2)))
    return best


def is_normalizer(f: AlgebraElement) -> bool:
    """Whether f d f* and f* d f stay diagonal for every diagonal basis
    element d, up to TOL * max(1, max|f|^2)."""
    g = f.groupoid
    scale = float(np.max(np.abs(f.coeff))) if g.arrow_count else 0.0
    bound = TOL * max(1.0, scale * scale)
    fs = star(f)
    off_units = [a for a in g.arrows() if not g.is_unit(a)]
    for x in g.units:
        d = delta(g, x)
        for prod in (convolve(convolve(f, d), fs), convolve(convolve(fs, d), f)):
            if off_units and np.max(np.abs(prod.coeff[off_units])) > bound:
                return False
    return True


# -- slices ------------------------------------------------------------------


class Slice:
    """A subspace of the algebra stored by an orthonormal coefficient basis."""

    __slots__ = ("groupoid", "basis")

    def __init__(self, groupoid: FiniteGroupoid, vectors, *, _orthonormal: bool = False):
        mat = np.asarray(vectors, dtype=complex)
        if mat.ndim != 2 or mat.shape[1] != groupoid.arrow_count:
            raise StructuralError("slice basis must be rows of arrow length")
        if not np.all(np.isfinite(mat)):
            raise StructuralError("slice basis must be finite")
        if not _orthonormal:
            mat = _row_space_basis(mat)
        mat = mat.copy()
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
    if mat.shape[0] == 0:
        return mat.reshape(0, mat.shape[1])
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return mat[:0]
    rank = int(np.sum(s > ROW_SPACE_CUT * s[0]))
    return vh[:rank]


def slice_of_bisection(u: Bisection) -> Slice:
    g = u.groupoid
    mat = np.zeros((len(u.arrows), g.arrow_count), dtype=complex)
    for i, a in enumerate(u.arrows):
        mat[i, a] = 1.0
    return Slice(g, mat, _orthonormal=True)


def slice_product(m: Slice, n: Slice) -> Slice:
    """Span of all pairwise convolutions of basis elements, re-orthonormalized."""
    if m.groupoid != n.groupoid:
        raise StructuralError("slices live on different groupoids")
    g = m.groupoid
    prods = []
    for u in m.basis:
        fu = AlgebraElement(g, u)
        for v in n.basis:
            prods.append(convolve(fu, AlgebraElement(g, v)).coeff)
    if not prods:
        return Slice(g, np.zeros((0, g.arrow_count), dtype=complex), _orthonormal=True)
    return Slice(g, np.array(prods))


def slices_equal(m: Slice, n: Slice) -> bool:
    if m.groupoid != n.groupoid or m.dim != n.dim:
        return False
    for v in m.basis:
        if n.project_residual(v) > TOL:
            return False
    for v in n.basis:
        if m.project_residual(v) > TOL:
            return False
    return True


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
    support = sorted({int(a) for v in m.basis
                      for a in np.nonzero(np.abs(v) > TOL)[0]})
    try:
        Bisection(g, tuple(support))
    except StructuralError as exc:
        return f"members are not normalizers: support is not a bisection ({exc})"
    if len(support) != m.dim:
        return (f"dimension {m.dim} does not match support size {len(support)}")
    return None


def slice_to_bisection(m: Slice) -> Bisection:
    """Recover the bisection underneath a slice of an effective groupoid."""
    if not is_effective(m.groupoid):
        raise HypothesisError(
            "slice-to-bisection recovery requires an effective groupoid")
    reason = slice_failure(m)
    if reason is not None:
        raise SliceError(reason)
    support = sorted({int(a) for v in m.basis
                      for a in np.nonzero(np.abs(v) > TOL)[0]})
    return Bisection(m.groupoid, tuple(support))
