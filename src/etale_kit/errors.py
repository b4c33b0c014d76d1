"""Shared exception types, enumeration caps and numerical tolerances.

A cap that is not a non-negative integer is a `StructuralError`, like every
other malformed count."""

from __future__ import annotations

# Exponential enumerations (bisections, automorphisms, cocycles, germ
# machinery) refuse above this many arrows unless the caller passes a cap:
# a limit on input size, not work.
DEFAULT_ENUM_CAP = 16
# Work budgets, each charged through `_charge` by the module that reads it:
# the bisections of `enumerate_bisections`, whose table is quadratic in them;
SEMIGROUP_ELEMENT_CAP = 1024
# `hom_search`'s mapping entries, counted before any is formed, and on their
# own its compose checks and a bound on its partial counts, each worth ten
# compose checks, charged before any is kept; the unit sets of `groupoid`'s
# `invariant_subsets`, and the triples of `decomposition`'s
# `enumerate_decomposition_data`; the products of two nonzero entries in
# `validate_hom`'s multiplicativity check, counted before any is formed.
CHECK_BUDGET = 2_000_000
SEARCH_BUDGET = 1_000_000
PRODUCT_BUDGET = 50_000_000

# Numerical tolerances, one name per decision (README, "Tolerances").
TOL = 1e-9  # law residuals, phases and their snapping, diagonal fixing, rank cut
SUPPORT_TOL = 1e-6  # entries that count as support of a column in `decompose`
PHASE_SNAP_MAX_ORDER = 24  # the largest root-of-unity order a phase snaps to
ROW_SPACE_CUT = 1e-12  # relative singular-value cut of a slice basis


class StructuralError(ValueError):
    """Malformed tables or documents: out-of-range ids, shape mismatches."""


class HomomorphismError(ValueError):
    """A map fails the groupoid homomorphism laws; the message carries a witness."""


class CocycleError(ValueError):
    """A phase assignment fails the cocycle laws."""


class ActionError(ValueError):
    """An inverse semigroup action fails its axioms."""


class SliceError(ValueError):
    """A subspace fails the slice (diagonal-bimodule of normalizers) axioms."""


class HypothesisError(RuntimeError):
    """A required hypothesis is not met: the operation refuses rather than guesses."""


class InternalInconsistencyError(RuntimeError):
    """Input that passed validation turned out self-contradictory (corruption)."""


class CapExceeded(RuntimeError):
    """An enumeration or check would exceed a size cap or work budget."""


def enum_cap(cap: int | None = None) -> int:
    """The arrow cap: `cap` itself, or `DEFAULT_ENUM_CAP` when it is None."""
    if cap is None:
        return DEFAULT_ENUM_CAP
    from .groupoid import _int  # groupoid imports this module
    return _int("the cap", cap)


def _charge(spent: int, amount: int, budget: int, what: str, unit: str) -> int:
    """`spent + amount`, the work formed or about to be; `CapExceeded` past `budget`."""
    spent += amount
    if spent > budget:
        raise CapExceeded(f"{what} needs {spent} {unit}, over the budget of {budget}")
    return spent


def check_enum_cap(n: int, cap: int | None = None, what: str = "enumeration") -> None:
    limit = enum_cap(cap)
    if n > limit:
        raise CapExceeded(f"{what}: {n} arrows exceeds the cap {limit}")
