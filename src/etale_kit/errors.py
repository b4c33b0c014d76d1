"""Shared exception types, enumeration caps and numerical tolerances."""

from __future__ import annotations

import os

# Exponential enumerations (bisections, automorphisms, cocycles, germ
# machinery) refuse above this many arrows.
DEFAULT_ENUM_CAP = 16
# Explicit inverse-semigroup tables are quadratic in the element count.
SEMIGROUP_ELEMENT_CAP = 1024
# The homomorphism search (automorphisms, decomposition data, cocycles)
# refuses once it has tried this many candidate images in one call, and
# `enumerate_decomposition_data` before it would yield more triples.
SEARCH_BUDGET = 1_000_000
# The multiplicativity check of `validate_hom` refuses above this many
# products of two nonzero entries, counted before any is formed as the sum of
# nnz(row x) * nnz(row y) over the target compose entries (x, y).
PRODUCT_BUDGET = 50_000_000
CAP_ENV_VAR = "ETALE_KIT_CAP"

# Numerical tolerances, one name per decision (README, "Tolerances").
TOL = 1e-9  # law residuals, phases and their snapping, diagonal fixing, rank cut
SUPPORT_TOL = 1e-6  # entries that count as support of a column in `decompose`
PHASE_SNAP_MAX_ORDER = 24  # the largest root-of-unity order a phase snaps to
ROW_SPACE_CUT = 1e-12  # relative singular-value cut of a slice basis


class StructuralError(ValueError):
    """Malformed tables or documents: out-of-range ids, shape mismatches."""


class ConfigError(ValueError):
    """An environment setting or an explicit arrow cap holds a value the
    toolkit cannot use."""


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
    if cap is not None:
        cap = int(cap)
        if cap < 0:
            raise ConfigError(f"the cap must be a non-negative integer, got {cap}")
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_ENUM_CAP
    if not env.strip().isdecimal():
        raise ConfigError(
            f"{CAP_ENV_VAR} must be a non-negative integer, got {env!r}")
    return int(env)


def check_enum_cap(n: int, cap: int | None = None, what: str = "enumeration") -> None:
    limit = enum_cap(cap)
    if n > limit:
        raise CapExceeded(f"{what}: {n} arrows exceeds the cap {limit}")
