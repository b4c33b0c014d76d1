"""Finite etale groupoids, their reduced C*-algebras, and the decomposition of
diagonal-compatible *-homomorphisms into (invariant set, arrow map, twist).

The package root re-exports nothing: import each name from the submodule that
defines it, so that the combinatorial layers load without numpy."""

__version__ = "0.1.0"
