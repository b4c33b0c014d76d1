"""Single-entry table mutations, used to exercise the axiom validator."""

from __future__ import annotations

import random
from typing import Iterator

from .groupoid import FiniteGroupoid

__all__ = ["enumerate_mutations", "sample_mutations"]


def _mutation_specs(g: FiniteGroupoid) -> Iterator[tuple[str, str, object, int | None]]:
    """(label, field, key, value) for every single-entry change, in the order
    both public functions use.  A unit flip carries the flipped arrow as its
    key and no value."""
    n = g.arrow_count
    for a in range(n):
        yield (f"unit_flip[{a}]", "units", a, None)
    for name, table in (("src", g.src), ("rng", g.rng), ("inv", g.inv)):
        for i in range(n):
            for v in range(n):
                if v != table[i]:
                    yield (f"{name}[{i}]={v}", name, i, v)
    for (a, b), c in g.compose.items():
        for v in range(n):
            if v != c:
                yield (f"compose[{a},{b}]={v}", "compose", (a, b), v)


def _mutant(g: FiniteGroupoid, field: str, key, value) -> FiniteGroupoid:
    """The groupoid of one mutation spec."""
    tables = {"units": g.units, "src": g.src, "rng": g.rng,
              "compose": g.compose, "inv": g.inv}
    if field == "units":
        tables["units"] = sorted(set(g.units) ^ {key})
    else:
        tables[field] = mutated = (dict if field == "compose" else list)(tables[field])
        mutated[key] = value
    return FiniteGroupoid(g.arrow_count, **tables)


def enumerate_mutations(g: FiniteGroupoid) -> Iterator[tuple[str, FiniteGroupoid]]:
    """Every groupoid obtained by changing exactly one table entry.

    Covers: flipping one unit flag, redirecting one src/rng/inv entry, and
    rewriting one composition product.  All results are structurally well
    formed; none should pass validation when the input does."""
    for label, field, key, value in _mutation_specs(g):
        yield label, _mutant(g, field, key, value)


def sample_mutations(g: FiniteGroupoid, rng: random.Random,
                     count: int) -> list[tuple[str, FiniteGroupoid]]:
    """A deterministic random sample (with replacement) of single mutations;
    only the drawn mutants are built."""
    specs = list(_mutation_specs(g))
    if not specs:
        return []
    drawn = [specs[rng.randrange(len(specs))] for _ in range(count)]
    return [(label, _mutant(g, field, key, value))
            for label, field, key, value in drawn]
