"""Single-entry table mutations, used to exercise the axiom validator."""

from __future__ import annotations

import random
from typing import Callable, Iterator

from .groupoid import FiniteGroupoid

__all__ = ["enumerate_mutations", "sample_mutations"]


def _mutation_specs(g: FiniteGroupoid) -> tuple[int, Callable[[int], tuple]]:
    """The number of single-entry changes, and the function taking an index
    below it to that change's (label, field, key, value), in the order both
    public functions use: unit flips, then src, rng and inv entries, each
    entry with every other value in turn, then compose entries the same way.
    A unit flip carries the flipped arrow as its key and no value."""
    n = g.arrow_count
    tables = (("src", g.src), ("rng", g.rng), ("inv", g.inv))
    entries = list(g.compose.items())
    per_table = n * (n - 1)

    def spec(i: int) -> tuple[str, str, object, int | None]:
        if i < n:
            return (f"unit_flip[{i}]", "units", i, None)
        i -= n
        if i < 3 * per_table:
            t, i = divmod(i, per_table)
            name, table = tables[t]
            k, v = divmod(i, n - 1)
            v += v >= table[k]  # every value but the entry's own
            return (f"{name}[{k}]={v}", name, k, v)
        k, v = divmod(i - 3 * per_table, n - 1)
        (a, b), c = entries[k]
        v += v >= c
        return (f"compose[{a},{b}]={v}", "compose", (a, b), v)

    return n + 3 * per_table + len(entries) * (n - 1), spec


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
    total, spec = _mutation_specs(g)
    for i in range(total):
        label, field, key, value = spec(i)
        yield label, _mutant(g, field, key, value)


def sample_mutations(g: FiniteGroupoid, rng: random.Random,
                     count: int) -> list[tuple[str, FiniteGroupoid]]:
    """A deterministic random sample (with replacement) of single mutations;
    only the drawn specs and mutants are built."""
    total, spec = _mutation_specs(g)
    if not total:
        return []
    drawn = [spec(rng.randrange(total)) for _ in range(count)]
    return [(label, _mutant(g, field, key, value))
            for label, field, key, value in drawn]
