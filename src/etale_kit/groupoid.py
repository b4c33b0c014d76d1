"""Finite discrete groupoids as explicit tables: validation, isotropy, restriction, quotients."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, permutations, product, repeat
from math import comb, perm, prod
from operator import index, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    CHECK_BUDGET,
    SEARCH_BUDGET,
    HomomorphismError,
    HypothesisError,
    StructuralError,
    _charge,
    check_enum_cap,
)

__all__ = [
    "FiniteGroupoid",
    "Violation",
    "ValidationReport",
    "validation_report",
    "isotropy_interior",
    "is_effective",
    "orbits",
    "invariant_subsets",
    "normalize_unit_set",
    "restrict",
    "quotient_by_isotropy",
    "GroupoidHom",
    "identity_hom",
    "compose_homs",
    "enumerate_homomorphisms",
    "enumerate_automorphisms",
]


def _int_type(t: type) -> bool:
    """Whether the values of type t are ints: t indexes a tuple, as bool and
    numpy's integer types do, and float and str do not."""
    return hasattr(t, "__index__")


def _ids(label: str, values, n: int, error: type[Exception] = StructuralError) -> tuple:
    """The ids, each an int in 0..n-1, as a tuple of exact ints; or, when
    `label` has two `{}` fields, a table of rows of ids as a tuple of tuples.

    One C-level scan each of the types, the least and the largest value
    decides.  Only a failure walks the values: `error` names the first that
    is not an int in range by `label` formatted with its position."""
    table = label.count("{}") == 2
    # rows go to a list first: tuple() of an iterator is slower under the
    # cycle collector
    values = list(map(tuple, values)) if table else tuple(values)
    flat = list(chain.from_iterable(values)) if table else values
    types = set(map(type, flat))
    if types <= {int}:
        if not flat or min(flat) >= 0 and max(flat) < n:
            return tuple(values)
    elif all(map(_int_type, types)):  # bool, numpy integers: check them as ints
        return _ids(label, (tuple(map(index, row)) for row in values) if table
                    else map(index, values), n, error)
    cells = (((i, j), x) for i, row in enumerate(values) for j, x in enumerate(row)) \
        if table else (((i,), x) for i, x in enumerate(values))
    at, x = next((at, x) for at, x in cells if not (_int_type(type(x)) and 0 <= index(x) < n))
    raise error(f"{label.format(*at)} is {x!r}, not an int in 0..{n - 1}")


def _int(label: str, value, least: int = 0, most: int | None = None,
         error: type[Exception] = StructuralError) -> int:
    """One id or count as an exact int, refused with `error` unless it is an
    int, by `_int_type`, in least..most; a count has no largest value, and
    its least is 0 or 1."""
    if _int_type(type(value)):
        exact = index(value)
        if least <= exact and (most is None or exact <= most):
            return exact
    if most is not None:
        raise error(f"{label} is {value!r}, not an int in {least}..{most}")
    raise error(f"{label} must be a {'positive' if least else 'non-negative'} integer, "
                f"got {value!r}")


class FiniteGroupoid:
    """A finite groupoid given by explicit tables over arrow ids 0..n-1.

    Units are a flagged subset of the arrows; `compose` is a partial table
    defined exactly on the composable pairs (source of the left factor equals
    range of the right factor), and iterates in ascending (a, b) key order.
    Construction checks only that ids are ints in range, by `_ids`; run
    `validation_report` for the groupoid axioms.  Instances are immutable
    values after construction.
    """

    __slots__ = ("arrow_count", "units", "src", "rng", "inv", "compose",
                 "unit_set", "_hash", "_cache")

    def __init__(
        self,
        arrow_count: int,
        units: Iterable[int],
        src: Iterable[int],
        rng: Iterable[int],
        compose: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]],
        inv: Iterable[int],
    ):
        n = self.arrow_count = _int("arrow count", arrow_count)
        src, rng, inv = tuple(src), tuple(rng), tuple(inv)
        for name, tab in (("src", src), ("rng", rng), ("inv", inv)):
            if len(tab) != n:
                raise StructuralError(f"{name} table has length {len(tab)}, expected {n}")
        self.units = tuple(sorted(set(_ids("units[{}]", units, n))))
        self.src = _ids("src[{}]", src, n)
        self.rng = _ids("rng[{}]", rng, n)
        self.inv = _ids("inv[{}]", inv, n)
        if isinstance(compose, Mapping):
            compose = [(a, b, c) for (a, b), c in compose.items()]
        items = sorted(_ids("compose[{}][{}]", compose, n))
        table = {(a, b): c for a, b, c in items}
        if len(table) != len(items):  # sorted, so a repeated pair is adjacent
            a, b, _ = next(x for x, y in zip(items, items[1:]) if x[:2] == y[:2])
            raise StructuralError(f"duplicate compose entry for pair ({a},{b})")
        self.compose = table
        self.unit_set = frozenset(self.units)
        self._hash = None
        self._cache = {}

    # -- basic accessors ---------------------------------------------------

    def is_unit(self, a: int) -> bool:
        return a in self.unit_set

    def arrows(self) -> range:
        return range(self.arrow_count)

    def by_src(self) -> tuple[tuple[int, ...], ...]:
        """Arrows grouped by source: by_src()[x] lists arrows with src == x."""
        return self._grouped("by_src", self.src.__getitem__, dense=True)

    def by_rng(self) -> tuple[tuple[int, ...], ...]:
        """Arrows grouped by range: by_rng()[x] lists arrows with rng == x."""
        return self._grouped("by_rng", self.rng.__getitem__, dense=True)

    def by_src_rng(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Arrows grouped by (src, rng), over the pairs that occur."""
        return self._grouped("by_src_rng", lambda a: (self.src[a], self.rng[a]),
                             dense=False)

    def _grouped(self, name: str, key, *, dense: bool):
        """Arrows grouped by key(a), ascending within each group, built once
        and cached under `name`.  A dense grouping is a tuple indexed by
        arrow id with empty groups included, so it can be indexed by any id
        even on tables that fail the axioms."""
        cached = self._cache.get(name)
        if cached is None:
            groups: dict = {}
            for a in self.arrows():
                groups.setdefault(key(a), []).append(a)
            if dense:
                cached = tuple(tuple(groups.get(x, ())) for x in self.arrows())
            else:
                cached = {k: tuple(v) for k, v in groups.items()}
            self._cache[name] = cached
        return cached

    # -- value semantics ---------------------------------------------------

    def _key(self):
        return (self.arrow_count, self.units, self.src, self.rng, self.inv,
                tuple(self.compose.items()))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return (f"{type(self).__name__}(arrows={self.arrow_count}, "
                f"units={len(self.units)}, compose={len(self.compose)})")


def _unchecked(cls, **fields):
    """A `cls` holding already checked, normalised fields, made without its checks."""
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value


def _labelled(labels: Iterable, units: Iterable, src, rng, inv,
              product) -> tuple[FiniteGroupoid, dict]:
    """The groupoid whose arrows are the distinct labels, numbered in order,
    and the id of each label.

    `src`, `rng` and `inv` take a label to a label, and `product(a, b)` gives
    the label of a.b.  Compose is read off the range buckets: one `product`
    call for each pair (a, b) with rng b = src a, so the table is exactly
    the composable pairs, met in ascending (a, b) order.  Every groupoid the
    library derives from another is made here, from its defining formulas,
    and every label they return must be one of `labels`.  The fields are set
    without the public constructor: each id is a label's number, an int in
    range.  No axiom is checked: derived groupoids inherit them from what
    they are derived from, and a caller whose input may fail them validates
    the result."""
    ids = {x: i for i, x in enumerate(dict.fromkeys(labels))}
    arrows = list(ids)
    src_ids = tuple(ids[src(x)] for x in arrows)
    rng_ids = tuple(ids[rng(x)] for x in arrows)
    by_rng: list[list[int]] = [[] for _ in arrows]
    for b, y in enumerate(rng_ids):
        by_rng[y].append(b)
    compose = {(a, b): ids[product(x, arrows[b])]
               for a, x in enumerate(arrows) for b in by_rng[src_ids[a]]}
    unit_ids = tuple(sorted({ids[u] for u in units}))
    return _unchecked(FiniteGroupoid, arrow_count=len(arrows), units=unit_ids,
                      unit_set=frozenset(unit_ids), src=src_ids, rng=rng_ids,
                      inv=tuple(ids[inv(x)] for x in arrows), compose=compose,
                      _hash=None, _cache={}), ids


# -- axiom validation ------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
                for v in self.violations
            ],
        }


def validation_report(g: FiniteGroupoid, *, stop_early: bool = False) -> ValidationReport:
    """Check the five groupoid axioms plus inverse uniqueness.

    Returns every violation with a concrete witness; with `stop_early` only
    the first one is found (used by mutation sweeps).
    """
    return ValidationReport(list(islice(_violations(g), 1 if stop_early else None)))


def _reader(indices: tuple[int, ...]):
    """A function taking seq to tuple(seq[i] for i in indices) in one C-level
    pass; `itemgetter` alone gives a bare item for one index and fails on none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i, = indices
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _violations(g: FiniteGroupoid) -> Iterator[Violation]:
    """Every axiom violation of the tables, lazily, in a fixed order.

    Associativity is decided one compose entry at a time on product rows:
    rows[a] lists the products a.c over the arrows c with rng c = src a, in
    `by_rng` order.  Once axiom 3 holds, src(ab) = src(b) and rng(bc) =
    src(a), so at the entry (a, b) -> ab the products (ab).c are rows[ab]
    and the products a.(bc) are rows[a] read at the bucket positions of
    rows[b]: one gather and one tuple comparison.  Rows decide, the
    per-triple loop names the witness: it runs only for an entry whose rows
    disagree, or for every entry of a table that fails axiom 3, so the
    violations and their order are those of the loop alone."""
    units = g.unit_set
    src, rng, inv, table = g.src, g.rng, g.inv, g.compose

    # axiom 1: units are fixed by src and rng, and src/rng land in the units
    for x in g.units:
        if src[x] != x:
            yield Violation("axiom1_units", (x,), f"unit {x} has src {src[x]} != {x}")
        if rng[x] != x:
            yield Violation("axiom1_units", (x,), f"unit {x} has rng {rng[x]} != {x}")
    for a in g.arrows():
        if src[a] not in units:
            yield Violation("axiom1_units", (a,), f"src[{a}] = {src[a]} is not a unit")
        if rng[a] not in units:
            yield Violation("axiom1_units", (a,), f"rng[{a}] = {rng[a]} is not a unit")

    # axiom 3, table shape: keys are exactly the composable pairs, and each
    # product has the endpoints of its factors
    shaped = True
    for (a, b), c in table.items():
        if src[a] != rng[b]:
            shaped = False
            yield Violation(
                "axiom3_composability", (a, b),
                f"compose defined on ({a},{b}) but src[{a}]={src[a]} != rng[{b}]={rng[b]}")
    by_rng = g.by_rng()
    rows = []
    for a in g.arrows():
        bucket = by_rng[src[a]]
        row = tuple(map(table.get, zip(repeat(a), bucket)))
        rows.append(row)
        if None in row:
            shaped = False
            for b, ab in zip(bucket, row):
                if ab is None:
                    yield Violation("axiom3_composability", (a, b),
                                    f"composable pair ({a},{b}) has no compose entry")
    for (a, b), c in table.items():
        if src[c] != src[b] or rng[c] != rng[a]:
            shaped = False
            yield Violation("axiom3_composability", (a, b, c),
                            f"product {c} of ({a},{b}) has src/rng ({src[c]},{rng[c]}), "
                            f"expected ({src[b]},{rng[a]})")

    # axiom 2: identity laws
    for a in g.arrows():
        if table.get((a, src[a])) != a:
            yield Violation("axiom2_identity", (a,), f"{a} . src[{a}] != {a}")
        if table.get((rng[a], a)) != a:
            yield Violation("axiom2_identity", (a,), f"rng[{a}] . {a} != {a}")

    # axiom 5: the declared inverse works on both sides and is involutive
    for a in g.arrows():
        b = inv[a]
        if table.get((b, a)) != src[a]:
            yield Violation("axiom5_inverse", (a, b), f"inv[{a}]={b} with {b}.{a} != src[{a}]")
        if table.get((a, b)) != rng[a]:
            yield Violation("axiom5_inverse", (a, b), f"inv[{a}]={b} with {a}.{b} != rng[{a}]")
        if inv[b] != a:
            yield Violation("axiom5_inverse", (a, b), f"inv[inv[{a}]] = {inv[b]} != {a}")

    # axiom 4: associativity over all composable triples
    if shaped:
        at = [0] * g.arrow_count  # each arrow's position in its range bucket
        for bucket in by_rng:
            for i, x in enumerate(bucket):
                at[x] = i
        readers = [_reader(tuple(map(at.__getitem__, row))) for row in rows]
    for (a, b), ab in table.items():
        if shaped and readers[b](rows[a]) == rows[ab]:
            continue
        for c in by_rng[src[b]]:
            bc = table.get((b, c))
            left = table.get((ab, c))
            if bc is None or left is None:
                continue  # missing entries already reported under axiom 3
            right = table.get((a, bc))
            if right is not None and left != right:
                yield Violation("axiom4_associativity", (a, b, c),
                                f"({a}.{b}).{c} = {left} but {a}.({b}.{c}) = {right}")

    # inverse uniqueness: no second two-sided inverse exists
    for a in g.arrows():
        candidates = [
            b for b in by_rng[src[a]]
            if src[b] == rng[a]
            and table.get((b, a)) == src[a] and table.get((a, b)) == rng[a]
        ]
        if candidates != [inv[a]]:
            yield Violation("inverse_uniqueness", (a, tuple(candidates)),
                            f"arrow {a} has two-sided inverses {candidates}, declared {inv[a]}")


# -- isotropy and invariant subsets ----------------------------------------


def isotropy_interior(g: FiniteGroupoid) -> tuple[int, ...]:
    """Arrows with equal source and range; open interior equals all of them
    in the discrete model."""
    return tuple(a for a in g.arrows() if g.src[a] == g.rng[a])


def is_effective(g: FiniteGroupoid) -> bool:
    return isotropy_interior(g) == g.units


def orbits(g: FiniteGroupoid) -> tuple[tuple[int, ...], ...]:
    """Partition of the units under the reachability relation, sorted.

    Assumes the groupoid axioms: composition makes reachability one step, so
    the orbit of a unit x is the set of ranges of the arrows leaving x."""
    by_src = g.by_src()
    return tuple(sorted({tuple(sorted({g.rng[a] for a in by_src[x]}))
                         for x in g.units}))


def invariant_subsets(g: FiniteGroupoid) -> list[tuple[int, ...]]:
    """All invariant unit sets, i.e. unions of orbits, sorted lexicographically;
    refuses with `CapExceeded`, building none, past SEARCH_BUDGET unit sets."""
    orbs = orbits(g)
    _charge(0, 1 << len(orbs), SEARCH_BUDGET, f"listing {len(orbs)} orbits' unions", "unit sets")
    return sorted(tuple(sorted(x for i, orb in enumerate(orbs) if mask >> i & 1
                               for x in orb))
                  for mask in range(1 << len(orbs)))


def normalize_unit_set(g: FiniteGroupoid, subset: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(_ids("unit set[{}]", subset, g.arrow_count))))
    for x in out:
        if x not in g.unit_set:
            raise StructuralError(f"{x} is not a unit of the groupoid")
    return out


def restrict(g: FiniteGroupoid, subset: Iterable[int]) -> FiniteGroupoid:
    """Subgroupoid over an invariant unit set (all arrows with source inside);
    g itself when the set is every unit.  Built once per set and kept on g,
    so repeated calls return the same object; refuses a set that is not
    invariant with `HypothesisError`.  Assumes the groupoid axioms of g: the
    kept arrows keep their tables, and a product of kept arrows is read
    from g's compose table."""
    return _restriction(g, normalize_unit_set(g, subset))[1]


def _restriction(g: FiniteGroupoid,
                 f: tuple[int, ...]) -> tuple[tuple[int, ...], FiniteGroupoid]:
    """The arrow ids with source in a normalized unit set, ascending, and
    `restrict` of the set, whose arrow i is the i-th of those ids; from one
    scan of the arrows that refuses at the first arrow leaving the set.

    The pair of a proper invariant set is kept in g's cache under the set,
    so callers share one restriction and its own caches; a set that is not
    invariant is refused again on every call.  The cache holds no reference
    to g, and at most one entry per union of orbits."""
    if f == g.units:
        return tuple(g.arrows()), g
    key = ("restriction", f)
    cached = g._cache.get(key)
    if cached is None:
        inside = set(f)
        keep = []
        for a in g.arrows():
            if g.src[a] in inside:
                if g.rng[a] not in inside:
                    raise HypothesisError(
                        f"unit set is not invariant: arrow {a} has src {g.src[a]} "
                        f"inside but rng {g.rng[a]} outside")
                keep.append(a)
        cached = tuple(keep), _labelled(keep, f, g.src.__getitem__, g.rng.__getitem__,
                                        g.inv.__getitem__, lambda a, b: g.compose[a, b])[0]
        g._cache[key] = cached
    return cached


# -- groupoid homomorphisms --------------------------------------------------


@dataclass(frozen=True)
class GroupoidHom:
    """A map of arrows that preserves units, src, rng, inverse and composition.

    The public constructor verifies every law, raising `HomomorphismError` with a
    witness; homomorphisms the library builds from checked parts skip the check.
    """

    domain: FiniteGroupoid
    codomain: FiniteGroupoid
    mapping: tuple[int, ...]

    def __post_init__(self):
        dom, cod, m = self.domain, self.codomain, tuple(self.mapping)
        if len(m) != dom.arrow_count:
            raise StructuralError(
                f"mapping has length {len(m)}, expected {dom.arrow_count}")
        m = _ids("mapping[{}]", m, cod.arrow_count)
        object.__setattr__(self, "mapping", m)
        for x in dom.units:
            if not cod.is_unit(m[x]):
                raise HomomorphismError(f"unit {x} maps to non-unit {m[x]}")
        for a in dom.arrows():
            if m[dom.src[a]] != cod.src[m[a]]:
                raise HomomorphismError(
                    f"src not preserved at arrow {a}: "
                    f"map(src)={m[dom.src[a]]}, src(map)={cod.src[m[a]]}")
            if m[dom.rng[a]] != cod.rng[m[a]]:
                raise HomomorphismError(
                    f"rng not preserved at arrow {a}: "
                    f"map(rng)={m[dom.rng[a]]}, rng(map)={cod.rng[m[a]]}")
            if m[dom.inv[a]] != cod.inv[m[a]]:
                raise HomomorphismError(
                    f"inverse not preserved at arrow {a}")
        for (a, b), c in dom.compose.items():
            img = cod.compose.get((m[a], m[b]))
            if img != m[c]:
                raise HomomorphismError(
                    f"composition not preserved at pair ({a},{b}): "
                    f"map({a}.{b})={m[c]}, map({a}).map({b})={img}")

    def is_bijective(self) -> bool:
        return (self.domain.arrow_count == self.codomain.arrow_count
                and len(set(self.mapping)) == self.domain.arrow_count)

    def is_identity(self) -> bool:
        return (self.domain == self.codomain
                and self.mapping == tuple(self.domain.arrows()))

    def inverse(self) -> "GroupoidHom":
        if not self.is_bijective():
            raise HypothesisError("cannot invert a non-bijective homomorphism")
        back = tuple(sorted(self.domain.arrows(), key=self.mapping.__getitem__))
        return _unchecked(GroupoidHom, domain=self.codomain, codomain=self.domain, mapping=back)


def identity_hom(g: FiniteGroupoid) -> GroupoidHom:
    return _unchecked(GroupoidHom, domain=g, codomain=g, mapping=tuple(g.arrows()))


def compose_homs(outer: GroupoidHom, inner: GroupoidHom) -> GroupoidHom:
    """outer after inner."""
    if inner.codomain != outer.domain:
        raise StructuralError("homomorphisms are not composable")
    return _unchecked(GroupoidHom, domain=inner.domain, codomain=outer.codomain,
                      mapping=tuple(outer.mapping[b] for b in inner.mapping))


# -- enumeration -------------------------------------------------------------


class _Structure(NamedTuple):
    """A groupoid as the disjoint union of its transitive components, each
    pair(O) x H for its orbit O and the vertex group H at its base x, the
    least unit of O.

    `orbits` is `orbits(g)`.  Indexed by arrow id, for units only (-1
    elsewhere): `orbit_of` gives the orbit's index and `spanning` the least
    arrow t_y: x -> y, with t_x = x.  `groups` holds, per orbit, the vertex
    group at x, built by `_labelled`, or None when it is trivial, and the
    loops at x that its arrows are, in its order.  `factors` gives each
    arrow a: y -> z as (z, h, y) with h the vertex-group arrow
    t_z^-1 . a . t_y, so a = t_z . h . t_y^-1.  `readers` writes a
    homomorphism's mapping from its choices (`_readers`)."""

    orbits: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]
    spanning: tuple[int, ...]
    groups: tuple[tuple[FiniteGroupoid | None, tuple[int, ...]], ...]
    factors: tuple[tuple[int, int, int], ...]
    readers: tuple


def _structure(g: FiniteGroupoid) -> _Structure:
    """g's `_Structure`, built once and kept in its cache.

    The units are met in ascending order, so the first of an orbit met is
    its base x, and one pass over the arrows leaving x gives the orbit, the
    least arrow to each of its units, and the loops at x.  Assumes the
    groupoid axioms, under which composition makes reachability one step
    and each arrow has exactly one factor."""
    cached = g._cache.get("structure")
    if cached is None:
        src, rng, compose, inv = g.src, g.rng, g.compose, g.inv
        orbit_of = [-1] * g.arrow_count
        spanning = [-1] * g.arrow_count
        orbs, groups, numbers = [], [], []
        for x, leaving in zip(g.units, map(g.by_src().__getitem__, g.units)):
            if orbit_of[x] != -1:
                continue
            least: dict[int, int] = {}
            for a in leaving:
                least.setdefault(rng[a], a)
            least[x] = x
            for y, t in least.items():
                orbit_of[y], spanning[y] = len(orbs), t
            orbs.append(tuple(sorted(least)))
            loops = tuple(a for a in leaving if rng[a] == x)
            if len(loops) == 1:
                groups.append((None, loops))
                numbers.append(None)
            else:
                group, ids = _labelled(loops, (x,), src.__getitem__, rng.__getitem__,
                                       inv.__getitem__, lambda a, b: compose[a, b])
                groups.append((group, loops))
                numbers.append(ids)
        factors = tuple(
            (z, 0 if numbers[orbit_of[y]] is None else
             numbers[orbit_of[y]][compose[inv[spanning[z]], compose[a, spanning[y]]]], y)
            for a, (y, z) in enumerate(zip(src, rng)))
        cached = g._cache["structure"] = _Structure(
            tuple(orbs), tuple(orbit_of), tuple(spanning), tuple(groups), factors,
            _readers(orbs, orbit_of, groups, factors))
    return cached


def _readers(orbs, orbit_of, groups, factors) -> tuple:
    """Where each value of a homomorphism phi sits among its choices, read
    joined as one flat tuple, component by component: the unit images,
    base first; phi(t_y) and phi(t_y)^-1 for each other unit y; then, if
    the vertex group is not trivial, rho's values.

    A unit takes its image.  Any other arrow a = t_z . h . t_y^-1 of a
    component with base x takes phi(t_z) . rho(h) . phi(t_y)^-1 without the
    factors that are units: phi(t_z) when z is x, rho(h) when h is the
    unit, phi(t_y)^-1 when y is x.  Returned: the reader of the arrows that
    are one factor, of the two factors of those that are two, of the three
    of those that are three, and the reader that puts those values, in
    that order, in arrow order, with None for a count no arrow has; or,
    when every arrow is one factor, that first reader, in arrow order, and
    None for the rest."""
    image = [0] * len(factors)  # where each unit's image sits
    at = [0] * len(factors)  # where phi(t_y) sits, for each unit y
    rho_at, unit_h = [], []  # per orbit: where rho's values start; h of the unit
    width = 0
    for orb, (group, loops) in zip(orbs, groups):
        for y in orb:
            image[y] = at[y] = width
            width += 1
        for y in orb[1:]:
            at[y] = width
            width += 2
        rho_at.append(width)
        unit_h.append(loops.index(orb[0]))
        if group is not None:
            width += len(loops)
    products: list[list] = [[], [], []]  # (arrow, positions), by factor count
    for a, (z, h, y) in enumerate(factors):
        i = orbit_of[y]
        x = orbs[i][0]
        if z == y and h == unit_h[i]:  # a is the unit y
            positions = [image[y]]
        else:
            positions = ([at[z]] if z != x else []) + (
                [rho_at[i] + h] if h != unit_h[i] else []) + ([at[y] + 1] if y != x else [])
        products[len(positions) - 1].append((a, positions))
    one = _reader(tuple(p[0] for _, p in products[0]))
    if len(products[0]) == len(factors):
        return one, None, None, None
    where = [0] * len(factors)
    for k, (a, _) in enumerate(chain(*products)):
        where[a] = k
    two, three = (tuple(_reader(tuple(p[n] for _, p in products[k])) for n in range(k + 1))
                  if products[k] else None for k in (1, 2))
    return one, two, three, _reader(tuple(where))


def _compose_search(domain: FiniteGroupoid, codomain: FiniteGroupoid, bijective: bool,
                    checked: int) -> tuple[list[tuple[int, ...]], int]:
    """Every homomorphism between two vertex groups, as mappings, by
    backtracking with full compose checks; and `checked` plus the compose
    checks charged.

    The unit is assigned first.  The search is one loop over levels, one
    per domain arrow, each holding an iterator over its untried candidates.
    Entering a level charges its candidates times its compose checks,
    refusing with `CapExceeded` past CHECK_BUDGET; each level has a check,
    (x, x, x) or (a, src a, a), so this bounds candidates too.  With
    `bijective`, each image must be unused so far."""
    if bijective and domain.arrow_count != codomain.arrow_count:
        return [], checked
    order = list(domain.units) + [a for a in domain.arrows()
                                  if a not in domain.unit_set]
    pos = {a: i for i, a in enumerate(order)}
    n = domain.arrow_count
    # compose-key triples checked as soon as all three members are assigned;
    # on a groupoid, (a, inv a, rng a) and (inv a, a, src a) also decide
    # whether inv a maps to the inverse of a's image
    triggers: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (a, b), c in domain.compose.items():
        triggers[max(pos[a], pos[b], pos[c])].append((a, b, c))
    levels = [(a, domain.is_unit(a), triggers[k]) for k, a in enumerate(order)]
    everything = tuple(codomain.arrows())
    cod_compose = codomain.compose
    image = [-1] * n
    uses = [0] * codomain.arrow_count
    found: list[tuple[int, ...]] = []
    pending: list[Iterator[int]] = []  # the untried candidates of each assigned level
    while True:
        if len(pending) == n:
            found.append(tuple(image))
        else:
            _, unit, checks = levels[len(pending)]
            candidates = codomain.units if unit else everything
            checked = _charge(checked, len(candidates) * len(checks), CHECK_BUDGET,
                              "vertex-group search", "compose checks")
            pending.append(iter(candidates))
        # move the deepest level to its next consistent candidate, or drop it
        while pending:
            a, _, checks = levels[len(pending) - 1]
            if image[a] != -1:
                uses[image[a]] -= 1
            for c in pending[-1]:
                if bijective and uses[c]:
                    continue
                image[a] = c
                for u, v, w in checks:
                    if cod_compose.get((image[u], image[v])) != image[w]:
                        break
                else:  # every check holds: keep c and go one level deeper
                    uses[c] += 1
                    break
            else:
                image[a] = -1
                pending.pop()
                continue
            break
        if not pending:
            break
    return found, checked


class _HomSearch:
    """The homomorphisms between two groupoids through their `_Structure`s.

    A homomorphism phi is fixed by three choices: the unit images, each
    orbit sent into one orbit of the codomain; the images of the spanning
    arrows t_y, any arrows between the chosen units; and one vertex-group
    homomorphism rho per component, from its vertex group H to the one at
    phi(x).  Every such choice gives one, phi(t_z . h . t_y^-1) =
    phi(t_z) . rho(h) . phi(t_y)^-1.  With `unit_injective` the unit images
    are distinct; with `bijective` also each rho is bijective and each
    orbit goes onto an orbit of its size, which with equal arrow counts is
    exactly a bijective phi.

    A domain whose every arrow is a unit has one component per arrow, a
    point with the trivial group, so any map of its units into the
    codomain's is a homomorphism and is its own mapping; such a search
    reads no `_Structure`."""

    def __init__(self, domain: FiniteGroupoid, codomain: FiniteGroupoid, *,
                 unit_injective: bool, bijective: bool):
        self.domain, self.codomain = domain, codomain
        self.unit_injective, self.bijective = unit_injective or bijective, bijective
        self.discrete = len(domain.units) == domain.arrow_count
        if self.discrete:
            return
        self.dom, self.cod = _structure(domain), _structure(codomain)
        self.checked = 0  # compose checks of the vertex-group searches
        self._rhos: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._pairs: dict | None = None  # the codomain's arrows by ends, with inverses
        self._searched: dict = {}
        # weights[i][j]: the spanning-arrow and rho choices of component i
        # once its base goes into codomain orbit j
        self.weights = [[self._weight(i, j) for j in range(len(self.cod.orbits))]
                        for i in range(len(self.dom.orbits))]

    def rhos(self, i: int, u: int) -> list[tuple[int, ...]]:
        """The homomorphisms from component i's vertex group to the vertex
        group at codomain unit u, each as the codomain arrows of its values.

        At a base u they come from `_compose_search` between the two vertex
        groups, run once per pair of equal tables; at any other unit u they
        are those at the base x conjugated by t_u, since the vertex group at
        u is t_u . H_x . t_u^-1.  Under `bijective` the two groups have one
        order, so a trivial group meets only a trivial one."""
        found = self._rhos.get((i, u))
        if found is None:
            cod, structure = self.codomain, self.cod
            j = structure.orbit_of[u]
            x = structure.orbits[j][0]
            target, loops = structure.groups[j]
            if u != x:
                t, compose = structure.spanning[u], cod.compose
                conj = {k: compose[compose[t, k], cod.inv[t]] for k in loops}.__getitem__
                found = [tuple(map(conj, m)) for m in self.rhos(i, x)]
            else:
                group, group_loops = self.dom.groups[i]
                if group is None or target is None:
                    found = [(x,) * len(group_loops)]
                else:
                    # equal tables, met often among the vertex groups of a
                    # relabelled groupoid, share one search
                    mappings = self._searched.get((group, target))
                    if mappings is None:
                        mappings, self.checked = _compose_search(
                            group, target, self.bijective, self.checked)
                        self._searched[group, target] = mappings
                    found = [tuple(map(loops.__getitem__, m)) for m in mappings]
            self._rhos[i, u] = found
        return found

    def _weight(self, i: int, j: int) -> int:
        """The spanning-arrow images and rhos of component i once its base
        goes to the base of codomain orbit j: |K|^(|O| - 1) times the rhos,
        for the vertex group K of orbit j; 0 where `bijective` rules j out."""
        size, target = len(self.dom.orbits[i]), self.cod.orbits[j]
        loops = len(self.cod.groups[j][1])
        if self.bijective and (size != len(target) or loops != len(self.dom.groups[i][1])):
            return 0
        return loops ** (size - 1) * len(self.rhos(i, target[0]))

    def count(self) -> int:
        """The number of homomorphisms, from the product formula over the
        components.  Under unit injectivity the components are placed
        orbit by orbit; the partial counts kept are charged, refusing with
        `CapExceeded` past CHECK_BUDGET."""
        if self.discrete:
            m, k = len(self.codomain.units), self.domain.arrow_count
            # under `bijective`, with k arrows on both sides, m = k exactly
            # when every arrow of the codomain is a unit too
            return perm(m, k) if self.unit_injective else m ** k
        sizes = [len(orb) for orb in self.dom.orbits]
        rooms = [len(orb) for orb in self.cod.orbits]
        if not self.unit_injective:
            return prod(sum(room ** s * w for room, w in zip(rooms, row))
                        for s, row in zip(sizes, self.weights))
        # components of one size and one row of weights are interchangeable:
        # a state is how many of each kind are left, with its number of ways
        kinds = Counter(zip(sizes, map(tuple, self.weights)))
        ways = {tuple(kinds.values()): 1}
        spent = 0
        for j, room in enumerate(rooms):
            # into orbit j, kind by kind, t of the r left of a kind: comb(r, t)
            # choices of which, row[j] each, and t * s of the units they fill
            placed = {(left, 0): w for left, w in ways.items()}
            for k, (s, row) in enumerate(kinds):
                if not row[j]:
                    continue
                grown: Counter = Counter()
                for (left, load), w in placed.items():
                    r = left[k]
                    for t in range(min(r, (room - load) // s) + 1):
                        grown[left[:k] + (r - t,) + left[k + 1:], load + t * s] += (
                            w * comb(r, t) * row[j] ** t)
                placed = grown
                spent = _charge(spent, len(placed), CHECK_BUDGET, "homomorphism count",
                                "partial counts")
            ways = Counter()
            for (left, load), w in placed.items():
                ways[left] += w * perm(room, load)  # the injective maps of those units
        return ways.get((0,) * len(kinds), 0)

    def choices(self, i: int) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
        """Component i's choices, each as its part of the flat tuple that
        `_readers` reads, grouped by unit images: its unit images, base
        first, into one codomain orbit its component has choices in, and
        distinct under unit injectivity; with them, every choice of phi(t_y)
        and phi(t_y)^-1 for each other unit y, any arrow between the images,
        and of rho's values, if its group is not trivial."""
        cod, codomain, structure = self.cod, self.codomain, self.dom
        orbit, (group, _) = structure.orbits[i], structure.groups[i]
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = {ends: [(a, codomain.inv[a]) for a in arrows]
                                   for ends, arrows in codomain.by_src_rng().items()}
        found = []
        for target, weight in zip(cod.orbits, self.weights[i]):
            for u in target if weight else ():
                if self.unit_injective:
                    others = permutations([v for v in target if v != u], len(orbit) - 1)
                else:
                    others = product(target, repeat=len(orbit) - 1)
                rhos = [()] if group is None else self.rhos(i, u)
                for units in others:
                    units = (u,) + units
                    found.append((units, [units + tuple(chain.from_iterable(choice))
                                          for choice in product(*(pairs[u, v] for v in units[1:]),
                                                                rhos)]))
        return found

    def mappings(self) -> list[tuple[int, ...]]:
        """Every homomorphism's mapping, ascending.

        The components' choices are independent but for unit injectivity,
        so without it every tuple of their product is one mapping.  With
        it, one loop over levels, one per component, each holding an
        iterator over its untried unit images, passes over those that use a
        unit an earlier level holds; once every component has its units,
        every tuple of the product of their other choices is one mapping.
        A mapping is written through the structure's `readers`, with no
        check."""
        if self.discrete:  # in lexicographic order, as the units ascend
            units, k = self.codomain.units, self.domain.arrow_count
            return list(permutations(units, k) if self.unit_injective
                        else product(units, repeat=k))
        times = self.codomain.compose.__getitem__
        one, two, three, arrange = self.dom.readers

        def leaf(choice):
            flat = tuple(chain.from_iterable(choice))
            if arrange is None:
                return one(flat)
            values = list(one(flat))
            if two:
                values += map(times, zip(two[0](flat), two[1](flat)))
            if three:
                values += map(times, zip(map(times, zip(three[0](flat), three[1](flat))),
                                         three[2](flat)))
            return arrange(values)

        levels = [self.choices(i) for i in range(len(self.dom.orbits))]
        if not self.unit_injective:
            found = list(map(leaf, product(*([part for _, parts in level for part in parts]
                                             for level in levels))))
        else:
            used = [False] * self.codomain.arrow_count
            chosen: list[tuple] = [((), ())] * len(levels)
            found, pending = [], []
            while True:
                if len(pending) == len(levels):
                    found += map(leaf, product(*(parts for _, parts in chosen)))
                else:
                    pending.append(iter(levels[len(pending)]))
                # move the deepest level to its next unit images, or drop it
                while pending:
                    k = len(pending) - 1
                    for u in chosen[k][0]:
                        used[u] = False
                    for choice in pending[-1]:
                        if not any(map(used.__getitem__, choice[0])):
                            for u in choice[0]:
                                used[u] = True
                            chosen[k] = choice
                            break
                    else:
                        chosen[k] = ((), ())
                        pending.pop()
                        continue
                    break
                if not pending:
                    break
        found.sort()
        return found


def _automorphism_count(g: FiniteGroupoid) -> int:
    """The number of automorphisms of g, from the formula that
    `enumerate_homomorphisms` charges, without building any."""
    return _HomSearch(g, g, unit_injective=True, bijective=True).count()


def enumerate_homomorphisms(
    domain: FiniteGroupoid,
    codomain: FiniteGroupoid,
    *,
    injective_on_units: bool = False,
    bijective: bool = False,
) -> list[GroupoidHom]:
    """All groupoid homomorphisms, in ascending mapping order, through the
    structure theorem: the choices of unit images, spanning-arrow images and
    vertex-group homomorphisms of `_HomSearch`, every other arrow written
    by formula with no check.

    The number of outputs is a product formula over the components, known
    before any mapping is formed.  That number times the domain's arrows is
    charged once as mapping entries, refusing with `CapExceeded` past
    CHECK_BUDGET, so the charge and its refusal depend only on the
    isomorphism classes of the two groupoids.  Each of the two steps that
    form the count has its own charge against the same budget: the
    compose checks of the searches between vertex groups and, under
    `injective_on_units`, the partial counts of placing the components.
    Assumes the groupoid axioms on both sides, under which every choice
    gives a homomorphism.
    """
    if bijective and domain.arrow_count != codomain.arrow_count:
        return []
    search = _HomSearch(domain, codomain, unit_injective=injective_on_units,
                        bijective=bijective)
    count = search.count()
    _charge(0, count * domain.arrow_count, CHECK_BUDGET, "homomorphism search",
            "mapping entries")
    return [_unchecked(GroupoidHom, domain=domain, codomain=codomain, mapping=m)
            for m in (search.mappings() if count else ())]


def enumerate_automorphisms(g: FiniteGroupoid, cap: int | None = None) -> list[GroupoidHom]:
    """All bijective self-homomorphisms in lexicographic mapping order.

    The search runs once per groupoid: its mappings are kept in g's cache,
    after the cap check, and every later call builds a fresh list of fresh
    homomorphisms from them.  A refusal, by the cap or by the search's
    budget, stores nothing and is raised again on the next call."""
    check_enum_cap(g.arrow_count, cap, "automorphism enumeration")
    mappings = g._cache.get("automorphisms")
    if mappings is None:
        found = enumerate_homomorphisms(g, g, bijective=True)
        g._cache["automorphisms"] = tuple(hom.mapping for hom in found)
        return found
    return [_unchecked(GroupoidHom, domain=g, codomain=g, mapping=m) for m in mappings]


# -- quotient by the isotropy interior ---------------------------------------


def quotient_by_isotropy(g: FiniteGroupoid) -> tuple[FiniteGroupoid, GroupoidHom]:
    """Collapse the isotropy interior: arrows a ~ b when src(a) = src(b) and
    a . b^-1 lies in the isotropy.  Returns the (always effective) quotient
    and the collapse homomorphism, which is injective on units.

    Assumes the groupoid axioms, under which a ~ b exactly when a and b have
    the same source and the same range: the classes are the (src, rng)
    buckets, numbered in order of their least arrow."""
    # the pair groupoid on the (src, rng) keys, in order of first, so least, arrow
    quotient, cls = _labelled(g.by_src_rng(), ((x, x) for x in g.units),
                              lambda k: (k[0], k[0]), lambda k: (k[1], k[1]),
                              lambda k: (k[1], k[0]), lambda k, l: (l[0], k[1]))
    mapping = tuple(cls[ends] for ends in zip(g.src, g.rng))
    return quotient, _unchecked(GroupoidHom, domain=g, codomain=quotient, mapping=mapping)
