"""Finite discrete groupoids as explicit tables: validation, isotropy, restriction, quotients."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import index, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
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


class _Orbits(NamedTuple):
    """A groupoid's orbits, the least unit of each as its base x, and what
    a transitive component pair(O) x H is read through (Brown, *Topology
    and Groupoids*, 6.7.3).

    `orbits` lists the orbits, sorted.  Indexed by arrow id, for units only
    (-1 elsewhere): `orbit_of` gives the orbit's index and `spanning` the
    least arrow t_y: x -> y, with t_x = x.  `loops` lists, per orbit, the
    arrows from x to x ascending: the vertex group H at x."""

    orbits: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]
    spanning: tuple[int, ...]
    loops: tuple[tuple[int, ...], ...]


def _orbit_tier(g: FiniteGroupoid) -> _Orbits:
    """g's `_Orbits`, built once and kept in its cache; ints only, with no
    reference back to g.

    The units are met in ascending order, so the first of an orbit met is
    its base x, and one pass over the arrows leaving x gives the orbit, the
    least arrow to each of its units, and the loops at x.  Assumes the
    groupoid axioms, under which composition makes reachability one step."""
    cached = g._cache.get("orbits")
    if cached is None:
        rng, by_src = g.rng, g.by_src()
        orbit_of, spanning = [-1] * g.arrow_count, [-1] * g.arrow_count
        orbs, loops = [], []
        for x in g.units:
            if orbit_of[x] != -1:
                continue
            least = {rng[a]: a for a in reversed(by_src[x])}  # written last, so least
            least[x] = x
            for y, t in least.items():
                orbit_of[y], spanning[y] = len(orbs), t
            orbs.append(tuple(sorted(least)))
            loops.append(tuple(a for a in by_src[x] if rng[a] == x))
        cached = g._cache["orbits"] = _Orbits(tuple(orbs), tuple(orbit_of),
                                              tuple(spanning), tuple(loops))
    return cached


def orbits(g: FiniteGroupoid) -> tuple[tuple[int, ...], ...]:
    """Partition of the units under the reachability relation, sorted;
    read from `_orbit_tier`, so it assumes the groupoid axioms."""
    return _orbit_tier(g).orbits


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


def _automorphism_count(g: FiniteGroupoid) -> int:
    """The number of automorphisms of g, from the formula that
    `enumerate_homomorphisms` charges, without building any."""
    from .hom_search import _HomSearch  # the search tier loads on its first use
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
    vertex-group homomorphisms of `hom_search._HomSearch`, every other arrow
    written by formula with no check.

    The number of outputs is a product formula over the components, known
    before any mapping is formed.  That number times the domain's arrows is
    charged once as mapping entries, refusing with `CapExceeded` past
    CHECK_BUDGET, so the charge and its refusal depend only on the
    isomorphism classes of the two groupoids.  Each of the two steps that
    form the count has its own charge against the same budget: the
    compose checks of the searches between vertex groups and, under
    `injective_on_units`, a bound on the partial counts of placing the
    components, which depends only on the isomorphism classes too.
    Assumes the groupoid axioms on both sides, under which every choice
    gives a homomorphism.
    """
    from .hom_search import _mappings
    return [_unchecked(GroupoidHom, domain=domain, codomain=codomain, mapping=m)
            for m in _mappings(domain, codomain, unit_injective=injective_on_units,
                               bijective=bijective)]


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
