"""Finite discrete groupoids as explicit tables: validation, isotropy, restriction, quotients."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

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


class FiniteGroupoid:
    """A finite groupoid given by explicit tables over arrow ids 0..n-1.

    Units are a flagged subset of the arrows; `compose` is a partial table
    defined exactly on the composable pairs (source of the left factor equals
    range of the right factor), and iterates in ascending (a, b) key order.
    Construction checks only that ids are in range; run `validation_report`
    for the groupoid axioms.  Instances are immutable values after
    construction.
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
        n = int(arrow_count)
        if n < 0:
            raise StructuralError(f"arrow count must be nonnegative, got {n}")
        self.arrow_count = n
        self.units = tuple(sorted({int(u) for u in units}))
        self.src = tuple(int(a) for a in src)
        self.rng = tuple(int(a) for a in rng)
        self.inv = tuple(int(a) for a in inv)
        for name, tab in (("src", self.src), ("rng", self.rng), ("inv", self.inv)):
            if len(tab) != n:
                raise StructuralError(f"{name} table has length {len(tab)}, expected {n}")
            for i, a in enumerate(tab):
                if not 0 <= a < n:
                    raise StructuralError(f"{name}[{i}] = {a} out of range for {n} arrows")
        for u in self.units:
            if not 0 <= u < n:
                raise StructuralError(f"unit id {u} out of range for {n} arrows")
        if isinstance(compose, Mapping):
            items = [(int(a), int(b), int(c)) for (a, b), c in compose.items()]
        else:
            items = [(int(a), int(b), int(c)) for a, b, c in compose]
        items.sort()
        table: dict[tuple[int, int], int] = {}
        for a, b, c in items:
            if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
                raise StructuralError(f"compose entry ({a},{b})->{c} out of range")
            if (a, b) in table:
                raise StructuralError(f"duplicate compose entry for pair ({a},{b})")
            table[(a, b)] = c
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
        return (f"FiniteGroupoid(arrows={self.arrow_count}, "
                f"units={len(self.units)}, compose={len(self.compose)})")


def _labelled(labels: Iterable, units: Iterable, src, rng, inv,
              product) -> tuple[FiniteGroupoid, dict]:
    """The groupoid whose arrows are the distinct labels, numbered in order,
    and the id of each label.

    `src`, `rng` and `inv` take a label to a label, and `product(a, b)` gives
    the label of a.b.  Compose is read off the range buckets: one `product`
    call for each pair (a, b) with rng b = src a, so the table is exactly
    the composable pairs.  Every groupoid the library derives from another
    is made here, from its defining formulas, and every label they return
    must be one of `labels`.  No axiom is checked: derived groupoids inherit
    them from what they are derived from, and a caller whose input may fail
    them validates the result."""
    ids = {x: i for i, x in enumerate(dict.fromkeys(labels))}
    arrows = list(ids)
    src_ids = [ids[src(x)] for x in arrows]
    rng_ids = [ids[rng(x)] for x in arrows]
    by_rng: list[list[int]] = [[] for _ in arrows]
    for b, y in enumerate(rng_ids):
        by_rng[y].append(b)
    compose = [(a, b, ids[product(x, arrows[b])])
               for a, x in enumerate(arrows) for b in by_rng[src_ids[a]]]
    return FiniteGroupoid(len(arrows), [ids[u] for u in units], src_ids, rng_ids,
                          compose, [ids[inv(x)] for x in arrows]), ids


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
    out = tuple(sorted({int(x) for x in subset}))
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


def _unchecked(cls, **fields):
    """A `cls` holding already checked, normalised fields, made without its checks."""
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value


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
        object.__setattr__(self, "mapping", m)
        if len(m) != dom.arrow_count:
            raise StructuralError(
                f"mapping has length {len(m)}, expected {dom.arrow_count}")
        for a, b in enumerate(m):
            if not 0 <= b < cod.arrow_count:
                raise StructuralError(f"image of arrow {a} is {b}, out of range")
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


def enumerate_homomorphisms(
    domain: FiniteGroupoid,
    codomain: FiniteGroupoid,
    *,
    injective_on_units: bool = False,
    bijective: bool = False,
) -> list[GroupoidHom]:
    """All groupoid homomorphisms, by backtracking with full constraint checks.

    Units are assigned first so that src/rng constraints prune non-unit
    candidates down to the arrows between the already-chosen unit images.
    The search is one loop over levels, one per domain arrow, each holding an
    iterator over its untried candidates, so Python's recursion limit does not
    bound its depth.  Entering a level charges its candidates times its
    compose checks, refusing with `CapExceeded` past CHECK_BUDGET; each level
    has a check, (x, x, x) or (a, src a, a), so this bounds candidates too.
    Assumes the groupoid axioms on both sides, under which the checks suffice.
    """
    if bijective and domain.arrow_count != codomain.arrow_count:
        return []
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
    # per level: the arrow, whether it is a unit, whether its image must be
    # unused so far, its endpoints and its compose checks
    levels = [(a, domain.is_unit(a),
               bijective or (injective_on_units and domain.is_unit(a)),
               domain.src[a], domain.rng[a], triggers[k]) for k, a in enumerate(order)]
    cod_by_src_rng = codomain.by_src_rng()
    cod_compose = codomain.compose
    image = [-1] * n
    uses = [0] * codomain.arrow_count
    found: list[tuple[int, ...]] = []
    checked = 0
    pending: list[Iterator[int]] = []  # the untried candidates of each assigned level
    while True:
        if len(pending) == n:
            found.append(tuple(image))
        else:
            _, unit, _, s, r, checks = levels[len(pending)]
            candidates = (codomain.units if unit
                          else cod_by_src_rng.get((image[s], image[r]), ()))
            checked = _charge(checked, len(candidates) * len(checks), CHECK_BUDGET,
                              "homomorphism search", "compose checks")
            pending.append(iter(candidates))
        # move the deepest level to its next consistent candidate, or drop it
        while pending:
            a, _, fresh_only, _, _, checks = levels[len(pending) - 1]
            if image[a] != -1:
                uses[image[a]] -= 1
            for c in pending[-1]:
                if fresh_only and uses[c]:
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
    return [_unchecked(GroupoidHom, domain=domain, codomain=codomain, mapping=m)
            for m in sorted(found)]


def enumerate_automorphisms(g: FiniteGroupoid, cap: int | None = None) -> list[GroupoidHom]:
    """All bijective self-homomorphisms in lexicographic mapping order."""
    check_enum_cap(g.arrow_count, cap, "automorphism enumeration")
    return enumerate_homomorphisms(g, g, bijective=True)


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
