"""The groupoid homomorphism search, through the structure theorem for
finite groupoids (Brown, *Topology and Groupoids*, 6.7.3).

A transitive component with orbit O and vertex group H at its base x is
pair(O) x H, read from `groupoid._orbit_tier`.  This module adds the search
tier on top: the vertex groups as groupoids, each arrow's factor (z, h, y),
and the index readers that write a mapping.  `groupoid` imports it
inside the calls that search, so loading `groupoid` does not load it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, permutations, product
from math import comb, perm, prod
from typing import Iterator

from .errors import CHECK_BUDGET, _charge
from .groupoid import FiniteGroupoid, _labelled, _orbit_tier, _reader

# A partial count of the placement costs about ten compose checks (1 us against 0.1 us on
# group_bundle([1, ..., k]), k = 8-13), so its bound is charged against a tenth of the budget.
PARTIAL_COUNT_COST = 10


def _vertex_groups(g: FiniteGroupoid) -> tuple[FiniteGroupoid | None, ...]:
    """The vertex group at each orbit's base, built by `_labelled` from the
    orbit's loops, so that loop h is its arrow h; None when it is trivial.
    Built once and kept in g's cache."""
    cached = g._cache.get("vertex groups")
    if cached is None:
        tier, compose = _orbit_tier(g), g.compose
        cached = g._cache["vertex groups"] = tuple(
            None if len(loops) == 1 else
            _labelled(loops, orb[:1], g.src.__getitem__, g.rng.__getitem__,
                      g.inv.__getitem__, lambda a, b: compose[a, b])[0]
            for orb, loops in zip(tier.orbits, tier.loops))
    return cached


def _factors(g: FiniteGroupoid) -> tuple[tuple[int, int, int], ...]:
    """Each arrow a: y -> z as (z, h, y), with h the position among the
    loops at its orbit's base of t_z^-1 . a . t_y, so that
    a = t_z . loops[h] . t_y^-1, read only where the vertex group is not
    trivial.  Assumes the groupoid axioms, under which each arrow has
    exactly one factor."""
    tier, compose, inv = _orbit_tier(g), g.compose, g.inv
    position = {a: h for loops in tier.loops if len(loops) > 1 for h, a in enumerate(loops)}
    t, orbit_of, loops = tier.spanning, tier.orbit_of, tier.loops
    return tuple((z, position[compose[inv[t[z]], compose[a, t[y]]]]
                  if len(loops[orbit_of[y]]) > 1 else 0, y)
                 for a, (y, z) in enumerate(zip(g.src, g.rng)))


def _readers(g: FiniteGroupoid) -> tuple:
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
    None for the rest.  Their positions are built from `_factors` when the
    first mapping is written and kept in g's cache, as ints."""
    positions = g._cache.get("readers")
    if positions is None:
        tier, factors = _orbit_tier(g), _factors(g)
        image = [0] * g.arrow_count  # where each unit's image sits
        at = [0] * g.arrow_count  # where phi(t_y) sits, for each unit y
        rho_at, unit_h = [], []  # per orbit: where rho's values start; h of the unit
        width = 0
        for orb, loops in zip(tier.orbits, tier.loops):
            for y in orb:
                image[y] = width
                width += 1
            for y in orb[1:]:
                at[y] = width
                width += 2
            rho_at.append(width)
            unit_h.append(loops.index(orb[0]))
            if len(loops) > 1:
                width += len(loops)
        products: list[list] = [[], [], []]  # (arrow, its places), by factor count
        for a, (z, h, y) in enumerate(factors):
            i = tier.orbit_of[y]
            x = tier.orbits[i][0]
            if z == y and h == unit_h[i]:  # a is the unit y
                places = [image[y]]
            else:
                places = ([at[z]] if z != x else []) + (
                    [rho_at[i] + h] if h != unit_h[i] else []) + ([at[y] + 1] if y != x else [])
            products[len(places) - 1].append((a, places))
        where = [0] * len(factors)
        for k, (a, _) in enumerate(chain(*products)):
            where[a] = k
        two, three = (tuple(tuple(p[n] for _, p in products[k]) for n in range(k + 1))
                      if products[k] else None for k in (1, 2))
        positions = g._cache["readers"] = (
            tuple(p[0] for _, p in products[0]), two, three,
            None if len(products[0]) == len(factors) else tuple(where))
    one, two, three, where = positions
    return (_reader(one), two and tuple(map(_reader, two)),
            three and tuple(map(_reader, three)), where and _reader(where))


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
    """The homomorphisms between two groupoids through their orbit tiers.

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
    reads no orbit tier."""

    def __init__(self, domain: FiniteGroupoid, codomain: FiniteGroupoid, *,
                 unit_injective: bool, bijective: bool):
        self.domain, self.codomain = domain, codomain
        self.unit_injective, self.bijective = unit_injective or bijective, bijective
        self.discrete = len(domain.units) == domain.arrow_count
        if self.discrete:
            return
        self.dom, self.cod = _orbit_tier(domain), _orbit_tier(codomain)
        self.dom_groups, self.cod_groups = _vertex_groups(domain), _vertex_groups(codomain)
        self.checked = 0  # compose checks of the vertex-group searches
        self._rhos: dict[tuple[int, int], list[tuple[int, ...]]] = {}
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
            cod, tier = self.codomain, self.cod
            j = tier.orbit_of[u]
            x, loops = tier.orbits[j][0], tier.loops[j]
            if u != x:
                t, compose = tier.spanning[u], cod.compose
                conj = {k: compose[compose[t, k], cod.inv[t]] for k in loops}.__getitem__
                found = [tuple(map(conj, m)) for m in self.rhos(i, x)]
            else:
                group, target = self.dom_groups[i], self.cod_groups[j]
                if group is None or target is None:
                    found = [(x,) * len(self.dom.loops[i])]
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
        loops = len(self.cod.loops[j])
        if self.bijective and (size != len(target) or loops != len(self.dom.loops[i])):
            return 0
        return loops ** (size - 1) * len(self.rhos(i, target[0]))

    def count(self) -> int:
        """The number of homomorphisms, from the product formula over the
        components.

        Under unit injectivity the components are placed orbit by orbit,
        one kind of interchangeable components at a time, keeping a partial
        count per state: how many of each kind are left, and how many units
        of the orbit they fill.  Into an orbit of `room` units go only the
        kinds that fit and have a weight there; with r_k components of kind
        k, m_k = min(r_k, room // size) of which fit, each kind's step holds
        at most prod(r_k + 1) . min(room + 1, prod(m_k + 1)) states.  Their
        sum depends only on the isomorphism classes of the two groupoids,
        and is charged before any state is formed, against a tenth of
        CHECK_BUDGET, refusing with `CapExceeded`."""
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
        bound = 0
        for j, room in enumerate(rooms):
            fit = [min(r, room // s) + 1 for (s, row), r in kinds.items() if row[j] and s <= room]
            bound += len(fit) * min(room + 1, prod(fit))
        _charge(0, bound * prod(r + 1 for r in kinds.values()),
                CHECK_BUDGET // PARTIAL_COUNT_COST, "homomorphism count", "partial counts")
        ways = {tuple(kinds.values()): 1}
        for j, room in enumerate(rooms):
            # into orbit j, kind by kind, t of the r left of a kind: comb(r, t)
            # choices of which, row[j] each, and t * s of the units they fill
            placed = {(left, 0): w for left, w in ways.items()}
            for k, (s, row) in enumerate(kinds):
                if not row[j] or s > room:
                    continue
                grown: Counter = Counter()
                for (left, load), w in placed.items():
                    r = left[k]
                    for t in range(min(r, (room - load) // s) + 1):
                        grown[left[:k] + (r - t,) + left[k + 1:], load + t * s] += (
                            w * comb(r, t) * row[j] ** t)
                placed = grown
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
        codomain, orbit = self.codomain, self.dom.orbits[i]
        trivial = self.dom_groups[i] is None
        pairs = self._pairs
        found = []
        for target, weight in zip(self.cod.orbits, self.weights[i]):
            for u in target if weight else ():
                if self.unit_injective:
                    others = permutations([v for v in target if v != u], len(orbit) - 1)
                else:
                    others = product(target, repeat=len(orbit) - 1)
                rhos = [()] if trivial else self.rhos(i, u)
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
        A mapping is written through the domain's `_readers`, with no
        check."""
        if self.discrete:  # in lexicographic order, as the units ascend
            units, k = self.codomain.units, self.domain.arrow_count
            return list(permutations(units, k) if self.unit_injective
                        else product(units, repeat=k))
        codomain = self.codomain
        # the codomain's arrows by ends, each with its inverse
        self._pairs = {ends: [(a, codomain.inv[a]) for a in arrows]
                       for ends, arrows in codomain.by_src_rng().items()}
        times = codomain.compose.__getitem__
        one, two, three, arrange = _readers(self.domain)

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
            used = [False] * codomain.arrow_count
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


def _mappings(domain: FiniteGroupoid, codomain: FiniteGroupoid, *, unit_injective: bool,
              bijective: bool) -> list[tuple[int, ...]]:
    """The mappings of `enumerate_homomorphisms`, ascending: the count,
    then its charge as mapping entries, then, if both pass, the mappings."""
    if bijective and domain.arrow_count != codomain.arrow_count:
        return []
    search = _HomSearch(domain, codomain, unit_injective=unit_injective, bijective=bijective)
    count = search.count()
    _charge(0, count * domain.arrow_count, CHECK_BUDGET, "homomorphism search",
            "mapping entries")
    return search.mappings() if count else []
