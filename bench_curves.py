"""Scaling curves of one layer, for two source trees side by side.

    python3 bench_curves.py --topic algebra|bisections|enum|hom|slices|table \
        --tree parent=PATH --tree change=. --out BENCH_<topic>.json

Each PATH is the root of a checkout (its `src/` is imported).  For every
point of the topic's curve, every tree runs in its own child interpreter,
with BLAS on one thread, and reports, per phase, the median wall time over
fresh inputs and the tracemalloc peak of one more run; a phase that raises
records the exception's name and message and the wall time of one run
instead.  The trees alternate in order from one
point to the next, so that drift on a shared machine falls on both alike.

Topics:

- `algebra`: pair(n), n = 2..16.  Phases: `regular_reps` (`LeftRegularRep`
  at every unit of a fresh groupoid, so the index is built), and, on a
  groupoid whose caches are already built, `reduced_norm` (a dense random
  element) and `is_normalizer` (a normalizer supported on the shift
  bisection x_j -> x_(j+1), so every unit is checked); for n <= 3,
  `slice_products` (`slice_product` over all pairs of bisection slices,
  made untimed from the table).
- `bisections`: pair(n), n = 1..4, and group_bundle([3]*p), p = 1..5.
  Phases: `table` (`enumerate_bisections`), `germ_iso`
  (`canonical_germ_iso` with the table already held), `table_plus_germ_iso`
  (both, from a fresh groupoid) and `classify_faut` (root-of-unity order 2
  on pair(n), 3 on the bundles).
- `enum`: `automorphisms` of group_bundle([1]*k) and `cocycles` of pair(k)
  into Z/3 (arrow cap 2000), k = 1..9, where the search's budget refuses.
  On both families, `decomposition_data`: every triple, at root-of-unity
  order 4, from a fresh source into each effective member of
  `standard_corpus()`, counted as `triples`.  Then three refusal points:
  `automorphisms` of pair(n), n = 17, 25 and 35, at arrow cap 2000, each
  refused by the search's budget.
- `hom`: twisted pair(n), n = 2..16: a shuffled point bijection of pair(n)
  with the coboundary of random 12th-root point phases as its twist; and
  pair(12)+pair(4) onto pair(12), whose invariant set is the pair(12)
  block.  Phases: `validate` (`validate_hom` on a fresh matrix),
  `decompose` (on a fresh matrix already validated, so only the
  decomposition is timed) and, on twisted pair(n), `validate_extra_entry`
  (`validate_hom` on a fresh copy with 0.5 added at [0, 0]: a second entry
  in column 0 where that entry was zero, as for n = 2..4 and 9..16, else a
  rescaled one).
- `slices`: pair(n), n = 2..16.  Phases: `diagonal_slice` (`slice_failure`
  on the span of the unit point masses) and, for n <= 4,
  `bisection_slices` (`slice_failure` on the slice of every bisection,
  made untimed from the table).
- `table`: pair(n), n = 2..16, 24, 32, 48 and 64.  Phases: `construct`
  (`FiniteGroupoid` from the tables of a groupoid document, compose as
  [a, b, ab] triples), `validate` (`validation_report` on a fresh
  groupoid), and three derived groupoids: `pair_groupoid` (building
  `pair_groupoid(n)`), `quotient` (`quotient_by_isotropy` on a fresh
  groupoid) and `restrict` (a fresh `disjoint_union` of pair(n) and
  pair(1), restricted to its pair(n) block).  Then, for n = 16, 24, 32, 48 and 64, `cli_validate`: `python
  -m etale_kit.cli validate` on the document of pair(n), as a child process
  whose peak RSS is recorded as `child_peak_mb`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ALGEBRA = r"""
import numpy as np
from etale_kit.cstar import (AlgebraElement, LeftRegularRep, is_normalizer,
                             reduced_norm, slice_of_bisection, slice_product)
from etale_kit.families import pair_groupoid
from etale_kit.inverse_semigroup import enumerate_bisections

def build():
    return pair_groupoid(size)

def dense(g):
    rng = np.random.default_rng(5)
    f = AlgebraElement(g, rng.normal(size=g.arrow_count)
                       + 1j * rng.normal(size=g.arrow_count))
    reduced_norm(f)  # builds the groupoid's caches, untimed
    return f

def shift(g):
    v = np.zeros(g.arrow_count, dtype=complex)
    units = g.units
    for j, x in enumerate(units):
        v[g.by_src_rng()[x, units[(j + 1) % len(units)]][0]] = np.exp(1j * j)
    f = AlgebraElement(g, v)
    if not is_normalizer(f):  # also builds the caches, untimed
        raise ValueError("the shift element is not a normalizer")
    return f

def bisection_slices(g):
    return [slice_of_bisection(b) for b in enumerate_bisections(g, 16).elements]

PHASES = {
    "regular_reps": (lambda g: g, lambda g: [LeftRegularRep(g, x) for x in g.units]),
    "reduced_norm": (dense, reduced_norm),
    "is_normalizer": (shift, is_normalizer),
}
if size <= 3:
    PHASES["slice_products"] = (
        bisection_slices, lambda slices: [slice_product(m, n) for m in slices
                                          for n in slices])
result = {"arrows": build().arrow_count}
"""

ENUM = r"""
from etale_kit.cocycles import enumerate_cocycles
from etale_kit.decomposition import enumerate_decomposition_data
from etale_kit.families import group_bundle, pair_groupoid, standard_corpus
from etale_kit.groupoid import enumerate_automorphisms, is_effective

targets = [h for _, h in standard_corpus() if is_effective(h)]

def build():
    return group_bundle([1] * size) if family == "group_bundle" else pair_groupoid(size)

def decomposition_data(g):
    return sum(1 for h in targets for _ in enumerate_decomposition_data(g, h, 4))

if family == "pair":
    PHASES = {"cocycles": (lambda g: g, lambda g: enumerate_cocycles(g, 3, 2000))}
else:
    PHASES = {"automorphisms": (lambda g: g, lambda g: enumerate_automorphisms(g, 2000))}
result = {"arrows": build().arrow_count}
if family != "refusal":  # a refusal point times the automorphism search alone
    PHASES["decomposition_data"] = (lambda g: g, decomposition_data)
    result["triples"] = decomposition_data(build())
"""

BISECTIONS = r"""
from etale_kit.aut_group import classify_faut
from etale_kit.families import group_bundle, pair_groupoid
from etale_kit.inverse_semigroup import canonical_germ_iso, enumerate_bisections

order = 2 if family == "pair" else 3

def build():
    return pair_groupoid(size) if family == "pair" else group_bundle([3] * size)

def table(g):
    return enumerate_bisections(g, 16)

def both(g):
    held = table(g)  # the cache keeps the table only while it is held
    canonical_germ_iso(g, 16)
    return held

# name: (preparation of a fresh groupoid, untimed, and the timed phase)
PHASES = {
    "table": (lambda g: g, table),
    "germ_iso": (lambda g: (g, table(g)), lambda held: canonical_germ_iso(held[0], 16)),
    "table_plus_germ_iso": (lambda g: g, both),
    "classify_faut": (lambda g: g, lambda g: classify_faut(g, order, 16)),
}
result = {"arrows": build().arrow_count, "bisections": len(table(build()))}
"""

HOM = r"""
import random
from etale_kit.cocycles import Cocycle, Phase
from etale_kit.decomposition import (
    DecompositionData, HomMatrix, build_hom, decompose, validate_hom)
from etale_kit.families import disjoint_union, pair_groupoid
from etale_kit.groupoid import GroupoidHom, restrict

if family == "pair":
    source = target = pair_groupoid(size)
    units = source.units
else:  # pair(size) + pair(4) onto pair(size)
    source = disjoint_union([pair_groupoid(size), pair_groupoid(4)])
    target = pair_groupoid(size)
    units = source.units[:size]
sub = restrict(source, units)
rnd = random.Random(3)
images = list(target.units)
rnd.shuffle(images)
point = dict(zip(sub.units, images))
by_ends = {(target.src[x], target.rng[x]): x for x in target.arrows()}
mapping = tuple(by_ends[point[sub.src[a]], point[sub.rng[a]]] for a in sub.arrows())
exponent = {x: rnd.randrange(12) for x in sub.units}
twist = Cocycle(sub, [Phase.exact(exponent[sub.rng[a]] - exponent[sub.src[a]], 12)
                      for a in sub.arrows()])
entries = build_hom(source, target, DecompositionData(
    units, GroupoidHom(sub, target, mapping), twist)).entries

def build():
    return HomMatrix(source, target, entries)

def validated(hm):
    validate_hom(hm)
    return hm

def extra_entry(hm):
    m = hm.entries.copy()
    m[0, 0] += 0.5
    return HomMatrix(source, target, m)

PHASES = {
    "validate": (lambda hm: hm, validate_hom),
    "decompose": (validated, decompose),
}
if family == "pair":
    PHASES["validate_extra_entry"] = (extra_entry, validate_hom)
result = {"arrows": source.arrow_count, "kept_arrows": sub.arrow_count}
"""

SLICES = r"""
import numpy as np
from etale_kit.cstar import Slice, slice_failure, slice_of_bisection
from etale_kit.families import pair_groupoid
from etale_kit.inverse_semigroup import enumerate_bisections

def build():
    return pair_groupoid(size)

def diagonal(g):
    return Slice(g, np.eye(g.arrow_count, dtype=complex)[list(g.units)])

def bisection_slices(g):
    return [slice_of_bisection(b) for b in enumerate_bisections(g, 16).elements]

PHASES = {"diagonal_slice": (diagonal, slice_failure)}
if size <= 4:
    PHASES["bisection_slices"] = (
        bisection_slices, lambda slices: [slice_failure(m) for m in slices])
result = {"arrows": build().arrow_count}
"""

TABLE = r"""
import os, subprocess, tempfile

WRITE_PAIR = '''
import sys
from etale_kit.families import pair_groupoid
from etale_kit.io import canonical_json, groupoid_to_doc
with open(sys.argv[1], "w") as fh:
    fh.write(canonical_json(groupoid_to_doc(pair_groupoid(int(sys.argv[2])))))
'''

if family == "pair":
    from etale_kit.families import disjoint_union, pair_groupoid
    from etale_kit.groupoid import (FiniteGroupoid, quotient_by_isotropy, restrict,
                                    validation_report)
    from etale_kit.io import groupoid_to_doc

    doc = groupoid_to_doc(pair_groupoid(size))
    fields = [doc[key] for key in ("arrows", "units", "src", "rng", "compose", "inv")]

    def build():
        return FiniteGroupoid(*fields)

    PHASES = {
        "construct": (lambda g: None, lambda _: build()),
        "validate": (lambda g: g, validation_report),
        "pair_groupoid": (lambda g: None, lambda _: pair_groupoid(size)),
        "quotient": (lambda g: g, quotient_by_isotropy),
        "restrict": (lambda g: disjoint_union([pair_groupoid(size), pair_groupoid(1)]),
                     lambda union: restrict(union, union.units[:size])),
    }
    result = {"arrows": len(doc["src"]), "compose": len(doc["compose"])}
else:
    # a child writes the document, so that this process stays small: a
    # child's peak RSS includes the pages of its parent at the fork
    env = dict(os.environ, PYTHONPATH=sys.argv[1])
    scratch = tempfile.TemporaryDirectory()
    path = os.path.join(scratch.name, "pair.json")
    subprocess.run([sys.executable, "-c", WRITE_PAIR, path, str(size)], check=True, env=env)
    CHILD_PEAK_KB = {"cli_validate": 0}

    def build():
        return path

    def cli_validate(path):
        child = subprocess.Popen([sys.executable, "-m", "etale_kit.cli", "validate", path],
                                 stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, child.args)
        CHILD_PEAK_KB["cli_validate"] = max(CHILD_PEAK_KB["cli_validate"], usage.ru_maxrss)

    PHASES = {"cli_validate": (lambda path: path, cli_validate)}
    result = {"document_bytes": os.path.getsize(path)}
"""

CHILD = r"""
import json, statistics, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
family, size = sys.argv[2], int(sys.argv[3])
runs, slow_runs, slow_s = int(sys.argv[4]), int(sys.argv[5]), float(sys.argv[6])
exec(sys.argv[7])

def once(prepare, run):  # the seconds of one timed run, and what it raised or None
    held = prepare(build())  # kept alive through the timed phase
    start = time.perf_counter()
    try:
        run(held)
    except Exception as exc:
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, None

for name, (prepare, run) in PHASES.items():
    first, raised = once(prepare, run)
    if raised is not None:
        result[name] = {"raised": type(raised).__name__, "message": str(raised),
                        "wall_ms": round(first * 1000, 3), "runs": 1}
        continue
    times = [first] + [once(prepare, run)[0]
                       for _ in range((slow_runs if first > slow_s else runs) - 1)]
    held = prepare(build())
    tracemalloc.start()
    run(held)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    result[name] = {"wall_ms": round(statistics.median(times) * 1000, 3),
                    "runs": len(times), "peak_mb": round(peak / 2**20, 3)}
    if name in globals().get("CHILD_PEAK_KB", {}):  # ru_maxrss is in KiB on Linux
        result[name]["child_peak_mb"] = round(CHILD_PEAK_KB[name] / 2**10, 1)
print(json.dumps(result))
"""

# topic: (child code, curve points, runs per phase, and a phase slower than
# the given seconds takes the smaller run count instead; the label of a point)
TOPICS = {
    "algebra": (ALGEBRA, [("pair", n) for n in range(2, 17)], (21, 5, 0.5),
                lambda family, size: f"pair({size})"),
    "enum": (ENUM, [("group_bundle", k) for k in range(1, 10)]
             + [("pair", k) for k in range(1, 10)]
             + [("refusal", n) for n in (17, 25, 35)], (5, 3, 0.5),
             lambda family, size: {"group_bundle": f"group_bundle([1]*{size})",
                                   "pair": f"pair({size}) into Z/3",
                                   "refusal": f"pair({size}) at arrow cap 2000"}[family]),
    "bisections": (BISECTIONS,
                   [("pair", n) for n in range(1, 5)]
                   + [("group_bundle", p) for p in range(1, 6)],
                   (5, 3, 0.5),
                   lambda family, size: f"pair({size})" if family == "pair"
                   else f"group_bundle([3]*{size})"),
    "hom": (HOM,
            [("pair", n) for n in range(2, 17)] + [("pair_plus_pair4", 12)],
            (21, 5, 0.5),
            lambda family, size: f"twisted pair({size})" if family == "pair"
            else f"pair({size})+pair(4) onto pair({size})"),
    "slices": (SLICES, [("pair", n) for n in range(2, 17)], (21, 5, 0.5),
               lambda family, size: f"pair({size})"),
    "table": (TABLE, [("pair", n) for n in [*range(2, 17), 24, 32, 48, 64]]
              + [("cli", n) for n in (16, 24, 32, 48, 64)], (21, 3, 0.5),
              lambda family, size: f"pair({size})" if family == "pair"
              else f"etale-kit validate on pair({size})"),
}


def measure(root: Path, topic: str, family: str, size: int) -> dict:
    code, _, (runs, slow_runs, slow_s), _ = TOPICS[topic]
    # BLAS runs single-threaded, as in perfbench/run.py: with its default
    # threads, an occasional child ran small products ~40 times slower
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / "src"), family, str(size),
         str(runs), str(slow_runs), str(slow_s), code],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topic", required=True, choices=sorted(TOPICS))
    parser.add_argument("--tree", action="append", required=True,
                        metavar="NAME=PATH", help="a checkout to measure")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = [(name, Path(path).resolve())
             for name, path in (t.split("=", 1) for t in args.tree)]
    _, points, _, label = TOPICS[args.topic]
    curve = []
    for i, (family, size) in enumerate(points):
        point = {"groupoid": label(family, size)}
        for name, root in trees[::-1] if i % 2 else trees:
            point[name] = measure(root, args.topic, family, size)
            print(point["groupoid"], name, point[name], file=sys.stderr)
        curve.append(point)
    doc = {
        "topic": args.topic,
        "command": f"python3 bench_curves.py --topic {args.topic} " + " ".join(
            f"--tree {name}=PATH" for name, _ in trees) + f" --out {args.out}",
        "machine": {"cpu": cpu_model(), "cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version()},
        "units": {"wall_ms": "median wall time over `runs` fresh inputs, ms",
                  "peak_mb": "tracemalloc peak of one more run, MiB",
                  "child_peak_mb": "largest peak RSS of the phase's child processes, MiB"},
        "curve": curve,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
