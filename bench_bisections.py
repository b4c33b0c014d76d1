"""Scaling curve of the bisection layer, for two source trees side by side.

    python3 bench_bisections.py --tree parent=PATH --tree change=. \
        --out BENCH_bisections.json

Each PATH is the root of a checkout (its `src/` is imported).  For pair(n),
n = 1..4, and group_bundle([3]*p), p = 1..5, every tree runs in its own
child interpreter and reports, per phase, the median wall time over fresh
groupoids and the tracemalloc peak of one more run:

- `table`: `enumerate_bisections`;
- `germ_iso`: `canonical_germ_iso` with the table already held;
- `table_plus_germ_iso`: both, from a fresh groupoid;
- `classify_faut`: at root-of-unity order 2 on pair(n), 3 on the bundles.

The trees alternate in order from one point to the next, so that drift on a
shared machine falls on both alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

POINTS = ([("pair", n) for n in range(1, 5)]
          + [("group_bundle", p) for p in range(1, 6)])
# reruns per phase; a phase slower than SLOW_S takes SLOW_RUNS runs instead
RUNS, SLOW_RUNS, SLOW_S = 5, 3, 0.5

CHILD = r"""
import json, statistics, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
from etale_kit.aut_group import classify_faut
from etale_kit.families import group_bundle, pair_groupoid
from etale_kit.inverse_semigroup import canonical_germ_iso, enumerate_bisections

family, size = sys.argv[2], int(sys.argv[3])
runs, slow_runs, slow_s = int(sys.argv[4]), int(sys.argv[5]), float(sys.argv[6])
order = 2 if family == "pair" else 3

def build():
    return pair_groupoid(size) if family == "pair" else group_bundle([3] * size)

def table(g):
    return enumerate_bisections(g, 16)

def nothing(g):
    return None

def both(g):
    held = table(g)  # the cache keeps the table only while it is held
    canonical_germ_iso(g, 16)
    return held

# name: (untimed preparation, whose result is held, and the timed phase)
PHASES = {
    "table": (nothing, table),
    "germ_iso": (table, lambda g: canonical_germ_iso(g, 16)),
    "table_plus_germ_iso": (nothing, both),
    "classify_faut": (nothing, lambda g: classify_faut(g, order, 16)),
}

def once(prepare, run):
    g = build()
    held = prepare(g)  # kept alive through the timed phase
    start = time.perf_counter()
    run(g)
    return time.perf_counter() - start

result = {"arrows": build().arrow_count, "bisections": len(table(build()))}
for name, (prepare, run) in PHASES.items():
    times = [once(prepare, run)]
    times += [once(prepare, run)
              for _ in range((slow_runs if times[0] > slow_s else runs) - 1)]
    g = build()
    held = prepare(g)
    tracemalloc.start()
    run(g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    result[name] = {"wall_ms": round(statistics.median(times) * 1000, 3),
                    "runs": len(times), "peak_mb": round(peak / 2**20, 3)}
print(json.dumps(result))
"""


def measure(root: Path, family: str, size: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / "src"), family, str(size),
         str(RUNS), str(SLOW_RUNS), str(SLOW_S)],
        check=True, capture_output=True, text=True)
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
    parser.add_argument("--tree", action="append", required=True,
                        metavar="NAME=PATH", help="a checkout to measure")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = [(name, Path(path).resolve())
             for name, path in (t.split("=", 1) for t in args.tree)]
    curve = []
    for i, (family, size) in enumerate(POINTS):
        label = f"pair({size})" if family == "pair" else f"group_bundle([3]*{size})"
        point = {"groupoid": label}
        for name, root in trees[::-1] if i % 2 else trees:
            point[name] = measure(root, family, size)
            print(label, name, point[name]["table_plus_germ_iso"]["wall_ms"], "ms",
                  file=sys.stderr)
        curve.append(point)
    doc = {
        "topic": "bisections",
        "command": "python3 bench_bisections.py " + " ".join(
            f"--tree {name}=PATH" for name, _ in trees) + f" --out {args.out}",
        "machine": {"cpu": cpu_model(), "cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version()},
        "units": {"wall_ms": "median wall time over `runs` fresh groupoids, ms",
                  "peak_mb": "tracemalloc peak of one more run, MiB"},
        "curve": curve,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
