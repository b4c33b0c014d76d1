"""Benchmark of etale-kit: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports etale_kit from src/.  A run
prepares the workload's inputs from the seed, then repeats whole rounds of
its operations until S seconds have passed, checking every output.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the run spends half its time untraced and half with every
public function of the program wrapped in spans, and reports the per-layer
figures and the tracing overhead.  --smoke runs one short pass of every
workload's checks and prints a line per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One client on one core: BLAS threads would compete with the client and
# with whatever else runs on the machine.  Set before numpy is imported.  The
# benchmark passes every cap explicitly, so an ETALE_KIT_CAP in the caller's
# environment must not count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ETALE_KIT_CAP", None)

from tracer import Tracer  # noqa: E402
from workloads import KNOWN_FAULT, WORK, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
MAX_REPORTED_ERRORS = 5


def run_phase(workload, seconds: float, min_rounds: int, first_op: int = 0,
              tracer=None) -> dict:
    """Whole rounds of the workload's operations, at least `min_rounds`,
    starting another while it would end no more than half a round after
    `seconds`."""
    durations, round_times, errors = [], [], []
    failed = 0
    start = time.perf_counter()
    while len(round_times) < min_rounds or (
            time.perf_counter() - start + statistics.fmean(round_times) / 2 < seconds):
        round_start = time.perf_counter()
        for op in workload.round(len(round_times)):
            if tracer is not None:
                tracer.op = first_op + len(durations)
            t0 = time.perf_counter()
            try:
                status = op()
            except Exception as exc:  # a crash is a wrong output, not the end
                status = f"{type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - t0)
            if status is not None:
                failed += 1
                if status != KNOWN_FAULT:
                    errors.append(status)
        round_times.append(time.perf_counter() - round_start)
    return {"durations": durations, "round_times": round_times,
            "failed": failed, "errors": errors}


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import the package and
    build the workload's inputs, as `--setup-probe` does."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        # with pipes, subprocess.run wakes when the child closes them; a bare
        # wait with a timeout would poll, in steps of up to 50 ms
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                        "--workload", name, "--seed", str(seed)],
                       cwd=ROOT, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, seed: int, seconds: int, trace: bool) -> dict:
    workload.prepare(seed)
    if not trace:
        phase = run_phase(workload, seconds, workload.min_rounds)
        who = resource.RUSAGE_CHILDREN if workload.name == "cli_docs" else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(who).ru_maxrss / 1024
        durations = phase["durations"]
        metrics = {
            "setup_s": (setup_seconds(workload.name, seed), "s"),
            "ops_per_s": (len(durations) / sum(phase["round_times"]), "1/s"),
            "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        phases = [phase]
    else:
        plain = run_phase(workload, seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            traced = run_phase(workload, seconds / 2, 1,
                               first_op=len(plain["durations"]), tracer=tracer)
        finally:
            workload.tracer = None
            tracer.uninstall()
        ops = len(traced["durations"])
        metrics = tracer.layer_metrics(ops)
        overhead = (statistics.fmean(traced["durations"])
                    - statistics.fmean(plain["durations"])) * 1e3
        metrics["trace.overhead_ms"] = (overhead, "ms/op")
        tracer.write(WORK / f"trace-{workload.name}.jsonl.gz")
        phases = [plain, traced]
    errors = [e for p in phases for e in p["errors"]]
    for message in errors[:MAX_REPORTED_ERRORS]:
        print(f"wrong output: {message}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(len(p["durations"]) for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    bad = 0
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.prepare(0)
        phase = run_phase(workload, 0, workload.min_rounds)
        bad += len(phase["errors"])
        print(f"{name}: {len(phase['durations'])} operations, "
              f"{phase['failed']} failed, {len(phase['errors'])} wrong "
              f"({sum(phase['round_times']):.1f} s)")
        for message in phase["errors"][:MAX_REPORTED_ERRORS]:
            print(f"  wrong output: {message}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "etale_kit" / "__init__.py").is_file():
        print(f"error: no etale_kit sources under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.prepare(args.seed)
        return 0
    print(json.dumps(measure(workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
