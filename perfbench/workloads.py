"""The four workloads: their inputs, their operations and the checks on each
operation's output.

A workload builds its inputs from the seed in `prepare` and hands out its
operations one round at a time; every round holds the same kinds of
operation in the same order, so throughput and the median compare across
runs of any length.  An operation returns None when its output is correct,
KNOWN_FAULT when it hits the fault the cli_docs workload keeps on purpose,
and otherwise a message that says what was wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CAP = 16
KNOWN_FAULT = "known fault"
_TOL = 1e-9


class Workload:
    name = ""
    min_rounds = 1
    tracer = None  # set by the runner for the traced part of a run

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def round(self, index: int) -> list:
        raise NotImplementedError


# -- selftest ------------------------------------------------------------------


class Selftest(Workload):
    """`etale-kit --json selftest --seed s --cap 16`, in process.

    The selftest seeds are the fixed set SEEDS and the benchmark seed only
    orders them: one call's cost varies by about 20 % between selftest seeds,
    which would make a run's figures depend on which seeds it drew.  Every
    report must pass all its checks, and a seed run again must give a
    byte-identical report, so each run does at least two rounds."""

    name = "selftest"
    min_rounds = 2
    SEEDS = (7, 8, 9)

    def prepare(self, seed):
        from etale_kit import cli
        self.cli = cli
        self.order = list(self.SEEDS)
        random.Random(seed).shuffle(self.order)
        self.reports = {}

    def round(self, index):
        return [partial(self._op, s) for s in self.order]

    def _op(self, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["--json", "selftest", "--seed", str(seed),
                                  "--cap", str(CAP)])
        text = out.getvalue()
        if code != 0:
            return f"selftest --seed {seed} exited {code}"
        report = json.loads(text)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        if failed or not report["ok"]:
            return f"selftest --seed {seed} failed checks {failed}"
        if self.reports.setdefault(seed, text) != text:
            return f"selftest --seed {seed} gave a different report on a repeat"
        return None


# -- hom_decompose ---------------------------------------------------------------


class HomDecompose(Workload):
    """Parse one homomorphism document, validate it, decompose it, and run
    the rigidity check when the matrix is surjective; corrupted matrices must
    be refused by validation."""

    name = "hom_decompose"
    # kind, source blocks, target blocks, placement, corruption
    CASES = (
        ("pair(6)", [(6, 1)], [(6, 1)], {0: (0, 0)}, None),
        ("pair(8)", [(8, 1)], [(8, 1)], {0: (0, 0)}, None),
        ("pair(10)", [(10, 1)], [(10, 1)], {0: (0, 0)}, None),
        ("proper_onto", [(6, 1), (8, 1)], [(8, 1)], {1: (0, 0)}, None),
        ("proper_into", [(6, 1), (4, 1)], [(8, 1)], {0: (0, 2)}, None),
        ("non_effective_onto", [(6, 2)], [(6, 1)], {0: (0, 0)}, None),
        ("non_effective_into", [(4, 4)], [(6, 1)], {0: (0, 1)}, None),
        ("second_nonzero", [(8, 1)], [(8, 1)], {0: (0, 0)}, "second_nonzero"),
        ("unit_off_diagonal", [(8, 1)], [(8, 1)], {0: (0, 0)},
         "unit_off_diagonal"),
        ("non_unit_modulus", [(8, 1)], [(8, 1)], {0: (0, 0)},
         "non_unit_modulus"),
    )

    def prepare(self, seed):
        from etale_kit import decomposition, io as kio
        self.dec, self.kio = decomposition, kio
        rnd = random.Random(seed)
        self.cases = []
        for kind, sblocks, tblocks, placement, corrupt in self.CASES:
            case = gen.hom_case(kind, sblocks, tblocks, placement, rnd, corrupt)
            self.cases.append((case, json.dumps(case.doc())))

    def round(self, index):
        return [partial(self._op, case, text) for case, text in self.cases]

    def _op(self, case, text):
        if self.tracer is not None:
            self.tracer.counts["io.bytes_parsed"] += len(text)
        hm = self.kio.hom_from_doc(json.loads(text))
        report = self.dec.validate_hom(hm)
        if case.corrupt is not None:
            return None if not report.ok else (
                f"{case.kind}: corrupted matrix passed validation")
        if not report.ok:
            return f"{case.kind}: refused a homomorphism: {report.failed_checks()}"
        data = self.dec.decompose(hm, trust=True)
        if data.invariant_units != case.expected_units:
            return f"{case.kind}: invariant units {data.invariant_units}"
        if data.hom.mapping != case.expected_map:
            return f"{case.kind}: wrong arrow map"
        twist = np.array([v.value for v in data.cocycle.values])
        if np.max(np.abs(twist - np.array(case.expected_twist))) > _TOL:
            return f"{case.kind}: wrong twist"
        if any(m > 1 for _, m in case.source.blocks):
            problem = self._check_quotient(case, self.dec.quotient_hom(hm.source))
            if problem:
                return f"{case.kind}: quotient_hom {problem}"
        if case.surjective:
            iso = self.dec.rigidity_check(hm)
            if (iso.domain.arrow_count != case.quotient_arrows
                    or sorted(iso.mapping) != list(range(case.target.arrow_count))):
                return f"{case.kind}: rigidity isomorphism is not a bijection " \
                       f"from {case.quotient_arrows} quotient arrows"
        return None

    @staticmethod
    def _check_quotient(case, qh):
        """The fiber-summing map has one entry 1 per column, and two arrows
        share a row exactly when they share source and range."""
        src = case.source
        if qh.entries.shape[0] != gen.quotient_arrow_count(src.blocks):
            return f"has {qh.entries.shape[0]} rows"
        support = np.abs(qh.entries) > _TOL
        if not np.all(support.sum(axis=0) == 1):
            return "has a column without exactly one entry"
        rows = support.argmax(axis=0)
        if np.max(np.abs(qh.entries[rows, np.arange(len(rows))] - 1)) > _TOL:
            return "has an entry other than 1"
        ends = [(src.src[a], src.rng[a]) for a in range(src.arrow_count)]
        pairs = set(zip(rows.tolist(), ends))
        if not len(pairs) == len(set(rows.tolist())) == len(set(ends)):
            return "does not collapse exactly the arrows with equal ends"
        return None


# -- symmetry_enum ---------------------------------------------------------------


def _swap_pairs(points: int) -> list:
    """Z/2 swapping points 2k and 2k+1; an odd last point stays fixed."""
    swap = [x ^ 1 if x ^ 1 < points else x for x in range(points)]
    return [list(range(points)), swap]


def _rotate_three(points: int) -> list:
    """Z/3 rotating points 0, 1, 2 and fixing the rest."""
    return [[(x + g) % 3 if x < 3 else x for x in range(points)]
            for g in range(3)]


class SymmetryEnum(Workload):
    """Bisections, the canonical germ isomorphism, automorphisms, cocycles
    and the diagonal-fixing classification of one groupoid per operation.
    Each operation relabels the arrows with a fresh permutation and builds a
    new groupoid from the relabelled tables, so nothing an earlier operation
    computed (the program caches bisections per groupoid) is reused."""

    name = "symmetry_enum"
    # name, tables, root-of-unity order of the cocycles
    KINDS = (
        ("pair(4)", lambda: gen.block_union([(4, 1)]), 2),
        ("group_bundle([3,3,3,3])", lambda: gen.block_union([(1, 3)] * 4), 3),
        ("3xpair(2)", lambda: gen.block_union([(2, 1)] * 3), 2),
        ("pair(3)+group_bundle([2,2])",
         lambda: gen.block_union([(3, 1), (1, 2), (1, 2)]), 2),
        ("pair(2)+pair(2)+group_bundle([3])",
         lambda: gen.block_union([(2, 1), (2, 1), (1, 3)]), 3),
        ("Z/2 on 5 points", lambda: gen.action_groupoid(2, _swap_pairs(5)), 2),
        ("Z/3 on 4 points", lambda: gen.action_groupoid(3, _rotate_three(4)), 3),
    )

    def prepare(self, seed):
        from etale_kit import aut_group, cocycles, groupoid, inverse_semigroup
        self.aut, self.coc = aut_group, cocycles
        self.grp, self.isg = groupoid, inverse_semigroup
        self.seed = seed
        self.kinds = []
        for name, build, order in self.KINDS:
            tables = build()
            g = self._groupoid(tables)
            if not groupoid.validation_report(g).ok:
                raise RuntimeError(f"benchmark input {name} is not a groupoid")
            self.kinds.append((name, tables, order))

    def _groupoid(self, t):
        return self.grp.FiniteGroupoid(t.arrow_count, t.units, t.src, t.rng,
                                       t.compose, t.inv)

    def round(self, index):
        ops = []
        for k, (name, tables, order) in enumerate(self.kinds):
            rnd = random.Random(f"{self.seed}/{index}/{k}")
            ops.append(partial(self._op, name, gen.relabel(tables, rnd), order))
        return ops

    def _op(self, name, t, order):
        g = self._groupoid(t)
        semigroup = self.isg.enumerate_bisections(g, CAP)
        germ_iso = self.isg.canonical_germ_iso(g, CAP)
        automorphisms = self.grp.enumerate_automorphisms(g, CAP)
        cocycles = self.coc.enumerate_cocycles(g, order)
        faut = self.aut.classify_faut(g, order, CAP)
        n = t.arrow_count
        want = (gen.bisection_count(t.blocks), gen.automorphism_count(t.blocks),
                gen.cocycle_count(t.blocks, order))
        got = (len(semigroup), len(automorphisms), len(cocycles))
        if got != want:
            return f"{name}: bisections/automorphisms/cocycles {got}, expected {want}"
        if len(faut) != want[2]:
            return f"{name}: classify_faut gave {len(faut)} cocycles"
        if germ_iso.domain.arrow_count != n or sorted(germ_iso.mapping) != list(range(n)):
            return f"{name}: germ isomorphism is not a bijection"
        return None


# -- cli_docs --------------------------------------------------------------------

_MALFORMED = '{"arrows": 3, "units": [0, 1'
# io.groupoid_from_doc takes JSON booleans for ids, so this exits 0 instead of 1
_BOOLEAN_IDS = ('{"arrows": true, "units": [0], "src": [0], "rng": [0], '
                '"compose": [[0, 0, 0]], "inv": [0]}')


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ETALE_KIT_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliDocs(Workload):
    """One `python -m etale_kit.cli` child per request, one at a time, over
    small documents; exit codes and the counts in each `--json` report are
    checked.  The boolean-id document is counted as failed while the CLI
    accepts it."""

    name = "cli_docs"

    def prepare(self, seed):
        rnd = random.Random(seed)
        docs = WORK / "cli"
        docs.mkdir(parents=True, exist_ok=True)

        def put(name, doc):
            path = docs / f"{name}.json"
            path.write_text(json.dumps(doc))
            return str(path.relative_to(ROOT))

        def tables(blocks):
            return gen.relabel(gen.block_union(blocks), rnd)

        requests = []
        valid = tables([(4, 1)])
        requests.append(("validate", ["validate", put("validate", valid.doc())],
                         None, partial(_expect_validate, 0)))
        requests.append(("validate_mutant", ["validate", "-"],
                         json.dumps(gen.mutate_inverse(tables([(3, 1)]), rnd)),
                         partial(_expect_validate, 2)))
        mixed = tables([(2, 1), (1, 3), (1, 2)])
        requests.append(("analyze", ["analyze", put("analyze", mixed.doc())],
                         None, partial(_expect_analyze, mixed)))
        bis = tables([(3, 1), (1, 2)])
        requests.append(("bisections", ["bisections", put("bisections", bis.doc())],
                         None, partial(_expect_bisections, bis)))
        normed = tables([(2, 2)])
        coeff = (np.array([rnd.gauss(0, 1) for _ in range(normed.arrow_count)])
                 + 1j * np.array([rnd.gauss(0, 1) for _ in range(normed.arrow_count)]))
        requests.append(("norm", ["norm", put("norm", normed.doc()), "--element",
                                  put("element", {"coeff": [[z.real, z.imag] for z in coeff]})],
                         None, partial(_expect_norm, gen.reduced_norm(normed, coeff))))
        into = gen.hom_case("decompose", [(3, 1)], [(4, 1)], {0: (0, 1)}, rnd)
        requests.append(("decompose", ["decompose", "--hom", put("decompose", into.doc())],
                         None, partial(_expect_decompose, into)))
        collapsed = tables([(2, 2), (1, 3)])
        requests.append(("quotient", ["quotient", put("quotient", collapsed.doc())],
                         None, partial(_expect_quotient, collapsed)))
        onto = gen.hom_case("rigidity", [(2, 2)], [(2, 1)], {0: (0, 0)}, rnd)
        requests.append(("rigidity", ["rigidity", "--hom", put("rigidity", onto.doc())],
                         None, partial(_expect_rigidity, onto)))
        sym = tables([(2, 1), (2, 1), (1, 3)])
        requests.append(("aut", ["aut", put("aut", sym.doc()), "--phases", "3"],
                         None, partial(_expect_aut, sym, 3)))
        auto = gen.hom_case("faut", [(3, 1)], None, {0: (0, 0)}, rnd)
        requests.append(("faut", ["faut", put("faut_groupoid", auto.source.doc()),
                                  "--hom", put("faut_hom", auto.doc())],
                         None, partial(_expect_faut, auto)))
        requests.append(("malformed", ["validate", "-"], _MALFORMED, _expect_parse_error))
        requests.append(("boolean_ids", ["validate", "-"], _BOOLEAN_IDS, _expect_boolean_ids))
        self.requests = requests
        self.env = child_env()
        self.trace_out = WORK / "cli_child_trace.json"

    def round(self, index):
        return [partial(self._op, *request) for request in self.requests]

    def _op(self, name, args, stdin, expect):
        argv = ["--json", *args]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "etale_kit.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.trace_out), *argv]
        start = time.perf_counter_ns()
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=120)
        if self.tracer is not None:
            self.tracer.counts["cli.process_ns"] += time.perf_counter_ns() - start
            self.tracer.merge(json.loads(self.trace_out.read_text()), self.tracer.op)
            self.tracer.counts["io.bytes_parsed"] += _request_bytes(args, stdin)
        report = None
        if proc.returncode in (0, 2, 3) and proc.stdout.strip():
            report = json.loads(proc.stdout)
        problem = expect(proc.returncode, report, proc.stderr)
        if problem is None or problem is KNOWN_FAULT:
            return problem
        return f"{name}: {problem}"


def _request_bytes(args, stdin) -> int:
    total = len(stdin) if stdin else 0
    for arg in args:
        if arg.endswith(".json"):
            total += (ROOT / arg).stat().st_size
    return total


def _expect_validate(code, rc, report, stderr):
    if rc != code:
        return f"exit {rc}, expected {code}: {stderr.strip()}"
    if report is None or report["ok"] != (code == 0):
        return "report does not match the exit code"
    return None


def _ok(rc, report, stderr):
    if rc != 0:
        return f"exit {rc}: {stderr.strip()}"
    if report is None or not report["ok"]:
        return "report is not ok"
    return None


def _expect_analyze(t, rc, report, stderr):
    problem = _ok(rc, report, stderr)
    if problem:
        return problem
    blocks = t.blocks
    want = {
        "arrows": t.arrow_count, "units": len(t.units), "orbits": len(blocks),
        "invariant_subsets": 2 ** len(blocks),
        "isotropy": sum(n * m for n, m in blocks),
        "effective": all(m == 1 for _, m in blocks),
        "topologically_principal": all(m == 1 for _, m in blocks),
        "quotient_arrows": gen.quotient_arrow_count(blocks),
        "automorphisms": gen.automorphism_count(blocks),
    }
    got = {k: report["data"].get(k) for k in want}
    return None if got == want else f"analyze reported {got}, expected {want}"


def _expect_bisections(t, rc, report, stderr):
    problem = _ok(rc, report, stderr)
    if problem:
        return problem
    got = (report["data"]["count"], report["data"]["idempotents"])
    want = (gen.bisection_count(t.blocks), 2 ** len(t.units))
    return None if got == want else f"bisections {got}, expected {want}"


def _expect_norm(value, rc, report, stderr):
    problem = _ok(rc, report, stderr)
    if problem:
        return problem
    got = float(report["data"]["reduced_norm"])
    if abs(got - value) > 1e-10 * max(1.0, value):
        return f"reduced norm {got}, expected {value}"
    return None


def _twist_error(strings, expected) -> float:
    got = np.array([complex(s) for s in strings])
    return float(np.max(np.abs(got - np.array(expected))))


def _expect_decompose(case, rc, report, stderr):
    problem = _ok(rc, report, stderr)
    if problem:
        return problem
    data = report["data"]
    if (tuple(data["invariant_units"]) != case.expected_units
            or tuple(data["arrow_map"]) != case.expected_map):
        return "decomposition does not match the generating triple"
    if _twist_error(data["twist"], case.expected_twist) > 1e-9:
        return "twist does not match the generating triple"
    return None


def _expect_quotient(t, rc, report, stderr):
    problem = _ok(rc, report, stderr)
    if problem:
        return problem
    got = report["data"]["groupoid"]["arrows"]
    want = gen.quotient_arrow_count(t.blocks)
    return None if got == want else f"quotient has {got} arrows, expected {want}"


def _expect_rigidity(case, rc, report, stderr):
    problem = _ok(rc, report, stderr)
    if problem:
        return problem
    data = report["data"]
    if (data["quotient_arrows"] != case.quotient_arrows
            or sorted(data["iso_arrows"]) != list(range(case.target.arrow_count))):
        return "rigidity isomorphism is not a bijection onto the target"
    return None


def _expect_aut(t, order, rc, report, stderr):
    problem = _ok(rc, report, stderr)
    if problem:
        return problem
    data = report["data"]
    auts = gen.automorphism_count(t.blocks)
    cocycles = gen.cocycle_count(t.blocks, order)
    got = (data["automorphisms"], data[f"cocycles_mu{order}"], data["semidirect_order"])
    want = (auts, cocycles, auts * cocycles)
    return None if got == want else f"aut reported {got}, expected {want}"


def _expect_faut(case, rc, report, stderr):
    problem = _ok(rc, report, stderr)
    if problem:
        return problem
    data = report["data"]
    fixes = all(case.expected_map[u] == u for u in case.source.units)
    if tuple(data["arrow_map"]) != case.expected_map:
        return "faut arrow map does not match the generating automorphism"
    if _twist_error(data["twist"], case.expected_twist) > 1e-9:
        return "faut twist does not match the generating automorphism"
    if data["fixes_diagonal"] != fixes:
        return f"fixes_diagonal is {data['fixes_diagonal']}, expected {fixes}"
    return None


def _expect_parse_error(rc, report, stderr):
    if rc != 1 or not stderr.startswith("error:"):
        return f"exit {rc} for malformed JSON, expected 1"
    return None


def _expect_boolean_ids(rc, report, stderr):
    if rc == 0:
        return KNOWN_FAULT
    return _expect_parse_error(rc, report, stderr)


WORKLOADS = {w.name: w for w in (Selftest, HomDecompose, SymmetryEnum, CliDocs)}
