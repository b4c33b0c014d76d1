"""The command-line surface: every command and every exit code."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etale_kit import cli
from etale_kit import io as kio
from etale_kit.decomposition import HomMatrix, quotient_hom, validate_hom
from etale_kit.errors import DEFAULT_ENUM_CAP, StructuralError, enum_cap
from etale_kit.families import cyclic_groupoid, group_bundle, pair_groupoid
from etale_kit.groupoid import enumerate_automorphisms, invariant_subsets


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """Run `cli.main` in process and return its exit code and output as a
    finished child process would: `env` entries are set as environment
    variables and `input` is read as stdin, for the one call only."""
    def run(*args, env=None, input=None):
        capsys.readouterr()
        with monkeypatch.context() as mp:
            for key, value in (env or {}).items():
                mp.setenv(key, value)
            if input is not None:
                mp.setattr(sys, "stdin", io.StringIO(input))
            code = cli.main(list(args))
        out = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out.out, out.err)
    return run


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    r2 = pair_groupoid(2)
    z2 = cyclic_groupoid(2)

    def write(name, payload):
        path = root / name
        path.write_text(kio.canonical_json(payload) + "\n")
        return str(path)

    paths = {
        "r2": write("r2.json", {**kio.groupoid_to_doc(r2), "meta": {"name": "pair(2)"}}),
        "z2": write("z2.json", kio.groupoid_to_doc(z2)),
        "ones": write("ones.json", {"coeff": [[1.0, 0.0]] * 4}),
        "sign": write("sign.json", kio.hom_to_doc(
            HomMatrix(r2, r2, np.diag([1, 1, -1, -1]).astype(complex)))),
        "collapse": write("collapse.json", kio.hom_to_doc(quotient_hom(z2))),
        "ident_z2": write("ident_z2.json", kio.hom_to_doc(
            HomMatrix(z2, z2, np.eye(2)))),
    }
    bad = kio.groupoid_to_doc(r2)
    bad["src"] = [1, 1, 1, 0]
    paths["bad"] = write("bad.json", bad)
    corrupt = np.eye(4, dtype=complex)
    corrupt[3, 2] = 1.0
    paths["corrupt"] = write("corrupt.json", kio.hom_to_doc(
        HomMatrix(r2, r2, corrupt)))
    broken = root / "broken.json"
    broken.write_text("{not json")
    paths["broken"] = str(broken)
    return paths


def test_validate_pass(docs, run_cli):
    out = run_cli("--json", "validate", docs["r2"])
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["ok"] and report["data"]["violations"] == []


def test_validate_failure_exits_two(docs, run_cli):
    out = run_cli("--json", "validate", docs["bad"])
    assert out.returncode == 2
    report = json.loads(out.stdout)
    assert not report["ok"]
    assert report["data"]["violations"]


def test_parse_error_exits_one(docs, run_cli):
    assert run_cli("validate", docs["broken"]).returncode == 1
    assert run_cli("validate", "no_such_file.json").returncode == 1


def test_analyze(docs, run_cli):
    out = run_cli("--json", "analyze", docs["r2"])
    assert out.returncode == 0
    data = json.loads(out.stdout)["data"]
    assert data["arrows"] == 4 and data["effective"] is True
    assert data["automorphisms"] == 2


def test_analyze_says_when_the_cap_skips_the_count(docs, tmp_path, run_cli):
    path = tmp_path / "pair5.json"
    path.write_text(kio.canonical_json(kio.groupoid_to_doc(pair_groupoid(5))))
    for argv, arrows in (([str(path)], 25), ([docs["r2"], "--cap", "3"], 4)):
        out = run_cli("--json", "analyze", *argv)
        assert out.returncode == 0 and out.stderr == ""
        data = json.loads(out.stdout)["data"]
        assert data["arrows"] == arrows
        assert "automorphisms" in data and data["automorphisms"] is None


def _analyze_in_process(g, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(kio.canonical_json(kio.groupoid_to_doc(g)))
    assert cli.main(["--json", "analyze", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["data"]


def test_analyze_counts_invariant_subsets(corpus, tmp_path, capsys):
    for name, g in corpus:
        data = _analyze_in_process(g, tmp_path, capsys)
        assert data["invariant_subsets"] == len(invariant_subsets(g)), name


def test_analyze_counts_invariant_subsets_without_enumerating(tmp_path, capsys):
    # 40 one-point orbits: 2**40 invariant subsets, far too many to list
    data = _analyze_in_process(group_bundle([1] * 40), tmp_path, capsys)
    assert data["invariant_subsets"] == 2 ** 40


def test_bisections_count(docs, run_cli):
    out = run_cli("--json", "bisections", docs["r2"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["data"]["count"] == 7


def test_norm_prints_twelve_digits(docs, run_cli):
    out = run_cli("--json", "norm", docs["r2"], "--element", docs["ones"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["data"]["reduced_norm"] == "2"


def test_non_numeric_element_exits_one(docs, tmp_path, run_cli):
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"coeff": [["a", 0]] + [[0, 0]] * 3}))
    out = run_cli("norm", docs["r2"], "--element", str(element))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert "pairs of numbers" in out.stderr


def test_decompose_success(docs, run_cli):
    out = run_cli("--json", "decompose", "--hom", docs["sign"])
    assert out.returncode == 0
    data = json.loads(out.stdout)["data"]
    assert data["invariant_units"] == [0, 1]
    assert data["arrow_map"] == [0, 1, 2, 3]
    assert data["twist"][2].startswith("-1")


def test_decompose_hypothesis_failure_exits_two(docs, run_cli):
    assert run_cli("decompose", "--hom", docs["ident_z2"]).returncode == 2
    assert run_cli("decompose", "--hom", docs["corrupt"]).returncode == 2


def test_decompose_corruption_exits_three(docs, run_cli):
    out = run_cli("decompose", "--hom", docs["corrupt"], "--trust")
    assert out.returncode == 3
    assert "inconsistency" in out.stderr


def test_quotient_writes_effective_doc(docs, tmp_path, run_cli):
    out_path = tmp_path / "q.json"
    out = run_cli("--json", "quotient", docs["z2"], "--out", str(out_path))
    assert out.returncode == 0
    saved = json.loads(out_path.read_text())
    assert saved["arrows"] == 1


def test_rigidity(docs, run_cli):
    out = run_cli("--json", "rigidity", "--hom", docs["collapse"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["data"]["quotient_arrows"] == 1


def test_aut_counts(docs, run_cli):
    out = run_cli("--json", "aut", docs["r2"], "--phases", "2")
    assert out.returncode == 0
    data = json.loads(out.stdout)["data"]
    assert data["automorphisms"] == 2
    assert data["cocycles_mu2"] == 2
    assert data["semidirect_order"] == 4


def test_faut_reports_pair(docs, run_cli):
    out = run_cli("--json", "faut", docs["r2"], "--hom", docs["sign"])
    assert out.returncode == 0
    data = json.loads(out.stdout)["data"]
    assert data["fixes_diagonal"] is True
    assert data["arrow_map"] == [0, 1, 2, 3]


def test_faut_rejects_mismatched_groupoid(docs, run_cli):
    assert run_cli("faut", docs["z2"], "--hom", docs["sign"]).returncode == 2


def test_boolean_ids_exit_one(run_cli):
    doc = ('{"arrows": true, "units": [0], "src": [0], "rng": [0], '
           '"compose": [[0, 0, 0]], "inv": [0]}')
    out = run_cli("validate", "-", input=doc)
    assert out.returncode == 1
    assert "'arrows'" in out.stderr and "Traceback" not in out.stderr


def test_cap_refusal_exits_two(docs, run_cli):
    assert run_cli("bisections", docs["r2"], "--cap", "2").returncode == 2


# the arrow cap comes from arguments alone: a value exported under the name
# of the variable that once set it must change nothing
OLD_CAP_VARIABLE = "ETALE_KIT_CAP"


@pytest.mark.parametrize("value", ["2", "abc"])
def test_cap_variable_is_ignored(docs, run_cli, value):
    plain = run_cli("--json", "bisections", docs["r2"])
    out = run_cli("--json", "bisections", docs["r2"], env={OLD_CAP_VARIABLE: value})
    assert plain.returncode == out.returncode == 0
    assert out.stdout == plain.stdout and out.stderr == ""


@pytest.mark.parametrize("value", ["", "0", "5", " 7 ", "abc", "-1", "2.5"])
def test_enum_cap_ignores_environment(monkeypatch, value):
    monkeypatch.setenv(OLD_CAP_VARIABLE, value)
    assert enum_cap(3) == 3
    assert enum_cap() == DEFAULT_ENUM_CAP == 16


@pytest.mark.parametrize("command", ["aut", "bisections", "analyze"])
def test_negative_cap_exits_one(docs, run_cli, command):
    out = run_cli(command, docs["r2"], "--cap", "-1")
    assert out.returncode == 1
    assert out.stdout == ""
    assert "the cap must be a non-negative integer, got -1" in out.stderr
    assert "Traceback" not in out.stderr


def test_negative_cap_is_refused_in_process():
    with pytest.raises(StructuralError, match="got -1"):
        enumerate_automorphisms(pair_groupoid(2), cap=-1)


@pytest.mark.parametrize("option, value, message", [
    ("--cap", "2.5", "the cap must be a non-negative integer, got '2.5'"),
    ("--cap", "abc", "the cap must be a non-negative integer, got 'abc'"),
    ("--phases", "2.5", "root-of-unity order must be a positive integer, got '2.5'"),
    ("--phases", "0", "root-of-unity order must be a positive integer, got 0"),
])
def test_a_count_option_that_is_not_a_count_exits_one(docs, option, value, message, capsys):
    assert cli.main(["aut", docs["r2"], option, value]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_selftest_json_is_deterministic(run_cli):
    first = run_cli("--json", "selftest", "--seed", "7", "--cap", "9")
    second = run_cli("--json", "selftest", "--seed", "7", "--cap", "9")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["ok"]
    assert report["timing_ms"] is None


@pytest.mark.parametrize("seed", ["x", "2.5", ""])
def test_selftest_seed_that_is_not_an_integer_exits_one(seed, capsys):
    assert cli.main(["selftest", "--seed", seed, "--cap", "4"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --seed must be an integer, got {seed!r}\n"


def test_selftest_negative_seed_runs_as_its_absolute_value(run_cli):
    # `random.Random` seeds with |seed|, and so does the numpy stream
    negative = run_cli("--json", "selftest", "--seed", "-7", "--cap", "4")
    positive = run_cli("--json", "selftest", "--seed", "7", "--cap", "4")
    assert negative.returncode == positive.returncode == 0
    assert negative.stdout == positive.stdout.replace('"seed":7', '"seed":-7')


@pytest.mark.parametrize("cap, code, message", [
    ("0", 2, "refused: selftest: the cap 0 admits no corpus groupoid"),
    # a negative cap is a configuration error, as for every other command
    ("-1", 1, "error: the cap must be a non-negative integer, got -1"),
], ids=["0", "-1"])
def test_selftest_refuses_a_cap_that_admits_no_groupoid(cap, code, message, capsys):
    assert cli.main(["selftest", "--cap", cap]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == message


def test_table_output_mentions_checks(docs, run_cli):
    out = run_cli("validate", docs["r2"])
    assert out.returncode == 0
    assert "[pass] axioms" in out.stdout


def test_documents_can_arrive_on_stdin(docs, run_cli):
    payload = Path(docs["r2"]).read_text()
    out = run_cli("--json", "validate", "-", input=payload)
    assert out.returncode == 0
    assert json.loads(out.stdout)["ok"]


_POINT = kio.groupoid_to_doc(pair_groupoid(1))
_HOM = {"source": _POINT, "target": _POINT, "rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}


@pytest.mark.parametrize("doc, message", [
    ([_HOM], "homomorphism document must be an object"),
    ({key: value for key, value in _HOM.items() if key != "target"},
     "homomorphism document is missing 'target'"),
    ({**_HOM, "entries": [[1.0, 0.0]] * 2}, "entries must hold rows*cols [re, im] pairs"),
    ({**_HOM, "source": 5}, "groupoid document must be an object"),
], ids=["not an object", "no target", "short entries", "groupoid not an object"])
def test_malformed_hom_documents_exit_one(run_cli, doc, message):
    assert run_cli("--json", "decompose", "--hom", "-", input=json.dumps(_HOM)).returncode == 0
    out = run_cli("--json", "decompose", "--hom", "-", input=json.dumps(doc))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == f"error: {message}\n"


def test_cli_runs_as_a_module(docs):
    """The one child process: `python -m etale_kit.cli` exits with the code
    of `cli.main` and prints its report."""
    out = subprocess.run(
        [sys.executable, "-m", "etale_kit.cli", "--json", "validate", docs["bad"]],
        capture_output=True, text=True)
    assert out.returncode == 2
    assert json.loads(out.stdout)["data"]["violations"]


@pytest.fixture(scope="module")
def discrete16(tmp_path_factory):
    """16 points and no other arrows: within the cap, but 16! automorphisms."""
    path = tmp_path_factory.mktemp("budget") / "discrete16.json"
    path.write_text(kio.canonical_json(kio.groupoid_to_doc(group_bundle([1] * 16))))
    return str(path)


@pytest.mark.parametrize("command", ["aut"])
def test_search_budget_refusal_exits_two(discrete16, command, run_cli):
    # 16! automorphisms of 16 entries each, charged before any is built
    out = run_cli(command, discrete16)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("refused: homomorphism search needs 334764638208000 mapping entries, "
                          "over the budget of 2000000\n")


@pytest.fixture(scope="module")
def pair35(tmp_path_factory):
    """pair(35): its 1,225 arrows pass an arrow cap of 2000."""
    path = tmp_path_factory.mktemp("budget") / "pair35.json"
    path.write_text(kio.canonical_json(kio.groupoid_to_doc(pair_groupoid(35))))
    return str(path)


def test_raised_cap_refusal_ends_at_the_check_budget(pair35, run_cli):
    # the 35! automorphisms are refused by their count, before any is built
    out = run_cli("aut", pair35, "--cap", "2000")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("refused: homomorphism search needs 12658106258823027538841647888465920000000000 mapping "
                          "entries, over the budget of 2000000\n")


def test_analyze_counts_automorphisms_past_the_budget(discrete16, pair35, run_cli):
    # `analyze` reads the count the budget is charged by, and builds none
    for argv, count in [((discrete16,), 20922789888000), ((pair35, "--cap", "2000"), 10333147966386144929666651337523200000000)]:
        out = run_cli("--json", "analyze", *argv)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["data"]["automorphisms"] == count


def test_dense_check_refusal_exits_two(twisted_pair16, tmp_path, run_cli):
    # all ones on pair(16) needs 4096 * 256 * 256 products
    _, built = twisted_pair16
    m = np.ones_like(built.entries)
    path = tmp_path / "all_ones.json"
    path.write_text(kio.canonical_json(
        kio.hom_to_doc(HomMatrix(built.source, built.target, m))))
    out = run_cli("decompose", "--hom", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("refused: the multiplicativity check of a "
                                 "256x256 matrix needs 268435456 products")
    assert len(out.stderr.splitlines()) == 1


def test_phase_order_counts_against_the_cap(docs, tmp_path, run_cli):
    pair4 = tmp_path / "pair4.json"
    pair4.write_text(kio.canonical_json(kio.groupoid_to_doc(pair_groupoid(4))))
    out = run_cli("aut", str(pair4), "--phases", "1000")
    assert out.returncode == 2
    assert "cocycle enumeration into Z/1000" in out.stderr
    assert run_cli("aut", docs["r2"], "--phases", "17").returncode == 2
    out = run_cli("--json", "aut", docs["r2"], "--phases", "17", "--cap", "17")
    assert out.returncode == 0
    assert json.loads(out.stdout)["data"]["cocycles_mu17"] == 17


def test_decompose_of_an_overflowing_matrix_exits_two_cleanly(tmp_path, run_cli):
    r1 = pair_groupoid(1)
    path = tmp_path / "huge.json"
    path.write_text(kio.canonical_json(kio.hom_to_doc(HomMatrix(r1, r1, [[1e200]]))))
    out = run_cli("decompose", "--hom", str(path))
    assert out.returncode == 2
    assert out.stderr.splitlines() == [
        "hypothesis failure: matrix fails validation: is_star_hom"]


def test_decompose_keeps_a_twist_near_a_root_of_unity(tmp_path, run_cli):
    # -exp(1e-7 i) is 1e-7 from -1: snapping it would fail the rebuild
    r2 = pair_groupoid(2)
    z = -np.exp(1e-7j)
    path = tmp_path / "near_root.json"
    path.write_text(kio.canonical_json(kio.hom_to_doc(
        HomMatrix(r2, r2, np.diag([1, 1, z, np.conj(z)])))))
    out = run_cli("--json", "decompose", "--hom", str(path))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["data"]["invariant_units"] == [0, 1]


def test_refusal_says_refused_once(tmp_path, run_cli):
    pair4 = tmp_path / "pair4.json"
    pair4.write_text(kio.canonical_json(kio.groupoid_to_doc(pair_groupoid(4))))
    out = run_cli("aut", str(pair4), "--phases", "1000")
    assert out.returncode == 2
    assert out.stderr.count("refused") == 1
    assert out.stderr.splitlines() == [
        "refused: cocycle enumeration into Z/1000: 1000 arrows exceeds the cap 16"]


def test_deeply_nested_document_exits_one(tmp_path, run_cli):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    out = run_cli("validate", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert "nested too deeply" in out.stderr
    assert len(out.stderr.splitlines()) == 1


def test_document_that_is_not_utf8_exits_one(tmp_path, run_cli):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"arrows": 1, "name": "é"}'.encode("latin-1"))
    out = run_cli("analyze", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert "not UTF-8" in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("content, message", [
    (b"[" * 100_000, "nested too deeply"),
    ('{"arrows": 1, "name": "\u00e9"}'.encode("latin-1"), "not UTF-8"),
], ids=["nested", "latin-1"])
def test_groupoid_named_by_a_hom_document_is_read_as_the_cli_reads(
        tmp_path, run_cli, content, message):
    # the groupoid files a hom document names go through the same reader
    (tmp_path / "source.json").write_bytes(content)
    doc = kio.hom_to_doc(quotient_hom(pair_groupoid(1)))
    doc["source"] = "source.json"
    path = tmp_path / "hom.json"
    path.write_text(kio.canonical_json(doc))
    out = run_cli("decompose", "--hom", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert message in out.stderr
    assert len(out.stderr.splitlines()) == 1


def test_empty_groupoid_runs_through_every_groupoid_command(tmp_path, run_cli):
    path = tmp_path / "empty.json"
    path.write_text(kio.canonical_json(kio.groupoid_to_doc(pair_groupoid(0))))
    data = {}
    for command in ("validate", "analyze", "bisections", "quotient", "aut"):
        out = run_cli("--json", command, str(path))
        assert out.returncode == 0, (command, out.stderr)
        data[command] = json.loads(out.stdout)["data"]
    assert data["validate"]["violations"] == []
    assert data["analyze"]["arrows"] == 0 and data["analyze"]["automorphisms"] == 1
    assert data["bisections"]["count"] == 1 and data["bisections"]["bisections"] == [[]]
    assert data["quotient"]["groupoid"]["arrows"] == 0
    assert data["aut"]["automorphisms"] == 1 and data["aut"]["cocycles_mu2"] == 1


def test_a_non_monomial_automorphism_of_a_group_is_refused(tmp_path, run_cli):
    # C*(Z/4) is C^4 through the Fourier matrix F[m][k] = i^(mk); swapping
    # characters 1 and 2 there gives a unital *-automorphism T = F^-1 P F
    # that is not monomial, so it has no (units, arrow map, twist) triple.
    # Decomposition needs an effective target, and Z/4 is not one.
    z4 = cyclic_groupoid(4)
    fourier = np.array([[1j ** (m * k) for k in range(4)] for m in range(4)])
    swap = np.eye(4)[[0, 2, 1, 3]]
    hm = HomMatrix(z4, z4, np.linalg.inv(fourier) @ swap @ fourier)
    assert validate_hom(hm).ok
    hom = tmp_path / "t.json"
    hom.write_text(kio.canonical_json(kio.hom_to_doc(hm)))
    group = tmp_path / "z4.json"
    group.write_text(kio.canonical_json(kio.groupoid_to_doc(z4)))
    for args in (["decompose", "--hom", str(hom)], ["rigidity", "--hom", str(hom)],
                 ["faut", str(group), "--hom", str(hom)]):
        out = run_cli(*args)
        assert out.returncode == 2, args
        assert "requires an effective target" in out.stderr, args
        assert out.stdout == "", args


# records the BLAS thread variables as they stand when numpy is first imported
_BLAS_SPY = r"""
import json, os, sys
from etale_kit.cli import BLAS_THREAD_VARS, main
seen = {}

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((var, os.environ.get(var)) for var in BLAS_THREAD_VARS)

assert "numpy" not in sys.modules
sys.meta_path.insert(0, Spy())
code = main(sys.argv[1:])
print(json.dumps([code, seen]), file=sys.stderr)
"""


def test_cli_sets_blas_threads_to_one_unless_the_caller_did(docs):
    clean = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    for preset in ({}, {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "2"}):
        child = subprocess.run(
            [sys.executable, "-c", _BLAS_SPY, "norm", docs["r2"], "--element", docs["ones"]],
            env={**clean, **preset}, capture_output=True, text=True, timeout=60)
        code, seen = json.loads(child.stderr.splitlines()[-1])
        assert code == 0
        assert seen == {var: preset.get(var, "1") for var in cli.BLAS_THREAD_VARS}
