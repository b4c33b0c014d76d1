"""The command-line surface: every command and every exit code."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etale_kit import io as kio
from etale_kit.cstar import AlgebraElement
from etale_kit.decomposition import HomMatrix, quotient_hom
from etale_kit.errors import CAP_ENV_VAR, ConfigError, enum_cap
from etale_kit.families import cyclic_groupoid, pair_groupoid


def run_cli(*args, env=None, input=None):
    """Run the CLI in a subprocess; `env` entries override the inherited environment.

    Inheriting the environment keeps the interpreter's import path, so the
    package is found whether it is installed or on PYTHONPATH.
    """
    return subprocess.run(
        [sys.executable, "-m", "etale_kit.cli", *args],
        capture_output=True, text=True, input=input,
        env={**os.environ, **(env or {})})


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
        "r2": write("r2.json", kio.groupoid_to_doc(r2, meta={"name": "pair(2)"})),
        "z2": write("z2.json", kio.groupoid_to_doc(z2)),
        "ones": write("ones.json", kio.element_to_doc(
            AlgebraElement(r2, np.ones(4)))),
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


def test_validate_pass(docs):
    out = run_cli("--json", "validate", docs["r2"])
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["ok"] and report["data"]["violations"] == []


def test_validate_failure_exits_two(docs):
    out = run_cli("--json", "validate", docs["bad"])
    assert out.returncode == 2
    report = json.loads(out.stdout)
    assert not report["ok"]
    assert report["data"]["violations"]


def test_parse_error_exits_one(docs):
    assert run_cli("validate", docs["broken"]).returncode == 1
    assert run_cli("validate", "no_such_file.json").returncode == 1


def test_analyze(docs):
    out = run_cli("--json", "analyze", docs["r2"])
    assert out.returncode == 0
    data = json.loads(out.stdout)["data"]
    assert data["arrows"] == 4 and data["effective"] is True
    assert data["automorphisms"] == 2


def test_bisections_count(docs):
    out = run_cli("--json", "bisections", docs["r2"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["data"]["count"] == 7


def test_norm_prints_twelve_digits(docs):
    out = run_cli("--json", "norm", docs["r2"], "--element", docs["ones"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["data"]["reduced_norm"] == "2"


def test_non_numeric_element_exits_one(docs, tmp_path):
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"coeff": [["a", 0]] + [[0, 0]] * 3}))
    out = run_cli("norm", docs["r2"], "--element", str(element))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert "pairs of numbers" in out.stderr


def test_decompose_success(docs):
    out = run_cli("--json", "decompose", "--hom", docs["sign"])
    assert out.returncode == 0
    data = json.loads(out.stdout)["data"]
    assert data["invariant_units"] == [0, 1]
    assert data["arrow_map"] == [0, 1, 2, 3]
    assert data["twist"][2].startswith("-1")


def test_decompose_hypothesis_failure_exits_two(docs):
    assert run_cli("decompose", "--hom", docs["ident_z2"]).returncode == 2
    assert run_cli("decompose", "--hom", docs["corrupt"]).returncode == 2


def test_decompose_corruption_exits_three(docs):
    out = run_cli("decompose", "--hom", docs["corrupt"], "--trust")
    assert out.returncode == 3
    assert "inconsistency" in out.stderr


def test_quotient_writes_effective_doc(docs, tmp_path):
    out_path = tmp_path / "q.json"
    out = run_cli("--json", "quotient", docs["z2"], "--out", str(out_path))
    assert out.returncode == 0
    saved = json.loads(out_path.read_text())
    assert saved["arrows"] == 1


def test_rigidity(docs):
    out = run_cli("--json", "rigidity", "--hom", docs["collapse"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["data"]["quotient_arrows"] == 1


def test_aut_counts(docs):
    out = run_cli("--json", "aut", docs["r2"], "--phases", "2")
    assert out.returncode == 0
    data = json.loads(out.stdout)["data"]
    assert data["automorphisms"] == 2
    assert data["cocycles_mu2"] == 2
    assert data["semidirect_order"] == 4


def test_faut_reports_pair(docs):
    out = run_cli("--json", "faut", docs["r2"], "--hom", docs["sign"])
    assert out.returncode == 0
    data = json.loads(out.stdout)["data"]
    assert data["fixes_diagonal"] is True
    assert data["arrow_map"] == [0, 1, 2, 3]


def test_faut_rejects_mismatched_groupoid(docs):
    assert run_cli("faut", docs["z2"], "--hom", docs["sign"]).returncode == 2


def test_boolean_ids_exit_one():
    doc = ('{"arrows": true, "units": [0], "src": [0], "rng": [0], '
           '"compose": [[0, 0, 0]], "inv": [0]}')
    out = run_cli("validate", "-", input=doc)
    assert out.returncode == 1
    assert "'arrows'" in out.stderr and "Traceback" not in out.stderr


def test_cap_refusal_exits_two(docs):
    assert run_cli("bisections", docs["r2"], "--cap", "2").returncode == 2


def test_cap_env_override(docs):
    out = run_cli("bisections", docs["r2"], env={CAP_ENV_VAR: "2"})
    assert out.returncode == 2
    assert "cap" in out.stderr
    assert "exceeds the cap 2" in out.stderr


def test_malformed_cap_env_exits_one(docs):
    out = run_cli("bisections", docs["r2"], env={CAP_ENV_VAR: "abc"})
    assert out.returncode == 1
    assert CAP_ENV_VAR in out.stderr and "'abc'" in out.stderr
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("value, expected", [
    ("", 16), ("0", 0), ("5", 5), (" 7 ", 7),
    ("abc", None), ("-1", None), ("2.5", None),
])
def test_enum_cap_reads_environment(monkeypatch, value, expected):
    monkeypatch.setenv(CAP_ENV_VAR, value)
    assert enum_cap(3) == 3
    if expected is None:
        with pytest.raises(ConfigError, match=CAP_ENV_VAR):
            enum_cap()
    else:
        assert enum_cap() == expected


def test_selftest_json_is_deterministic():
    first = run_cli("--json", "selftest", "--seed", "7", "--cap", "9")
    second = run_cli("--json", "selftest", "--seed", "7", "--cap", "9")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["ok"]
    assert report["timing_ms"] is None


def test_table_output_mentions_checks(docs):
    out = run_cli("validate", docs["r2"])
    assert out.returncode == 0
    assert "[pass] axioms" in out.stdout


def test_documents_can_arrive_on_stdin(docs):
    payload = Path(docs["r2"]).read_text()
    out = run_cli("--json", "validate", "-", input=payload)
    assert out.returncode == 0
    assert json.loads(out.stdout)["ok"]
