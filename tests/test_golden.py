"""Every command line in `tests/golden/cli.json` still gives its recorded exit
code, JSON report and stderr.  `tests/golden/regen.py` rewrites the file."""

import difflib
import importlib.util
import json
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _same(want, got, key=None) -> bool:
    """Equal JSON values, but for the reduced norm: printed from an SVD, which
    another BLAS may change in the last bits, it may differ by 1e-12 relative."""
    if key == "reduced_norm" and isinstance(want, str) and isinstance(got, str):
        return want == got or math.isclose(float(want), float(got), rel_tol=1e-12)
    if type(want) is not type(got):
        return False
    if isinstance(want, dict):
        return want.keys() == got.keys() and all(_same(v, got[k], k) for k, v in want.items())
    if isinstance(want, list):
        return len(want) == len(got) and all(map(_same, want, got))
    return want == got


def _pretty(entry: dict) -> list[str]:
    return json.dumps(entry, sort_keys=True, indent=1).splitlines()


def test_cli_outputs_match_the_golden_file(tmp_path):
    golden = json.loads(regen.GOLDEN.read_text())
    docs = golden["documents"]
    regen.write_documents(docs, tmp_path)
    failures = []
    for want in golden["entries"]:
        try:
            got = regen.run(want["argv"], tmp_path)
        except Exception as exc:  # a crash is reported with the other mismatches
            got = {"argv": want["argv"], "raised": repr(exc)}
        if not _same(want, got):
            used = {name: docs[name] for name in want["argv"] if name in docs}
            diff = difflib.unified_diff(_pretty(want), _pretty(got), "golden", "now",
                                        lineterm="")
            failures.append(f"argv: {want['argv']}\ndocuments: {json.dumps(used)}\n"
                            + "\n".join(diff))
    assert [e["argv"] for e in golden["entries"]] == regen.command_lines()
    assert not failures, f"{len(failures)} mismatches\n\n" + "\n\n".join(failures)
