"""Rewrite `cli.json`, the golden outputs of the etale-kit command line.

For each command line over a fixed set of documents, `cli.json` holds the
exit code, the JSON report on stdout (null when stdout is empty) and the text
on stderr.  The documents are stored in the file too: the standard corpus,
one element per corpus member, the documents of the CLI tests and a few
malformed ones.  `tests/test_golden.py` runs every command line again and
compares.

Run from the root of a checkout, after a change that alters an output on
purpose, and list each changed entry in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen.py

Every command runs in process, with the documents written under their names
to a temporary working directory, so no path reaches an output.  The file is
canonical JSON with one document or entry per line, so a regeneration at an
unchanged tree leaves it byte-identical."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from etale_kit import cli
from etale_kit import io as kio
from etale_kit.errors import CAP_ENV_VAR
from etale_kit.families import cyclic_groupoid, pair_groupoid, standard_corpus
from etale_kit.groupoid import quotient_by_isotropy

GOLDEN = Path(__file__).with_name("cli.json")


def _matrix_doc(source, target, rows) -> dict:
    """A homomorphism document with real entries, written out by rows."""
    return {"source": kio.groupoid_to_doc(source), "target": kio.groupoid_to_doc(target),
            "rows": target.arrow_count, "cols": source.arrow_count,
            "entries": [[float(x), 0.0] for row in rows for x in row]}


def _diagonal(values) -> list[list[int]]:
    return [[v if i == j else 0 for j in range(len(values))]
            for i, v in enumerate(values)]


def documents() -> dict:
    """Each document by file name; a string is written as it stands."""
    docs = {}
    for name, g in standard_corpus():
        docs[f"{name}.json"] = kio.groupoid_to_doc(g)
        docs[f"{name}.element.json"] = {
            "coeff": [[a + 1, 1 - a % 3] for a in g.arrows()]}
    r2, z2 = pair_groupoid(2), cyclic_groupoid(2)
    z2_quotient = quotient_by_isotropy(z2)[0]
    corrupt = _diagonal([1, 1, 1, 1])
    corrupt[3][2] = 1
    bad = kio.groupoid_to_doc(r2)
    bad["src"] = [1, 1, 1, 0]
    docs.update({
        "r2.json": kio.groupoid_to_doc(r2, meta={"name": "pair(2)"}),
        "z2.json": kio.groupoid_to_doc(z2),
        "ones.json": {"coeff": [[1.0, 0.0]] * 4},
        "sign.json": _matrix_doc(r2, r2, _diagonal([1, 1, -1, -1])),
        "collapse.json": _matrix_doc(z2, z2_quotient, [[1, 1]]),
        "ident_z2.json": _matrix_doc(z2, z2, _diagonal([1, 1])),
        "corrupt.json": _matrix_doc(r2, r2, corrupt),
        "bad.json": bad,
        "broken.json": "{not json",
        "bool_arrows.json": {"arrows": True, "units": [0], "src": [0], "rng": [0],
                             "compose": [[0, 0, 0]], "inv": [0]},
        "text_element.json": {"coeff": [["a", 0]] + [[0, 0]] * 3},
    })
    return docs


def command_lines() -> list[list[str]]:
    """Every command line the file holds, in its order."""
    lines = []
    for name, _ in standard_corpus():
        doc = f"{name}.json"
        lines += [["validate", doc], ["analyze", doc], ["bisections", doc],
                  ["aut", doc], ["aut", doc, "--phases", "3"], ["quotient", doc],
                  ["norm", doc, "--element", f"{name}.element.json"]]
    lines += [
        ["validate", "r2.json"],
        ["norm", "r2.json", "--element", "ones.json"],
        ["decompose", "--hom", "sign.json"],
        ["decompose", "--hom", "collapse.json"],
        ["rigidity", "--hom", "collapse.json"],
        ["rigidity", "--hom", "sign.json"],
        ["faut", "r2.json", "--hom", "sign.json"],
        # refused with exit 1: unreadable or malformed input, a negative cap
        ["validate", "broken.json"],
        ["validate", "missing.json"],
        ["validate", "bool_arrows.json"],
        ["norm", "r2.json", "--element", "text_element.json"],
        ["aut", "r2.json", "--cap", "-1"],
        # refused with exit 2: failed axioms or hypotheses, caps
        ["validate", "bad.json"],
        ["analyze", "bad.json"],
        ["bisections", "r2.json", "--cap", "2"],
        ["aut", "r2.json", "--phases", "17"],
        ["decompose", "--hom", "ident_z2.json"],
        ["decompose", "--hom", "corrupt.json"],
        ["rigidity", "--hom", "ident_z2.json"],
        ["faut", "z2.json", "--hom", "sign.json"],
        # refused with exit 3: corrupted input past a skipped validation
        ["decompose", "--hom", "corrupt.json", "--trust"],
    ]
    lines += [["selftest", "--seed", str(seed), "--cap", "16"] for seed in (7, 8, 9)]
    return [["--json", *line] for line in lines]


def write_documents(docs: dict, root: Path) -> None:
    for name, doc in docs.items():
        text = doc if isinstance(doc, str) else kio.canonical_json(doc) + "\n"
        (root / name).write_text(text)


def run(argv: list[str], root: Path) -> dict:
    """The entry of one command line, run in process in `root` under the
    default cap."""
    out, err = io.StringIO(), io.StringIO()
    cwd, cap = os.getcwd(), os.environ.pop(CAP_ENV_VAR, None)
    try:
        os.chdir(root)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
        if cap is not None:
            os.environ[CAP_ENV_VAR] = cap
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None and kio.canonical_json(report) + "\n" != out.getvalue():
        raise ValueError(f"{argv}: stdout is not one canonical JSON report")
    return {"argv": argv, "exit": code, "stdout": report, "stderr": err.getvalue()}


def render(docs: dict, entries: list[dict]) -> str:
    """The file's text: canonical JSON, one document or entry per line."""
    lines = [f" {json.dumps(name)}:{kio.canonical_json(doc)}" for name, doc in docs.items()]
    return ('{\n"documents":{\n' + ",\n".join(lines) + '\n},\n"entries":[\n'
            + ",\n".join(kio.canonical_json(e) for e in entries) + "\n]}\n")


def main() -> int:
    docs = documents()
    with tempfile.TemporaryDirectory() as root:
        write_documents(docs, Path(root))
        entries = [run(argv, Path(root)) for argv in command_lines()]
    GOLDEN.write_text(render(docs, entries))
    print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
