"""JSON interchange for groupoids, algebra elements, and homomorphism matrices.

numpy and the numpy-backed classes are imported by the functions that build
elements and matrices, so that reading a groupoid document does not load
numpy."""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import chain
from pathlib import Path

from .errors import HypothesisError, StructuralError
from .groupoid import FiniteGroupoid, validation_report

__all__ = [
    "canonical_json",
    "digest",
    "read_json",
    "groupoid_to_doc",
    "groupoid_from_doc",
    "load_groupoid",
    "element_from_doc",
    "hom_to_doc",
    "hom_from_doc",
    "load_hom",
]


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def read_json(path: str | Path):
    """The JSON document at a path, or on stdin when the path is the string
    '-'.  Every document is read here, as UTF-8; one nested too deeply to
    parse, or not UTF-8, is a `StructuralError`."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise StructuralError(f"{path}: JSON nested too deeply to parse") from None
    except UnicodeDecodeError as exc:
        raise StructuralError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# -- groupoid documents --------------------------------------------------------


def groupoid_to_doc(g: FiniteGroupoid) -> dict:
    return {
        "arrows": g.arrow_count,
        "units": list(g.units),
        "src": list(g.src),
        "rng": list(g.rng),
        "compose": [[a, b, c] for (a, b), c in g.compose.items()],
        "inv": list(g.inv),
    }


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise StructuralError(f"groupoid document is missing {key!r}")
    value = doc[key]
    # bool subclasses int, but true/false are not counts
    if not isinstance(value, kind) or isinstance(value, bool):
        raise StructuralError(f"groupoid field {key!r} has the wrong type")
    return value


def _require_ids(doc: dict, key: str) -> list:
    ids = _require(doc, key, list)
    # one scan of the element types; a boolean's type is bool, not int
    if not set(map(type, ids)) <= {int}:
        raise StructuralError(f"groupoid field {key!r} must hold integer ids")
    return ids


def groupoid_from_doc(doc: dict, *, validate: bool = True) -> FiniteGroupoid:
    if not isinstance(doc, dict):
        raise StructuralError("groupoid document must be an object")
    n = _require(doc, "arrows", int)
    units = _require_ids(doc, "units")
    src = _require_ids(doc, "src")
    rng = _require_ids(doc, "rng")
    inv = _require_ids(doc, "inv")
    triples = _require(doc, "compose", list)
    if not (set(map(type, triples)) <= {list} and set(map(len, triples)) <= {3}
            and set(map(type, chain.from_iterable(triples))) <= {int}):
        raise StructuralError("compose entries must be [a, b, ab] id triples")
    g = FiniteGroupoid(n, units, src, rng, triples, inv)
    if validate:
        report = validation_report(g, stop_early=True)
        if not report.ok:
            v = report.violations[0]
            raise HypothesisError(
                f"groupoid document violates {v.axiom}: {v.detail}")
    return g


def load_groupoid(path: str | Path, *, validate: bool = True) -> FiniteGroupoid:
    return groupoid_from_doc(read_json(path), validate=validate)


# -- algebra elements ------------------------------------------------------------


def _complex_pairs(items: list, what: str):
    """The [re, im] pairs of numbers as a complex array."""
    if not (set(map(type, items)) <= {list} and set(map(len, items)) <= {2}
            and set(map(type, chain.from_iterable(items))) <= {int, float}):
        raise StructuralError(f"{what} must be [re, im] pairs of numbers")
    import numpy as np
    try:
        pairs = np.fromiter(chain.from_iterable(items), float, count=2 * len(items))
    except OverflowError:  # an integer beyond the float range
        raise StructuralError(f"{what} must be finite") from None
    return pairs.view(complex)


def element_from_doc(doc: dict, g: FiniteGroupoid) -> AlgebraElement:
    if not (isinstance(doc, dict) and isinstance(doc.get("coeff"), list)):
        raise StructuralError("element document must be an object with a 'coeff' list")
    from .cstar import AlgebraElement
    return AlgebraElement(g, _complex_pairs(doc["coeff"], "coeff entries"))


# -- homomorphism matrices --------------------------------------------------------


def hom_to_doc(hm: HomMatrix) -> dict:
    flat = [[float(z.real), float(z.imag)] for z in hm.entries.reshape(-1)]
    return {
        "source": groupoid_to_doc(hm.source),
        "target": groupoid_to_doc(hm.target),
        "rows": hm.target.arrow_count,
        "cols": hm.source.arrow_count,
        "entries": flat,
    }


def _resolve_groupoid(ref, base: Path | None) -> FiniteGroupoid:
    if isinstance(ref, str):
        path = Path(ref)
        if base is not None and not path.is_absolute():
            path = base / path
        return load_groupoid(path)
    return groupoid_from_doc(ref)


def hom_from_doc(doc: dict, *, base: Path | None = None) -> HomMatrix:
    if not isinstance(doc, dict):
        raise StructuralError("homomorphism document must be an object")
    for key in ("source", "target", "rows", "cols", "entries"):
        if key not in doc:
            raise StructuralError(f"homomorphism document is missing {key!r}")
    source = _resolve_groupoid(doc["source"], base)
    target = _resolve_groupoid(doc["target"], base)
    rows, cols = doc["rows"], doc["cols"]
    if not {type(rows), type(cols)} <= {int}:
        raise StructuralError("rows and cols must be integers")
    if rows != target.arrow_count or cols != source.arrow_count:
        raise StructuralError("declared shape does not match the groupoids")
    flat = doc["entries"]
    if not isinstance(flat, list) or len(flat) != rows * cols:
        raise StructuralError("entries must hold rows*cols [re, im] pairs")
    from .decomposition import HomMatrix
    # reshape, not nested lists, keeps the (0, cols) shape of an empty target
    entries = _complex_pairs(flat, "entries").reshape(rows, cols)
    return HomMatrix(source, target, entries)


def load_hom(path: str | Path) -> HomMatrix:
    """A homomorphism document; groupoids it names by a relative path are
    read from the document's directory, or the working one for stdin."""
    base = None if path == "-" else Path(path).parent
    return hom_from_doc(read_json(path), base=base)

