"""JSON interchange for groupoids, algebra elements, and homomorphism matrices.

The numpy-backed classes are imported by the two functions that build them,
so that reading a groupoid document does not load numpy."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import HypothesisError, StructuralError
from .groupoid import FiniteGroupoid, validation_report
from .inverse_semigroup import Bisection, GermGroupoid

__all__ = [
    "canonical_json",
    "digest",
    "groupoid_to_doc",
    "groupoid_from_doc",
    "load_groupoid",
    "element_to_doc",
    "element_from_doc",
    "hom_to_doc",
    "hom_from_doc",
    "load_hom",
    "bisection_to_doc",
    "germ_to_doc",
]


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# -- groupoid documents --------------------------------------------------------


def groupoid_to_doc(g: FiniteGroupoid, meta: dict | None = None) -> dict:
    doc = {
        "arrows": g.arrow_count,
        "units": list(g.units),
        "src": list(g.src),
        "rng": list(g.rng),
        "compose": [[a, b, c] for (a, b), c in g.compose.items()],
        "inv": list(g.inv),
    }
    if meta:
        doc["meta"] = meta
    return doc


def _is_int(value) -> bool:
    """A JSON integer: booleans, floats and strings are not ids or counts."""
    return isinstance(value, int) and not isinstance(value, bool)


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
    if not all(_is_int(v) for v in ids):
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
    compose_triples = _require(doc, "compose", list)
    triples = []
    for item in compose_triples:
        if not (isinstance(item, list) and len(item) == 3
                and all(_is_int(v) for v in item)):
            raise StructuralError("compose entries must be [a, b, ab] id triples")
        triples.append(tuple(item))
    g = FiniteGroupoid(n, units, src, rng, triples, inv)
    if validate:
        report = validation_report(g, stop_early=True)
        if not report.ok:
            v = report.violations[0]
            raise HypothesisError(
                f"groupoid document violates {v.axiom}: {v.detail}")
    return g


def load_groupoid(path: str | Path) -> FiniteGroupoid:
    with open(path) as fh:
        doc = json.load(fh)
    return groupoid_from_doc(doc)


# -- algebra elements ------------------------------------------------------------


def element_to_doc(f: AlgebraElement) -> dict:
    return {"coeff": [[float(z.real), float(z.imag)] for z in f.coeff]}


def _is_number(value) -> bool:
    """A JSON number: booleans and strings are not coefficients."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_pairs(items: list, what: str) -> list[complex]:
    values = []
    for item in items:
        if not (isinstance(item, list) and len(item) == 2
                and _is_number(item[0]) and _is_number(item[1])):
            raise StructuralError(f"{what} must be [re, im] pairs of numbers")
        try:
            values.append(complex(item[0], item[1]))
        except OverflowError:  # an integer beyond the float range
            raise StructuralError(f"{what} must be finite") from None
    return values


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
    if not (_is_int(rows) and _is_int(cols)):
        raise StructuralError("rows and cols must be integers")
    if rows != target.arrow_count or cols != source.arrow_count:
        raise StructuralError("declared shape does not match the groupoids")
    flat = doc["entries"]
    if not isinstance(flat, list) or len(flat) != rows * cols:
        raise StructuralError("entries must hold rows*cols [re, im] pairs")
    values = _complex_pairs(flat, "entries")
    import numpy as np
    from .decomposition import HomMatrix
    # reshape, not nested lists, keeps the (0, cols) shape of an empty target
    entries = np.array(values, dtype=complex).reshape(rows, cols)
    return HomMatrix(source, target, entries)


def load_hom(path: str | Path) -> HomMatrix:
    path = Path(path)
    with open(path) as fh:
        doc = json.load(fh)
    return hom_from_doc(doc, base=path.parent)


# -- bisections and germ groupoids ---------------------------------------------


def bisection_to_doc(b: Bisection) -> dict:
    return {"groupoid": groupoid_to_doc(b.groupoid), "arrows": list(b.arrows)}


def germ_to_doc(germs: GermGroupoid) -> dict:
    return {
        "groupoid": groupoid_to_doc(germs.groupoid),
        "representatives": [[s, x] for (s, x) in germs.reps],
    }
