"""Family constructors and the JSON interchange formats."""

import json

import numpy as np
import pytest

from etale_kit import io as kio
from etale_kit.decomposition import HomMatrix, validate_hom
from etale_kit.errors import HypothesisError, StructuralError
from etale_kit.families import (
    _cyclic_table,
    cyclic_groupoid,
    disjoint_union,
    group_bundle,
    group_inverses,
    pair_groupoid,
    transformation_groupoid,
)
from etale_kit.groupoid import FiniteGroupoid, enumerate_homomorphisms, validation_report
from etale_kit.inverse_semigroup import canonical_action, germ_groupoid


def test_pair_family(r2_hand):
    g = pair_groupoid(2)
    assert g == r2_hand
    assert g.arrow_count == 4 and g.units == (0, 1)
    # units first, then the arrows (i, j) from point j to point i in
    # lexicographic order
    assert (g.src[2], g.rng[2]) == (1, 0) and (g.src[3], g.rng[3]) == (0, 1)
    g3 = pair_groupoid(3)
    assert [(g3.rng[a], g3.src[a]) for a in g3.arrows()] == [
        (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_cyclic_family(z2_hand):
    assert cyclic_groupoid(2) == z2_hand
    g = cyclic_groupoid(4)
    assert g.arrow_count == 4 and len(g.units) == 1


def test_bundle_family(bundle_hand):
    b = group_bundle([2, 1])
    assert b == bundle_hand


def test_transformation_free_action_is_pair_groupoid():
    g = transformation_groupoid(_cyclic_table(2), 2, [[0, 1], [1, 0]])
    assert g.arrow_count == 4
    isos = [h for h in enumerate_homomorphisms(g, pair_groupoid(2))
            if h.is_bijective()]
    assert isos


def test_transformation_trivial_action_is_a_bundle():
    g = transformation_groupoid(_cyclic_table(2), 2, [[0, 1], [0, 1]])
    assert g == group_bundle([2, 2]) or g.arrow_count == 4


def test_transformation_rejects_non_actions():
    with pytest.raises(StructuralError):
        # the non-identity element squares to the identity but acts like a
        # non-invertible collapse
        transformation_groupoid(_cyclic_table(2), 2, [[0, 1], [0, 0]])
    with pytest.raises(StructuralError):
        # identity row must fix every point
        transformation_groupoid(_cyclic_table(2), 2, [[1, 0], [0, 1]])
    with pytest.raises(StructuralError):
        transformation_groupoid([[0, 1], [1, 1]], 1, [[0], [0]])


@pytest.mark.parametrize("action, entry", [
    ([[0, 1], [7, 0]], r"\(1,0\) is 7"),
    ([[0, 1], [1, -1]], r"\(1,1\) is -1"),
    ([[-2, 1], [1, 0]], r"\(0,0\) is -2"),
])
def test_transformation_refuses_action_entries_outside_the_points(action, entry):
    with pytest.raises(StructuralError, match=entry + r", not an int in 0\.\.1"):
        transformation_groupoid(_cyclic_table(2), 2, action)


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]], "must be square"),
    ([[1, 0], [0, 1]], "identity 0"),
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "not associative"),
    ([[0, 1], [1, 1]], "without inverse"),
    ([[0, 1], [1, 5]], r"entry \(1,1\) is 5"),
    ([[0, 1], [1, -1]], r"entry \(1,1\) is -1"),
    ([], "identity 0"),
])
def test_group_table_refused_alike_by_both_paths(table, message):
    with pytest.raises(StructuralError, match=message) as direct:
        group_inverses(table)
    with pytest.raises(StructuralError) as via_groupoid:
        transformation_groupoid(table, 1, [[0]] * len(table))
    assert str(via_groupoid.value) == str(direct.value)


def test_disjoint_union_blocks():
    g = disjoint_union([pair_groupoid(2), cyclic_groupoid(2)])
    assert g.arrow_count == 6
    assert g.units == (0, 1, 4)
    assert validation_report(g).ok


def test_corpus_members_validate(corpus):
    for name, g in corpus:
        assert validation_report(g).ok, name
        assert g.arrow_count <= 16, name


def test_groupoid_roundtrip_is_byte_exact(corpus):
    for name, g in corpus:
        doc = {**kio.groupoid_to_doc(g), "meta": {"name": name}}
        text = kio.canonical_json(doc)
        again = kio.groupoid_from_doc(json.loads(text))
        assert again == g, name
        assert kio.canonical_json({**kio.groupoid_to_doc(again), "meta": {"name": name}}) == text


def test_parse_rejects_malformed_documents():
    with pytest.raises(StructuralError):
        kio.groupoid_from_doc({"arrows": 1})
    with pytest.raises(StructuralError):
        kio.groupoid_from_doc({"arrows": 1, "units": [0], "src": [0], "rng": [0],
                               "compose": [[0, 0]], "inv": [0]})


_POINT = {"arrows": 1, "units": [0], "src": [0], "rng": [0],
          "compose": [[0, 0, 0]], "inv": [0]}


@pytest.mark.parametrize("key, value", [
    ("arrows", True),
    ("arrows", 1.0),
    ("units", [0.7]),
    ("units", [False]),
    ("units", ["0"]),
    ("src", [False]),
    ("rng", [0.0]),
    ("inv", [False]),
    ("compose", [[0, 0, False]]),
])
def test_parse_rejects_non_integer_ids(key, value):
    kio.groupoid_from_doc(_POINT)
    with pytest.raises(StructuralError):
        kio.groupoid_from_doc({**_POINT, key: value})


@pytest.mark.parametrize("key, value", [
    ("rows", True), ("cols", True), ("rows", 1.0), ("cols", "1"),
])
def test_hom_parse_rejects_non_integer_shape(key, value):
    doc = {"source": _POINT, "target": _POINT, "rows": 1, "cols": 1,
           "entries": [[1.0, 0.0]]}
    kio.hom_from_doc(doc)
    with pytest.raises(StructuralError):
        kio.hom_from_doc({**doc, key: value})


_BAD_PAIRS = [
    [["a", 0]],  # a string
    [[True, 0]],  # a boolean, which float() would read as 1.0
    [[0, None]],
    [[10 ** 400, 0]],  # an integer beyond the float range
    [[0, 0, 0]],
]


@pytest.mark.parametrize("pairs", _BAD_PAIRS)
def test_parse_rejects_non_numeric_coefficients(pairs):
    g = cyclic_groupoid(1)
    assert kio.element_from_doc({"coeff": [[1, 0.5]]}, g).coeff[0] == 1 + 0.5j
    with pytest.raises(StructuralError):
        kio.element_from_doc({"coeff": pairs}, g)
    doc = {"source": _POINT, "target": _POINT, "rows": 1, "cols": 1}
    with pytest.raises(StructuralError):
        kio.hom_from_doc({**doc, "entries": pairs})


def test_parsed_pairs_keep_every_value_in_order():
    # ints, floats, signed zeros and the ends of the float range
    pairs = [[1, 2], [-0.0, 3.5], [2 ** 53 + 1, -1e-300], [1.7976931348623157e308, -0.0]]
    expected = [complex(float(re), float(im)) for re, im in pairs]
    r2 = pair_groupoid(2)
    coeff = kio.element_from_doc({"coeff": pairs}, r2).coeff
    assert coeff.dtype == complex and coeff.tolist() == expected
    assert np.signbit(coeff.view(float)).tolist() == [
        False, False, True, False, False, True, False, True]
    doc = {"source": _POINT, "target": kio.groupoid_to_doc(r2), "rows": 4, "cols": 1}
    entries = kio.hom_from_doc({**doc, "entries": pairs}).entries
    assert entries.shape == (4, 1) and entries[:, 0].tolist() == expected
    # an integer past the float range is refused, not read as infinity
    with pytest.raises(StructuralError, match="must be finite"):
        kio.element_from_doc({"coeff": pairs[:3] + [[10 ** 400, 0]]}, r2)


@pytest.mark.parametrize("doc", [5, "coeff", None, {}, {"coeff": 3}])
def test_parse_rejects_malformed_element_documents(doc):
    with pytest.raises(StructuralError, match="element document"):
        kio.element_from_doc(doc, cyclic_groupoid(1))


def test_parse_validates_axioms_on_load():
    doc = kio.groupoid_to_doc(pair_groupoid(2))
    doc["src"] = [1, 1, 1, 0]
    with pytest.raises(HypothesisError):
        kio.groupoid_from_doc(doc)
    # structural loading is still available for the validator itself
    g = kio.groupoid_from_doc(doc, validate=False)
    assert not validation_report(g).ok


def test_element_roundtrip(r2_hand):
    doc = {"coeff": [[1, 2], [0, 0], [-1, 0], [0, 0.5]]}
    again = kio.element_from_doc(json.loads(kio.canonical_json(doc)), r2_hand)
    assert np.array_equal(again.coeff, [1 + 2j, 0, -1, 0.5j])


def test_hom_roundtrip_inline_and_path(tmp_path, r2_hand):
    hm = HomMatrix(r2_hand, r2_hand, np.diag([1, 1, -1, -1]).astype(complex))
    doc = kio.hom_to_doc(hm)
    again = kio.hom_from_doc(json.loads(kio.canonical_json(doc)))
    assert np.allclose(again.entries, hm.entries)
    # groupoids may be referenced by path relative to the hom file
    gpath = tmp_path / "g.json"
    gpath.write_text(kio.canonical_json(kio.groupoid_to_doc(r2_hand)))
    doc["source"] = "g.json"
    doc["target"] = "g.json"
    hpath = tmp_path / "h.json"
    hpath.write_text(kio.canonical_json(doc))
    loaded = kio.load_hom(hpath)
    assert np.allclose(loaded.entries, hm.entries)


@pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (0, 0)])
def test_hom_documents_over_the_empty_groupoid_roundtrip(rows, cols):
    empty = FiniteGroupoid(0, [], [], [], {}, [])
    by_size = {0: empty, 4: pair_groupoid(2)}
    hm = HomMatrix(by_size[cols], by_size[rows], np.zeros((rows, cols)))
    again = kio.hom_from_doc(json.loads(json.dumps(kio.hom_to_doc(hm))))
    assert again.entries.shape == (rows, cols)
    assert validate_hom(again).ok == validate_hom(hm).ok


def test_hom_doc_shape_mismatch_rejected(r2_hand):
    hm = HomMatrix(r2_hand, r2_hand, np.eye(4))
    doc = kio.hom_to_doc(hm)
    doc["rows"] = 3
    with pytest.raises(StructuralError):
        kio.hom_from_doc(doc)


def test_digest_is_stable(r2_hand):
    doc = kio.groupoid_to_doc(r2_hand)
    assert kio.digest(doc) == kio.digest(json.loads(kio.canonical_json(doc)))


def test_germ_groupoid_document_roundtrips(r2_hand):
    germs = germ_groupoid(canonical_action(r2_hand))
    assert len(germs.reps) == germs.groupoid.arrow_count
    doc = json.loads(kio.canonical_json(kio.groupoid_to_doc(germs.groupoid)))
    assert kio.groupoid_from_doc(doc) == germs.groupoid
