"""The JSON wire format: canonical serialization and strict validation."""

import copy
import json
import tracemalloc
from fractions import Fraction

import pytest

from c5cone import (
    ConductorLimitExceeded,
    InvalidDocument,
    NotPuiseuxForm,
    curve_from_exponents,
    dumps_document,
    from_document,
    loads_document,
    read_curve,
    to_document,
    write_curve,
    zeta,
)


def cusp_document():
    return to_document(curve_from_exponents([[2, [(3, 1)]]]))


# ---------------------------------------------------------------------------
# round trips


def test_every_fixture_round_trips(fixtures_dir, fixture_names, load):
    for name in fixture_names:
        c = load(name)
        doc = to_document(c)
        again = from_document(loads_document(dumps_document(doc)))
        assert to_document(again) == doc
        assert [b.param.text() for b in again.branches] == [
            b.param.text() for b in c.branches
        ]


def test_fixture_files_are_canonical(fixtures_dir, fixture_names):
    for name in fixture_names:
        text = (fixtures_dir / f"{name}.json").read_text(encoding="utf-8")
        assert dumps_document(loads_document(text)) == text


def test_write_read_round_trip(tmp_path):
    c = curve_from_exponents(
        [[4, [(6, zeta(3)), (7, Fraction(1, 2))]], [1, [(2, -1)]]]
    )
    path = tmp_path / "curve.json"
    write_curve(path, c)
    again = read_curve(path)
    assert to_document(again) == to_document(c)


def test_dumps_is_canonical():
    doc = cusp_document()
    text = dumps_document(doc)
    assert text.endswith("\n")
    assert dumps_document(loads_document(text)) == text
    assert json.loads(text) == doc


def test_scalar_summands_survive_round_trip():
    c = curve_from_exponents([[3, [(4, zeta(3) + 1), (5, Fraction(-2, 3))]]])
    again = from_document(to_document(c))
    s = again.branches[0].param.coords[1]
    assert s.coefficient(4) == zeta(3) + 1
    assert s.coefficient(5) == Fraction(-2, 3) + zeta(3) * 0


# ---------------------------------------------------------------------------
# validation


def test_document_must_be_an_object():
    with pytest.raises(InvalidDocument):
        loads_document("[]")
    with pytest.raises(InvalidDocument):
        loads_document("not json")


def test_unknown_version_is_rejected():
    doc = cusp_document()
    doc["version"] = 2
    with pytest.raises(InvalidDocument, match="version"):
        from_document(doc)


def test_missing_and_unknown_keys_are_rejected():
    doc = cusp_document()
    del doc["n"]
    with pytest.raises(InvalidDocument, match="missing"):
        from_document(doc)
    doc = cusp_document()
    doc["extra"] = 1
    with pytest.raises(InvalidDocument, match="unknown keys"):
        from_document(doc)


def test_branch_keys_are_checked():
    doc = cusp_document()
    doc["branches"][0]["note"] = "x"
    with pytest.raises(InvalidDocument, match="unknown keys"):
        from_document(doc)


def test_dimension_must_be_at_least_two():
    doc = cusp_document()
    doc["n"] = 1
    with pytest.raises(InvalidDocument, match="dimension"):
        from_document(doc)


def test_branches_must_be_non_empty():
    doc = cusp_document()
    doc["branches"] = []
    with pytest.raises(InvalidDocument, match="non-empty"):
        from_document(doc)


def test_duplicate_labels_are_rejected():
    doc = cusp_document()
    doc["branches"].append(copy.deepcopy(doc["branches"][0]))
    with pytest.raises(InvalidDocument, match="duplicate"):
        from_document(doc)


def test_coordinate_count_must_match_dimension():
    doc = cusp_document()
    doc["branches"][0]["coords"].append([])
    with pytest.raises(InvalidDocument, match="exactly 2 coordinates"):
        from_document(doc)


def test_exponents_must_be_positive_integers():
    doc = cusp_document()
    doc["branches"][0]["coords"][1][0]["exp"] = 0
    with pytest.raises(InvalidDocument, match="exp"):
        from_document(doc)
    doc = cusp_document()
    doc["branches"][0]["coords"][1][0]["exp"] = "3"
    with pytest.raises(InvalidDocument, match="integer"):
        from_document(doc)


def test_summands_are_validated():
    doc = cusp_document()
    doc["branches"][0]["coords"][1][0]["coeff"] = []
    with pytest.raises(InvalidDocument, match="summand"):
        from_document(doc)
    doc = cusp_document()
    doc["branches"][0]["coords"][1][0]["coeff"][0]["den"] = 0
    with pytest.raises(InvalidDocument, match="den"):
        from_document(doc)
    doc = cusp_document()
    del doc["branches"][0]["coords"][1][0]["coeff"][0]["zeta_pow"]
    with pytest.raises(InvalidDocument, match="missing"):
        from_document(doc)


def test_huge_root_order_is_refused_before_allocating():
    doc = cusp_document()
    summand = doc["branches"][0]["coords"][1][0]["coeff"][0]
    summand.update(zeta_order=10**7, zeta_pow=10**7 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ConductorLimitExceeded):
            from_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_content_errors_pass_through_unwrapped():
    doc = cusp_document()
    doc["branches"][0]["coords"][0][0]["coeff"][0]["num"] = 2
    with pytest.raises(NotPuiseuxForm):
        from_document(doc)


def test_read_curve_reports_missing_files(tmp_path):
    with pytest.raises(InvalidDocument, match="cannot read"):
        read_curve(tmp_path / "absent.json")
