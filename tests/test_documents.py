"""The JSON wire format: canonical serialization and strict validation."""

import copy
import importlib.util
import json
import math
import pathlib
import tracemalloc
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import edge_documents
import reference_documents
from c5cone import (
    CONDUCTOR_LIMIT,
    Branch,
    ConductorLimitExceeded,
    CoordinateSeries,
    CycloScalar,
    EngineError,
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
from c5cone.cli import main
from c5cone.documents import _parse_scalar
from c5cone.scalar import _zeta_terms
from random_curves import random_curve


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


def _faults():
    """(path, value) faults, each at the second branch, its third
    coordinate, that coordinate's second term or that term's second
    summand; value None deletes the key."""
    branch, coord, term = ("branches", 1), ("branches", 1, "coords", 2), ("branches", 1, "coords", 2, 1)
    summand = (*term, "coeff", 1)
    return [
        (branch, []), ((*branch, "extra"), 1), ((*branch, "coords"), {}),
        (coord, {}), (term, "x"), ((*term, "exp"), "1"), ((*term, "exp"), 0), ((*term, "exp"), 3),
        ((*term, "coeff"), []), ((*term, "coeff"), "x"), (summand, 7), ((*summand, "num"), "1"),
        ((*summand, "zeta_pow"), None), ((*summand, "den"), 0), ((*summand, "den"), True),
        ((*summand, "zeta_order"), -1), ((*summand, "extra"), 0),
    ]


@pytest.mark.parametrize("path, value", _faults())
def test_an_error_names_the_part_as_the_reference_reader(path, value):
    # positions past the first, so each index of the name is checked; the
    # engine builds a name only when a check fails
    doc = to_document(curve_from_exponents([
        [2, [(3, 1)], [(5, 1)]], [2, [(5, 1)], [(3, 1), (7, zeta(5) + 2)]]
    ]))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    if value is None:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(InvalidDocument) as ours:
        from_document(copy.deepcopy(doc))
    with pytest.raises(InvalidDocument) as theirs:
        reference_documents.from_document(doc)
    assert str(ours.value) == str(theirs.value)
    assert "branches[1]" in str(ours.value)


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


def _summand(num, den, order, power):
    return {"num": num, "den": den, "zeta_order": order, "zeta_pow": power}


def _dense_sum(summands):
    """A coefficient summed through from_poly on dense Fraction lists, the
    route summands took before the table of powers."""
    total = CycloScalar.rational(0)
    for s in summands:
        poly = [Fraction(0)] * (s["zeta_pow"] % s["zeta_order"])
        poly.append(Fraction(s["num"], s["den"]))
        total = total + CycloScalar.from_poly(s["zeta_order"], poly)
    return total


@pytest.mark.parametrize(
    "summands",
    [
        [_summand(1, 1, 12, 11)],  # a power Phi_12 reduces
        [_summand(2, 3, 12, 12)],  # zeta_pow == zeta_order
        [_summand(5, 1, 60, 137)],  # zeta_pow above zeta_order
        [_summand(-1, 4, 420, -1)],  # negative zeta_pow
        [_summand(3, 1, 7, -15)],
        [_summand(0, 1, 7, 3)],  # zero, still at conductor 7
        [_summand(1, 2, 1, 0), _summand(0, 5, 9, 8)],
        [_summand(7, 9, 105, 100), _summand(-7, 9, 105, 100)],  # cancel to 0
        [_summand(1, 3, 4, 3), _summand(2, 5, 6, 5), _summand(-1, 7, 15, 14)],
        [_summand(4, 6, 360, 359), _summand(1, 1, 420, 96), _summand(1, 2, 1, 9)],
    ],
)
def test_summands_parse_to_the_dense_route(summands):
    got, expected = _parse_scalar(summands, "coeff"), _dense_sum(summands)
    assert (got.conductor, got.terms(), got.text()) == (
        expected.conductor, expected.terms(), expected.text()
    )


def test_a_zero_summand_still_raises_the_conductor():
    doc = cusp_document()
    assert from_document(doc).conductor == 2
    doc["branches"][0]["coords"][1][0]["coeff"].append(_summand(0, 1, 7, 3))
    assert from_document(doc).conductor == 14


@pytest.mark.parametrize("order", [CONDUCTOR_LIMIT + 1, 10**9])
def test_an_order_above_the_cap_exits_two_and_adds_no_power(order, tmp_path, capsys):
    doc = cusp_document()
    doc["branches"][0]["coords"][1][0]["coeff"] = [_summand(1, 1, order, order - 1)]
    path = tmp_path / "above_cap.json"
    path.write_text(dumps_document(doc))
    before = _zeta_terms.cache_info()
    assert main(["analyze", str(path), "--json"]) == 2
    after = _zeta_terms.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ConductorLimitExceeded"


def test_content_errors_pass_through_unwrapped():
    doc = cusp_document()
    doc["branches"][0]["coords"][0][0]["coeff"][0]["num"] = 2
    with pytest.raises(NotPuiseuxForm):
        from_document(doc)


def test_read_curve_reports_missing_files(tmp_path):
    with pytest.raises(InvalidDocument, match="cannot read"):
        read_curve(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# labels


def _mutually_tangent_plane_document(labels):
    """(u^2, u^3), (u^2, u^5), (u^3, u^4): three branches tangent to the
    x axis, so three tangent pairs and three CoAMs."""
    doc = to_document(
        curve_from_exponents([[2, [(3, 1)]], [2, [(5, 1)]], [3, [(4, 1)]]])
    )
    for branch, label in zip(doc["branches"], labels):
        branch["label"] = label
    return doc


def test_a_label_holding_a_comma_is_rejected(tmp_path, capsys):
    # analyze keys a CoAM by "a,b": the pairs (x,y | x) and (x | y,x) would
    # both print as "x,y,x", and one of the three CoAMs would be lost
    doc = _mutually_tangent_plane_document(["x,y", "x", "y,x"])
    with pytest.raises(InvalidDocument, match=r"branches\[0\]\.label.*'x,y'"):
        from_document(doc)
    path = tmp_path / "comma.json"
    path.write_text(dumps_document(doc))
    assert main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidDocument"
    path.write_text(dumps_document(_mutually_tangent_plane_document(["x", "y", "z"])))
    assert main(["analyze", str(path), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["coam"]) == 3


# ---------------------------------------------------------------------------
# the reader against the reference reader


def _respelled(doc):
    """The same curve with each rational coefficient q spelled as q - 1 at
    zeta order 1 plus 1 at order 2, so summands are summed and branches
    need orders other than the ones their summands carry."""
    for branch in doc["branches"]:
        for series in branch["coords"]:
            for term in series:
                if len(term["coeff"]) == 1 and term["coeff"][0]["zeta_pow"] == 0:
                    s = term["coeff"][0]
                    term["coeff"] = [
                        {"num": s["num"] - s["den"], "den": s["den"],
                         "zeta_order": 1, "zeta_pow": 0},
                        {"num": 1, "den": 1, "zeta_order": 2, "zeta_pow": 0},
                    ]
    return doc


def test_documents_read_as_the_reference_reader(fixtures_dir, fixture_names):
    docs = [loads_document((fixtures_dir / f"{name}.json").read_text()) for name in fixture_names]
    rng = Random(15)
    docs += [to_document(random_curve(rng, max_r=4)) for _ in range(60)]
    docs += [_respelled(copy.deepcopy(doc)) for doc in docs]
    for doc in docs:
        assert reference_documents.fingerprint(from_document(doc)) == (
            reference_documents.fingerprint(reference_documents.from_document(doc))
        )


def _outcome(read, source):
    """What a reader gives: the Curve's fingerprint, or the error's class
    and its JSON diagnostic (message and payload)."""
    try:
        return reference_documents.fingerprint(read(source))
    except EngineError as exc:
        return type(exc), exc.to_json()


def test_edge_documents_read_as_the_reference_reader():
    docs = edge_documents.edge_documents(Random(34), 320)
    classes = Counter()
    for doc in docs:
        ours = _outcome(from_document, copy.deepcopy(doc))
        assert ours == _outcome(reference_documents.from_document, doc)
        classes[ours[0].__name__ if isinstance(ours[0], type) else "valid"] += 1
    # each edge is drawn: valid curves, and each way to fail
    assert classes["valid"] >= 150
    for name in ("InvalidDocument", "ConductorLimitExceeded", "NotPuiseuxForm",
                 "NonPrimitiveParametrization"):
        assert classes[name] >= 5, classes


def test_an_irrational_spoilt_special_coordinate_is_spelled_as_read():
    # 1 + zeta_5 at conductor 10 in a branch at conductor 60: the message
    # spells it at 10, as it was read, not at 60
    doc = cusp_document()
    doc["branches"][0]["coords"][0][0]["coeff"].append(_summand(1, 1, 5, 1))
    doc["branches"][0]["coords"][1][0]["coeff"] = [_summand(1, 1, 12, 1)]
    with pytest.raises(NotPuiseuxForm, match=r"terms \(1 \+ 1\*z\(10,2\)\)\*u\^2$"):
        from_document(doc)


@pytest.mark.parametrize("name", [
    "crlf.json", "crlf_error.json", "cr.json", "cr_error.json", "mixed_error.json",
    "bom.json", "bad_start_byte.json", "bad_continuation.json", "truncated.json",
    "empty.json", "folder.json", "missing.json",
])
def test_a_file_reads_as_in_text_mode(name, tmp_path):
    # the byte read turns "\r\n" and "\r" into "\n" as text mode does, so a
    # JSON error names the same position; decoding and file errors match
    paths = {path.name: path for path in edge_documents.write_file_faults(tmp_path)}
    ours = _outcome(read_curve, paths[name])
    assert ours == _outcome(reference_documents.read_curve, paths[name])
    if name.endswith("_error.json"):
        assert "line 4 column" in ours[1]["detail"]


def _build_counts(monkeypatch) -> list:
    """Wrap the series and branch constructors and the series embedding;
    return the list they append (name, label or None) to on each call."""
    calls = []
    for cls, name in ((CoordinateSeries, "__init__"), (CoordinateSeries, "embedded"),
                      (Branch, "__init__")):
        def wrapper(self, *args, _inner=getattr(cls, name), _name=f"{cls.__name__}.{name}",
                    **kwargs):
            label = args[1] if _name == "Branch.__init__" else None
            calls.append((_name, label))
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    return calls


def _cyclo_documents() -> list:
    """The cyclo-highN documents the benchmark draws at seed 1."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    W = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(W)
    rng = Random(1)
    return [W.cyclo_curve(rng, W.cyclo_skeleton(*shape)) for shape in W.CYCLO_SHAPES]


def _rebuilt_branches(monkeypatch, doc) -> list:
    """Read doc, check that each series is built once at its branch's
    conductor and each branch once, but for the branches curve() embeds at
    the curve's conductor, and return the labels of those."""
    own = {raw["label"]: from_document(dict(doc, branches=[raw])).conductor
           for raw in doc["branches"]}
    below = [label for label, N in own.items() if N != math.lcm(*own.values())]
    with monkeypatch.context() as patch:
        calls = _build_counts(patch)
        from_document(doc)
    n, r = doc["n"], len(own)
    assert [label for name, label in calls if name == "Branch.__init__"] == [*own, *below]
    assert calls.count(("CoordinateSeries.embedded", None)) == n * len(below)
    assert calls.count(("CoordinateSeries.__init__", None)) == n * (r + len(below))
    return below


def test_reading_builds_each_series_and_branch_once(monkeypatch, fixtures_dir, fixture_names):
    # no branch of a cyclo-highN document or a fixture sits below its
    # curve's conductor, so each is built once; some valid edge documents
    # hold one, which curve() builds again
    plain = _cyclo_documents()
    plain += [loads_document((fixtures_dir / f"{name}.json").read_text()) for name in fixture_names]
    edges = [doc for doc in edge_documents.edge_documents(Random(34), 60)
             if not isinstance(_outcome(from_document, doc)[0], type)]
    rebuilt = [_rebuilt_branches(monkeypatch, doc) for doc in plain + edges]
    assert not any(rebuilt[:len(plain)])
    assert sum(map(bool, rebuilt[len(plain):])) >= 5
