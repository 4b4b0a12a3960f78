"""The canonical JSON writer equals json.dumps(sort_keys=True, indent=2).

Every report the CLI prints, and every document dumps_document writes, goes
through documents._canonical_json. Here each such object is checked
against json.dumps as it is printed: for all four commands on every fixture
and on seeded random curves, whose documents also spell each rational
coefficient at zeta order 1, so the documents themselves hold mixed orders.
Edge objects cover what reports do not: empty containers at every depth,
shared lists, tuples, bools beside ints, signed zero, subnormals, non-finite
floats and strings that need escaping.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c5cone import cli, documents, dumps_document, to_document
from c5cone.documents import _canonical_json
from random_curves import random_curve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "prime_multiplicity")


def _reference(obj, allow_nan=True):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=allow_nan)


@pytest.fixture
def checked(monkeypatch):
    """Route every CLI report and dumps_document through a check against
    json.dumps; return the list of objects checked."""
    seen = []

    def check(obj, allow_nan=True):
        text = _canonical_json(obj, allow_nan)
        assert text == _reference(obj, allow_nan)
        seen.append(obj)
        return text

    monkeypatch.setattr(cli, "_canonical_json", check)
    monkeypatch.setattr(documents, "_canonical_json", check)
    return seen


def _invocations(path, n):
    f = str(path)
    units = json.dumps([[int(col == row) for col in range(n)] for row in range(2, n)])
    return [
        ["analyze", f, "--json"],
        ["analyze", f, "--json", "--reps"],
        ["project", f, "--auto", "--json"],
        ["project", f, "--auto"],  # the image document, through dumps_document
        ["project", f, "--kernel", units, "--json"],
        ["verify", f, "--samples", "20"],
        ["compare", f, f, "--json"],
    ]


def _run_all(calls, capsys):
    for argv in calls:
        assert cli.main(argv) in (0, 1, 2), argv
        capsys.readouterr()


def test_every_fixture_report_equals_json_dumps(checked, capsys):
    calls = []
    for name in NAMES:
        path = FIXTURES / f"{name}.json"
        calls += _invocations(path, json.loads(path.read_text())["n"])
        calls.append(["compare", str(path), str(FIXTURES / f"{NAMES[0]}.json"), "--json"])
    _run_all(calls, capsys)
    assert len(checked) >= 6 * len(NAMES)


def test_the_largest_report_equals_json_dumps(checked, capsys):
    # 2016 records of one root order share one v_theta and one plane
    _run_all([["analyze", str(FIXTURES / "prime_multiplicity.json"), "--json"]], capsys)
    assert len(checked) == 1


def _mixed_orders(doc):
    """The document with every rational coefficient spelled at order 1."""
    for branch in doc["branches"]:
        for series in branch["coords"]:
            for term in series:
                if all(s["zeta_pow"] == 0 for s in term["coeff"]):
                    for s in term["coeff"]:
                        s["zeta_order"] = 1
    return doc


def test_every_random_curve_report_equals_json_dumps(checked, capsys, tmp_path):
    rng = random.Random(15)
    calls = []
    for index in range(30):
        c = random_curve(rng)
        path = tmp_path / f"random{index}.json"
        path.write_text(dumps_document(_mixed_orders(to_document(c))))
        calls += _invocations(path, c.n)
    _run_all(calls, capsys)
    assert len(checked) >= 30 * 5


# ---------------------------------------------------------------------------
# edge objects

STRINGS = [
    "", "é", "日本語", "\U0001f600", '"', "\\", "\x00\x01\x1f", "\n\t\r\b\f", "\x7f",
    "[x]", "{y}", "a,b", "</script>", "  ", "\ud800",
]


def _nested(leaf, depth):
    for level in range(depth):
        leaf = [leaf] if level % 2 else {"k": leaf}
    return leaf


SHARED = ["a", 1, ["b"]]
EDGE_OBJECTS = [
    [], {}, "", 0, None, True, False,
    *[_nested([], d) for d in range(20)],
    *[_nested({}, d) for d in range(20)],
    *[_nested(["x", "y"], d) for d in range(20)],
    {"one": SHARED, "twice": [SHARED, SHARED], "deeper": {"again": SHARED}},
    [SHARED, [SHARED], SHARED],
    (1, "x", (2, ())), [(), ("a",), ("a", 1)],
    [True, 1, False, 0, None, -1, 10**40, -(10**40)],
    [0.0, -0.0, 5e-324, -5e-324, 1e308, 1.5, 0.1, 1e16, 123456789.0],
    ["a", 1], ["a", "b", 2, "c"], ["a", ["b"]], [1, "a"],
    STRINGS,
    {s or "empty": s for s in STRINGS},
    {s: [s, {s: s}] for s in STRINGS},
]


@pytest.mark.parametrize("obj", EDGE_OBJECTS)
def test_edge_objects_equal_json_dumps(obj):
    assert _canonical_json(obj) == _reference(obj)
    assert _canonical_json(obj, allow_nan=False) == _reference(obj, allow_nan=False)


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_floats_are_spelled_or_refused_as_json_does(x):
    for obj in (x, [x], {"a": [1, x]}, [["s", x]]):
        assert _canonical_json(obj) == _reference(obj)
        with pytest.raises(ValueError) as ours:
            _canonical_json(obj, allow_nan=False)
        with pytest.raises(ValueError) as theirs:
            _reference(obj, allow_nan=False)
        assert str(ours.value) == str(theirs.value)
    with pytest.raises(ValueError):
        dumps_document({"n": x})


@pytest.mark.parametrize("obj", [object(), {1, 2}, b"x", [1, object()], {"a": ["b", 1j]}])
def test_other_types_raise_type_error_as_json_does(obj):
    with pytest.raises(TypeError) as ours:
        _canonical_json(obj)
    with pytest.raises(TypeError) as theirs:
        _reference(obj)
    assert str(ours.value) == str(theirs.value)


def test_a_non_string_key_raises_type_error():
    with pytest.raises(TypeError):
        _canonical_json({1: "a"})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True)
@given(JSON_VALUES)
def test_any_json_value_equals_json_dumps(obj):
    assert _canonical_json(obj) == _reference(obj)
    try:
        expected = _reference(obj, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            _canonical_json(obj, allow_nan=False)
    else:
        assert _canonical_json(obj, allow_nan=False) == expected
