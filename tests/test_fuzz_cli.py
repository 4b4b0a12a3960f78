"""Fuzzed documents and flags: every CLI run ends in exit 0, 1 or 2, no
exception escapes cli.main, and exit 2 leaves one JSON object with an
"error" key on standard error.

Documents are valid fixtures with up to three mutations: a key removed
or renamed, a value of the wrong type, a bad zeta_order (0, negative, past
the conductor cap), a bad exponent, an empty list, a duplicated branch
label, a numerator of 10**400. A verify run on a document that still
holds that numerator must exit 2: its double is infinite. Flags are drawn
well-typed, so argparse accepts them and the engine must judge them:
--kernel matrices of any shape, --radii in and out of (0, 0.5], --samples
up to 200 plus 0 and MAX_SAMPLES + 1, --tolerance in and out of (0, 1),
NaN and infinity included; one out of that range must exit 2. The
n = 200 fixture is left out to keep each example within its deadline.

A second test runs verify on unmutated fixtures with any float as
--tolerance: it exits 2 with a tolerance diagnostic exactly when the value
lies outside (0, 1).

A third test runs verify on unmutated fixtures with valid flags (a seed,
1 to 20 samples, two decreasing radii in (0, 0.5]) and checks its sampling
figures against reference_sampler.

A fourth test draws command lines argparse itself rejects: ill-typed
values, unknown flags and commands, missing files, and --kernel together
with --auto. Each must exit 2 with an InvalidArgument diagnostic.

A fifth test reads the mutated documents of the first with the engine and
with reference_documents: both must give the same curve, or raise the same
error class with the same message.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import reference_documents
import reference_sampler
from c5cone import from_document, read_curve
from c5cone.cli import main
from c5cone.oracle import MAX_SAMPLES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "prime_multiplicity")
DOCUMENTS = {name: json.loads((FIXTURES / f"{name}.json").read_text()) for name in NAMES}

JUNK = st.sampled_from([None, True, "x", "", 1.5, -1, 0, [], {}, [1], {"a": 1}, 10**50])
BAD_ORDERS = st.sampled_from([0, -1, -12, 10081, 10**9, 10**30])
BAD_EXPONENTS = st.sampled_from([0, -1, -7, 1, 2, 10**6])
HUGE = 10**400  # no double holds it


def _paths(node, prefix=()):
    """Every (path, value) below node; a path is a tuple of keys/indices."""
    out = [(prefix, node)]
    if isinstance(node, dict):
        for key, value in node.items():
            out += _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            out += _paths(value, prefix + (idx,))
    return out


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _mutate(doc, data):
    paths = [p for p, _ in _paths(doc) if p]
    kind = data.draw(st.sampled_from(
        ["drop", "rename", "junk", "order", "exponent", "empty", "duplicate", "n", "huge"]
    ))
    if kind in ("drop", "rename"):
        keyed = [p for p in paths if isinstance(p[-1], str)]
        path = data.draw(st.sampled_from(keyed))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent.pop(path[-1])
        if kind == "rename":
            parent[path[-1] + "_"] = value
    elif kind == "junk":
        _set(doc, data.draw(st.sampled_from(paths)), data.draw(JUNK))
    elif kind in ("order", "exponent"):
        field = "zeta_order" if kind == "order" else "exp"
        hits = [p for p in paths if p[-1] == field]
        if hits:
            bad = BAD_ORDERS if kind == "order" else BAD_EXPONENTS
            _set(doc, data.draw(st.sampled_from(hits)), data.draw(bad))
    elif kind == "empty":
        lists = [p for p, v in _paths(doc) if p and isinstance(v, list)]
        _set(doc, data.draw(st.sampled_from(lists)), [])
    elif kind == "huge":
        hits = [p for p in paths if p[-1] == "num"]
        if hits:
            _set(doc, data.draw(st.sampled_from(hits)), HUGE)
    elif kind == "duplicate":
        branches = doc.get("branches")
        if isinstance(branches, list) and branches:
            branches.append(copy.deepcopy(branches[0]))
    else:
        doc["n"] = data.draw(st.sampled_from([0, 1, 2, 3, 4, -3, 10**6]))


def _flags(data, doc):
    command = data.draw(st.sampled_from(["analyze", "project", "verify", "compare"]))
    if command == "analyze":
        return ["analyze", data.draw(st.sampled_from([[], ["--json"], ["--reps"]]))]
    if command == "compare":
        other = str(FIXTURES / f"{data.draw(st.sampled_from(NAMES))}.json")
        return ["compare", [other, "--json"]]
    if command == "project":
        if data.draw(st.booleans()):
            return ["project", ["--auto", "--json"]]
        n = doc.get("n") if isinstance(doc.get("n"), int) and 0 < doc.get("n") < 8 else 3
        entry = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "x", "1/0"]))
        rows = data.draw(st.lists(
            st.lists(entry, min_size=n - 1, max_size=n + 1), min_size=0, max_size=n
        ))
        return ["project", ["--kernel", json.dumps(rows), "--json"]]
    good = st.lists(st.sampled_from([0.5, 0.1, 0.01, 0.001]), min_size=1, max_size=3, unique=True)
    radius = st.sampled_from([0.5, 0.1, 0.01, 0.0, -0.1, 0.7, float("nan"), 5e-324, 1e-320])
    radii = data.draw(st.one_of(
        good.map(lambda r: sorted(r, reverse=True)), st.lists(radius, min_size=1, max_size=3)
    ))
    samples = data.draw(st.one_of(st.integers(1, 200), st.sampled_from([0, MAX_SAMPLES + 1])))
    seed = data.draw(st.integers(0, 5))
    flags = ["--radii", *map(str, radii), "--samples", str(samples), "--seed", str(seed)]
    tolerance = data.draw(st.sampled_from(
        [None, 0.01, 0.5, 1e-9, 1.0, 0.0, -1.0, 2.0, float("nan"), float("inf")]
    ))
    if tolerance is not None:
        flags += ["--tolerance", str(tolerance)]
    return ["verify", flags]


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


@settings(
    max_examples=150,
    deadline=5000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzzed_documents_and_flags_end_in_a_verdict_or_a_diagnostic(data, workdir, capsys):
    name = data.draw(st.sampled_from(NAMES))
    doc = copy.deepcopy(DOCUMENTS[name])
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        _mutate(doc, data)
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    command, flags = _flags(data, doc)
    capsys.readouterr()
    code = main([command, str(path), *flags])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    event(f"{command} exit {code}")
    if "--tolerance" in flags and not 0 < float(flags[flags.index("--tolerance") + 1]) < 1:
        assert code == 2
    if command == "verify" and any(p[-1:] == ("num",) and v == HUGE for p, v in _paths(doc)):
        assert code == 2
    if code == 2:
        diagnostic = json.loads(err)
        assert isinstance(diagnostic, dict) and "error" in diagnostic
        assert out == ""


@settings(
    max_examples=40,
    deadline=5000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(NAMES),
    tolerance=st.one_of(st.floats(), st.floats(min_value=0, max_value=1)),
)
def test_verify_tolerance_outside_the_unit_interval_exits_two(name, tolerance, capsys):
    capsys.readouterr()
    code = main(["verify", str(FIXTURES / f"{name}.json"), "--samples", "5",
                 "--tolerance", str(tolerance)])
    out, err = capsys.readouterr()
    inside = 0 < tolerance < 1
    event("inside" if inside else "outside")
    rejected = code == 2 and "tolerance" in json.loads(err)["detail"]
    assert rejected != inside, (tolerance, code, err)
    if inside and code != 2:
        assert json.loads(out)["tolerance"] == tolerance


# the smallest radius keeps every fixture's leading term in double range
RADII = st.floats(min_value=2e-6, max_value=0.5).flatmap(
    lambda big: st.tuples(
        st.just(big), st.floats(min_value=1e-6, max_value=big, exclude_max=True)
    )
)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(NAMES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 20),
    radii=RADII,
)
def test_verify_samples_like_the_reference(name, seed, samples, radii, capsys):
    path = FIXTURES / f"{name}.json"
    capsys.readouterr()
    code = main(["verify", str(path), "--seed", str(seed), "--samples", str(samples),
                 "--radii", *map(str, radii)])
    out, err = capsys.readouterr()
    assert code in (0, 1), err
    event(f"verify exit {code}")
    data = json.loads(out)
    ref = reference_sampler.sample_secant_directions(
        read_curve(path), radii=radii, k=samples, seed=seed
    )
    assert data["per_radius_max"] == [[r, d] for r, d in ref.per_radius_max]
    assert data["component_min_distance"] == list(ref.component_min)
    assert data["degenerate_resampled"] == ref.degenerate_count


# no int and no float parses these
ILL_TYPED = st.sampled_from(["abc", "", "1/2", "1e400x", "--", "0x10", "nan?"])
COMMANDS = ["analyze", "compare", "project", "verify"]


@settings(
    max_examples=60,
    deadline=5000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_flags_argparse_rejects_end_in_a_diagnostic(data, capsys):
    command = data.draw(st.sampled_from(COMMANDS + ["frobnicate", None]))
    argv = [] if command is None else [command]
    if command in COMMANDS and data.draw(st.booleans()):
        argv.append(str(FIXTURES / f"{data.draw(st.sampled_from(NAMES))}.json"))
    rejected = data.draw(st.sampled_from(
        ["--seed", "--samples", "--radii", "--tolerance", "--frobnicate", "-q",
         "--kernel --auto", "--json=yes"]
    ))
    argv += rejected.split()
    if rejected in ("--seed", "--samples", "--radii", "--tolerance"):
        argv.append(data.draw(ILL_TYPED))
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    event(f"{command} {rejected}")
    assert code == 2, argv
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidArgument", argv


def _read(reader, doc):
    try:
        return "curve", reference_documents.fingerprint(reader(doc))
    except Exception as exc:  # the error is the result to compare
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_read_as_the_reference_reader(data):
    doc = copy.deepcopy(DOCUMENTS[data.draw(st.sampled_from(NAMES))])
    for _ in range(data.draw(st.sampled_from([0, 1, 1, 2, 3]))):
        _mutate(doc, data)
    ours = _read(from_document, doc)
    event(ours[0])
    assert ours == _read(reference_documents.from_document, doc)
