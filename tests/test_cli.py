"""Command line behavior: output shapes, exit codes, error contract."""

import copy
import json
import pathlib
import time

import pytest

import c5cone.c5
import c5cone.cli
import c5cone.projection
from c5cone.cli import main
from pencil_curves import document, pencil_pairs
from c5cone.oracle import (
    MAX_RADII,
    MAX_SAMPLES,
    MAX_TOTAL_SAMPLES,
    check_sampling_parameters,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def fixture(fixtures_dir, name):
    return str(fixtures_dir / f"{name}.json")


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SMALL = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "prime_multiplicity")
SPACE = sorted(p.stem for p in FIXTURES.glob("*.json") if json.loads(p.read_text())["n"] == 3)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_json_report(capsys, fixtures_dir):
    code, data, _ = run_json(
        capsys, "analyze", fixture(fixtures_dir, "four_branches"), "--json"
    )
    assert code == 0
    assert data["command"] == "analyze"
    assert data["n"] == 3
    assert data["conductor"] == 12
    assert data["classification"]["S"] == ["b1", "b2", "b4"]
    assert data["classification"]["T"] == [["b1", "b2"]]
    assert len(data["classification"]["NT"]) == 5
    assert data["cham"]["b1"] == [4, 6, 9]
    assert data["coam"]["b1,b2"] == [18] * 12
    assert data["cone"]["dimension"] == 2
    assert data["cone"]["count"] == 7
    assert [comp["equations"] for comp in data["cone"]["components"]] == [
        ["y"], ["y + z"], ["y + 2*z"], ["z"], ["y - z"], ["y - 2*z"], ["x - z"],
    ]
    assert data["cone"]["product_equation"] == (
        "x*y^5*z - 5*x*y^3*z^3 + 4*x*y*z^5 - y^5*z^2 + 5*y^3*z^4 - 4*y*z^6"
    )
    assert data["bounds"] == {"bound1": 27, "bound2": 22}


def test_analyze_text_rendering(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", fixture(fixtures_dir, "four_branches"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "curve: n=3, 4 branches, conductor 12"
    assert "C5 cone: dimension 2, 7 planes" in out
    assert "product equation: x*y^5*z" in out
    assert "bounds: count 7 <= bound2 22 <= bound1 27" in out


def test_analyze_reps_lists_one_record_per_root_order(capsys, fixtures_dir):
    path = fixture(fixtures_dir, "m16_one_plane")
    _, full, _ = run_json(capsys, "analyze", path, "--json")
    _, reps, _ = run_json(capsys, "analyze", path, "--json", "--reps")
    assert len(full["aux_records"]) == 15
    assert len(reps["aux_records"]) == 4
    assert {r["m_theta"] for r in reps["aux_records"]} == {24, 36, 54, 55}
    assert full["cone"] == reps["cone"]


def test_analyze_finishes_on_prime_multiplicity(capsys, fixtures_dir):
    # m = 2017 in C^200: 2016 characteristic records sharing one plane.
    # The budget is generous; the command used to run out of memory.
    start = time.perf_counter()
    code, data, _ = run_json(
        capsys, "analyze", fixture(fixtures_dir, "prime_multiplicity"), "--json"
    )
    assert time.perf_counter() - start < 120
    assert code == 0
    records = data["aux_records"]
    assert [r["k"] for r in records] == list(range(1, 2017))
    assert {r["m_theta"] for r in records} == {2018}
    assert data["cone"]["count"] == 1
    assert all(r["plane_equations"] == records[0]["plane_equations"] for r in records)


def test_analyze_smooth_curve(capsys, fixtures_dir):
    code, data, _ = run_json(
        capsys, "analyze", fixture(fixtures_dir, "smooth_plane"), "--json"
    )
    assert code == 0
    assert data["cone"]["dimension"] == 1
    assert data["cone"]["count"] == 1
    assert data["cone"]["components"][0]["provenance"] == [
        {"k": -1, "kind": "tangent", "labels": ["b1"]}
    ]
    assert data["cone"]["product_equation"] is None


@pytest.mark.parametrize("name", SPACE)
def test_analyze_finds_each_components_forms_once(capsys, fixtures_dir, monkeypatch, name):
    # the component equations, the records' plane equations and the product
    # equation all read one null space per cone component
    calls = []
    null_space = c5cone.c5.null_space

    def counting(rows):
        calls.append(rows)
        return null_space(rows)

    monkeypatch.setattr(c5cone.c5, "null_space", counting)
    code, data, _ = run_json(capsys, "analyze", fixture(fixtures_dir, name), "--json")
    assert code == 0
    assert len(calls) == data["cone"]["count"]


# ---------------------------------------------------------------------------
# compare


def test_compare_equivalent_pair(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "compare",
        fixture(fixtures_dir, "family_fiber_0"),
        fixture(fixtures_dir, "family_fiber_1"),
    )
    assert code == 0
    assert out.splitlines() == ["bi-Lipschitz equivalent: yes", "  b1 -> b1"]


def test_compare_json_witness(capsys, fixtures_dir):
    code, data, _ = run_json(
        capsys,
        "compare",
        fixture(fixtures_dir, "tangent_pair_a"),
        fixture(fixtures_dir, "tangent_pair_b"),
        "--json",
    )
    assert code == 0
    assert data == {
        "command": "compare",
        "equivalent": True,
        "witness": [["b1", "b1"], ["b2", "b2"]],
    }


def test_compare_distinguishes_curves(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "compare",
        fixture(fixtures_dir, "smooth_plane"),
        fixture(fixtures_dir, "space_cusp"),
    )
    assert code == 1
    assert out.startswith("bi-Lipschitz equivalent: no")


# ---------------------------------------------------------------------------
# project


def test_project_kernel_non_generic(capsys, fixtures_dir):
    code, data, _ = run_json(
        capsys,
        "project",
        fixture(fixtures_dir, "space_cusp"),
        "--kernel", "[[0,0,1]]",
        "--json",
    )
    assert code == 1
    assert data["generic"] is False
    assert data["violating_component"]["equations"] == ["y"]
    assert data["projection"]["kernel"] == [["0", "0", "1"]]


def test_project_kernel_generic(capsys, fixtures_dir):
    code, data, _ = run_json(
        capsys,
        "project",
        fixture(fixtures_dir, "space_cusp"),
        "--kernel", "[[0,1,-1]]",
        "--json",
    )
    assert code == 0
    assert data["generic"] is True
    assert data["violating_component"] is None


def test_project_kernel_text_rendering(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "project",
        fixture(fixtures_dir, "space_cusp"),
        "--kernel", "[[0,0,1]]",
    )
    assert code == 1
    assert out.splitlines()[0] == "C5-generic: no"
    assert "kernel meets component V(y)" in out


@pytest.mark.parametrize("kernel, width", [("[[1,2]]", 2), ("[[]]", 0)])
def test_project_kernel_of_another_width_exits_two(capsys, fixtures_dir, kernel, width):
    # the width is checked before the rank, which such rows misstate
    code, out, err = run(
        capsys, "project", fixture(fixtures_dir, "space_cusp"), "--kernel", kernel
    )
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "DimensionMismatch",
        "detail": f"--kernel rows need 3 entries, got {width}",
        "dims": [width, 3],
    }


def test_project_auto_emits_image_document(capsys, fixtures_dir):
    code, data, _ = run_json(
        capsys,
        "project",
        fixture(fixtures_dir, "space_cusp"),
        "--auto",
        "--json",
    )
    assert code == 0
    assert data["mode"] == "auto"
    assert data["projection"]["matrix"] == [["1", "0", "0"], ["0", "1", "1"]]
    assert data["invariance"] is True
    image = data["image_document"]
    assert image["n"] == 2
    assert len(image["branches"]) == 1


def test_project_auto_projects_the_curve_once(capsys, fixtures_dir, monkeypatch):
    calls = []
    original = c5cone.projection.apply_projection

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(c5cone.cli, "apply_projection", counting)
    monkeypatch.setattr(c5cone.projection, "apply_projection", counting)
    code, data, _ = run_json(
        capsys, "project", fixture(fixtures_dir, "space_cusp"), "--auto", "--json"
    )
    assert code == 0
    assert data["invariance"] is True
    assert data["image_document"]["n"] == 2
    assert len(calls) == 1


def test_project_auto_finishes_on_prime_multiplicity(capsys, fixtures_dir):
    # n = 200 over Q(zeta_2017): the genericity rank runs on dense vectors
    # of length 2016. It takes a few seconds; it used to run for minutes
    # without finishing.
    start = time.perf_counter()
    code, data, _ = run_json(
        capsys,
        "project",
        fixture(fixtures_dir, "prime_multiplicity"),
        "--auto",
        "--json",
    )
    assert time.perf_counter() - start < 120
    assert code == 0
    assert data["invariance"] is True
    assert data["image_document"]["n"] == 2


def test_project_auto_without_universal_special_coordinate(capsys, fixtures_dir):
    code, out, err = run(
        capsys, "project", fixture(fixtures_dir, "four_branches"), "--auto"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "NoCommonSpecialCoordinate"


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_fixture(capsys, fixtures_dir):
    code, data, _ = run_json(
        capsys,
        "verify",
        fixture(fixtures_dir, "space_cusp"),
        "--samples", "25",
    )
    assert code == 0
    assert data["pass"] is True
    assert data["prng"] == "mt19937"
    assert data["tolerance"] == 0.01
    assert data["samples_per_radius"] == 25
    assert len(data["witness_families"]) == 2
    assert all(w["monotone"] for w in data["witness_families"])
    assert data["component_attained"] == [True, True]
    assert data["max_plane_distance"] <= 0.01


def test_verify_fails_on_unreachable_tolerance(capsys, fixtures_dir):
    code, data, _ = run_json(
        capsys,
        "verify",
        fixture(fixtures_dir, "space_cusp"),
        "--samples", "10",
        "--tolerance", "1e-9",
    )
    assert code == 1
    assert data["pass"] is False


@pytest.mark.parametrize("flags", [
    ["--radii", "0.7"],
    ["--radii", "0.001", "0.01"],
    ["--radii", "0.01", "0.01"],
    ["--samples", "0"],
], ids=["radius-above-half", "radii-increasing", "radii-equal", "no-samples"])
def test_verify_rejects_out_of_range_sampling_flags(capsys, fixtures_dir, flags):
    code, out, err = run(
        capsys, "verify", fixture(fixtures_dir, "smooth_plane"), *flags
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InvalidSamplingParameter"


@pytest.mark.parametrize("tolerance", ["nan", "inf", "1", "0", "-1"])
def test_verify_rejects_tolerance_outside_the_unit_interval(
    capsys, fixtures_dir, monkeypatch, tolerance
):
    # a plane distance never exceeds 1: a tolerance of 1 or more passes
    # every cone, one of 0 or less none, and NaN would print invalid JSON
    def no_work(*args, **kwargs):
        raise AssertionError("verify started cone or sampling work")

    monkeypatch.setattr(c5cone.cli, "Analysis", no_work)
    monkeypatch.setattr(c5cone.cli, "sample_secant_directions", no_work)
    code, out, err = run(
        capsys,
        "verify",
        fixture(fixtures_dir, "space_cusp"),
        "--tolerance", tolerance,
    )
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidSamplingParameter"
    assert "tolerance" in diagnostic["detail"]


def test_verify_rejects_too_many_samples_before_any_work(
    capsys, fixtures_dir, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("verify started cone or sampling work")

    monkeypatch.setattr(c5cone.cli, "Analysis", no_work)
    monkeypatch.setattr(c5cone.cli, "cone_witness_results", no_work)
    monkeypatch.setattr(c5cone.cli, "sample_secant_directions", no_work)
    code, out, err = run(
        capsys,
        "verify",
        fixture(fixtures_dir, "space_cusp"),
        "--samples", str(MAX_SAMPLES + 1),
    )
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidSamplingParameter"
    assert str(MAX_SAMPLES) in diagnostic["detail"]


def _no_verify_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("verify started cone or sampling work")

    for name in ("Analysis", "cone_witness_results", "sample_secant_directions"):
        monkeypatch.setattr(c5cone.cli, name, no_work)


def _radii(count):
    return [str(0.5 * 0.9**i) for i in range(count)]


def test_verify_refuses_a_sampling_total_above_the_budget(
    capsys, fixtures_dir, monkeypatch
):
    # four branches give 10 sources: 10 x 20 radii x 10,000 samples is the
    # limit itself, and one more radius at 9,524 samples is 40 above it
    assert MAX_TOTAL_SAMPLES == 10 * 20 * 10_000
    assert len(check_sampling_parameters(_radii(20), MAX_SAMPLES, 4)) == 20
    _no_verify_work(monkeypatch)
    code, out, err = run(
        capsys, "verify", fixture(fixtures_dir, "four_branches"),
        "--radii", *_radii(21), "--samples", "9524",
    )
    assert (code, out) == (2, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidSamplingParameter"
    assert (diagnostic["total"], diagnostic["limit"]) == (2_000_040, MAX_TOTAL_SAMPLES)
    assert "10 sources x 21 radii x 9524 samples" in diagnostic["detail"]


def test_verify_refuses_more_radii_than_the_cap(capsys, fixtures_dir, monkeypatch):
    assert len(check_sampling_parameters(_radii(MAX_RADII), 1)) == MAX_RADII
    _no_verify_work(monkeypatch)
    code, out, err = run(
        capsys, "verify", fixture(fixtures_dir, "space_cusp"),
        "--radii", *_radii(MAX_RADII + 1), "--samples", "1",
    )
    assert (code, out) == (2, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidSamplingParameter"
    assert f"at most {MAX_RADII} radii" in diagnostic["detail"]


def test_verify_rejects_an_overflowing_secant(capsys, tmp_path):
    # x = u, y = C*(u + u^2 + u^3 + u^4), C = 1.7e308: every value is finite
    # in doubles, but secants across the disc of radius 0.5 are not; they
    # used to read as distances 0.0 and 1.0, and verify passed
    coeff = [{"num": 17 * 10**307, "den": 1, "zeta_order": 1, "zeta_pow": 0}]
    one = [{"num": 1, "den": 1, "zeta_order": 1, "zeta_pow": 0}]
    doc = {
        "version": 1,
        "n": 2,
        "branches": [{
            "label": "b1",
            "coords": [
                [{"exp": 1, "coeff": one}],
                [{"exp": e, "coeff": coeff} for e in (1, 2, 3, 4)],
            ],
        }],
    }
    path = tmp_path / "overflowing_secant.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "verify", str(path), "--radii", "0.5", "0.45", "--samples", "2000"
    )
    assert (code, out) == (2, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "FloatingPointOverflow"
    assert diagnostic["radius"] == 0.5


def test_verify_rejects_a_witness_target_below_double_range(capsys, tmp_path):
    # (u, 2^-1100*u + u^2) and (u, 2^-1099*u + u^3) are not tangent, and
    # the target of their witness family, the difference (0, -2^-1100) of
    # the tangents, is the zero vector in doubles; verify used to end in a
    # ZeroDivisionError traceback
    def term(exp, den=1):
        return {"exp": exp, "coeff": [{"num": 1, "den": den, "zeta_order": 1, "zeta_pow": 0}]}

    doc = {
        "version": 1,
        "n": 2,
        "branches": [
            {"label": "b1", "coords": [[term(1)], [term(1, 2**1100), term(2)]]},
            {"label": "b2", "coords": [[term(1)], [term(1, 2**1099), term(3)]]},
        ],
    }
    path = tmp_path / "underflowing_target.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--samples", "5")
    assert (code, out) == (2, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "FloatingPointUnderflow"
    assert diagnostic["labels"] == ["b1", "b2"]


@pytest.mark.parametrize("spec", [
    # ROADMAP item 11's tangent pair at m = 840: its cone took 1.7 s
    pencil_pairs(840)["single_entry"],
    # one image twice (u -> -u at even m): the cone raised DuplicateBranch
    # before the sampler could see the leading terms
    [[100, [(101, 1)]], [100, [(101, -1)]]],
])
def test_verify_refuses_an_underflowing_leading_term_before_any_analysis(
    capsys, monkeypatch, tmp_path, spec
):
    # u^m at the smallest default radius, 0.001, is below double range
    # for m > 90: m and the radius decide it, so no Analysis is built
    monkeypatch.setattr(c5cone.cli, "Analysis", None)
    path = tmp_path / "high_multiplicity.json"
    path.write_text(json.dumps(document(spec)))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "FloatingPointUnderflow"
    assert (diagnostic["label"], diagnostic["radius"]) == ("b1", 0.001)
    assert diagnostic["multiplicity"] in (100, 840)


@pytest.mark.parametrize("radius", [5e-324, 1e-320])
def test_verify_refuses_a_subnormal_smallest_radius(capsys, radius):
    # half of 5e-324 rounds to 0.0; 1e-320 takes the log10 test
    path = FIXTURES / "smooth_plane.json"
    code, out, err = run(capsys, "verify", str(path), "--radii", "0.1", str(radius))
    assert (code, out) == (2, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "FloatingPointUnderflow"
    assert (diagnostic["label"], diagnostic["multiplicity"]) == ("b1", 1)
    assert diagnostic["radius"] == radius


def test_verify_evaluates_exponents_beyond_float_range(capsys, tmp_path):
    one = [{"num": 1, "den": 1, "zeta_order": 1, "zeta_pow": 0}]
    doc = {
        "version": 1,
        "n": 2,
        "branches": [{
            "label": "b1",
            "coords": [
                [{"exp": 2, "coeff": one}],
                [{"exp": 10**400 + 1, "coeff": one}],
            ],
        }],
    }
    path = tmp_path / "huge_exponent.json"
    path.write_text(json.dumps(doc))
    code, data, _ = run_json(capsys, "verify", str(path), "--samples", "25")
    assert code == 0
    assert data["pass"] is True
    assert [w["skipped"] for w in data["witness_families"]] == [True]


def test_verify_rejects_a_coefficient_beyond_double_range(capsys, fixtures_dir, tmp_path):
    # its double is infinite: the secants would be NaN and every distance
    # would read 0.0, a false pass
    doc = json.loads((fixtures_dir / "space_cusp.json").read_text())
    doc["branches"][0]["coords"][2][0]["coeff"][0]["num"] = 10**400
    path = tmp_path / "huge_coefficient.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--samples", "5")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FloatingPointOverflow"


def _non_leading_terms(doc):
    """(branch, coordinate, term) of every term above its branch's order."""
    for b, branch in enumerate(doc["branches"]):
        m = min(term["exp"] for coord in branch["coords"] for term in coord)
        for c, coord in enumerate(branch["coords"]):
            for t, term in enumerate(coord):
                if term["exp"] > m:
                    yield b, c, t


@pytest.mark.parametrize("name", SMALL)
def test_verify_rejects_any_non_leading_coefficient_beyond_double_range(
    capsys, fixtures_dir, tmp_path, name
):
    doc = json.loads((fixtures_dir / f"{name}.json").read_text())
    sites = list(_non_leading_terms(doc))
    assert sites
    path = tmp_path / "huge_coefficient.json"
    for b, c, t in sites:
        huge = copy.deepcopy(doc)
        huge["branches"][b]["coords"][c][t]["coeff"][0]["num"] = 10**400
        path.write_text(json.dumps(huge))
        code, out, err = run(capsys, "verify", str(path), "--samples", "5")
        assert (code, out) == (2, ""), (b, c, t)
        assert json.loads(err)["error"] == "FloatingPointOverflow", (b, c, t)


def test_verify_rejects_wrong_override_planes(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "verify",
        fixture(fixtures_dir, "space_cusp"),
        "--samples", "10",
        "--override-planes", "[[0,1,0],[0,0,1]]",
    )
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    assert data["witness_families"] == []
    assert data["max_plane_distance"] > 0.5


def test_verify_rejects_override_planes_of_another_width(capsys, fixtures_dir):
    # 2-entry rows on a 3-space curve: each sampled direction would be cut
    # to two entries and pass against them
    code, out, err = run(
        capsys,
        "verify",
        fixture(fixtures_dir, "space_cusp"),
        "--override-planes", "[[1,0],[0,1]]",
    )
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "DimensionMismatch",
        "detail": "a cone component lives in dimension 2, the curve in 3",
        "dims": [2, 3],
    }


@pytest.mark.parametrize("matrix, widths", [
    ("[[1,0,0],[0,1]]", [3, 2]),
    ("[[0,1],[1,0,0]]", [2, 3]),
    ("[[1,0,0],[0,1,0,5]]", [3, 4]),
])
def test_verify_rejects_ragged_override_planes(capsys, fixtures_dir, matrix, widths):
    # a short row must not be read as zero-padded, nor a long row's tail
    # dropped: the plane is refused before any sampling
    code, out, err = run(
        capsys,
        "verify",
        fixture(fixtures_dir, "space_cusp"),
        "--override-planes", matrix,
    )
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "DimensionMismatch",
        "detail": f"expected two rows of one width, got widths {widths}",
        "dims": widths,
    }


def test_verify_override_needs_row_pairs(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "verify",
        fixture(fixtures_dir, "space_cusp"),
        "--override-planes", "[[0,1,0]]",
    )
    assert code == 2
    assert json.loads(err)["error"] == "InvalidDocument"


# ---------------------------------------------------------------------------
# error contract


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "analyze", "/nonexistent/curve.json")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidDocument"
    assert "cannot read" in payload["detail"]


def test_huge_root_order_exits_two(capsys, tmp_path):
    summand = {"num": 1, "den": 1, "zeta_order": 10**9, "zeta_pow": 10**9 - 1}
    doc = {
        "version": 1,
        "n": 2,
        "branches": [{
            "label": "b1",
            "coords": [
                [{"exp": 2, "coeff": [summand]}],
                [{"exp": 3, "coeff": [summand]}],
            ],
        }],
    }
    path = tmp_path / "huge_root.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConductorLimitExceeded"


def test_integer_past_the_digit_limit_exits_two(capsys, fixtures_dir, tmp_path):
    digits = "1" * 5000
    path = tmp_path / "long_integer.json"
    path.write_text('{"version": ' + digits + "}")
    kernel = "[[0, 0, " + digits + "]]"
    space_cusp = fixture(fixtures_dir, "space_cusp")
    for argv in (["analyze", str(path)], ["project", space_cusp, "--kernel", kernel]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "InvalidDocument"


def test_document_that_is_not_utf8_exits_two(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'\xff\xfe{"version": 1}')
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "InvalidDocument"
    assert "not valid UTF-8" in payload["detail"]


DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("where", ["document", "--kernel", "--override-planes"])
def test_deeply_nested_json_exits_two(capsys, fixtures_dir, tmp_path, where):
    # 5,000 levels exceed the decoder's recursion limit: a JSON diagnostic,
    # not a RecursionError traceback
    space_cusp = fixture(fixtures_dir, "space_cusp")
    path = tmp_path / "deep.json"
    path.write_text('{"version": 1, "n": ' + DEEP + "}")
    argv = {
        "document": ["analyze", str(path)],
        "--kernel": ["project", space_cusp, "--kernel", DEEP],
        "--override-planes": ["verify", space_cusp, "--override-planes", DEEP],
    }[where]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "InvalidDocument"
    assert "recursion" in payload["detail"]


def test_bad_kernel_matrix_exits_two(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "project",
        fixture(fixtures_dir, "space_cusp"),
        "--kernel", "oops",
    )
    assert code == 2
    assert json.loads(err)["error"] == "InvalidDocument"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.1.0"


def test_help_flag_exits_zero(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: c5cone")


@pytest.mark.parametrize("argv, detail", [
    (["verify", "SPACE_CUSP", "--samples", "abc"], "invalid int value: 'abc'"),
    (["verify", "SPACE_CUSP", "--radii", "x"], "invalid float value: 'x'"),
    (["verify", "SPACE_CUSP", "--json"], "unrecognized arguments: --json"),
    ([], "the following arguments are required: command"),
    (["analyze"], "the following arguments are required: file"),
    (["project", "SPACE_CUSP"], "one of the arguments --kernel --auto is required"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
])
def test_flags_argparse_rejects_exit_two_with_a_diagnostic(capsys, fixtures_dir, argv, detail):
    space_cusp = fixture(fixtures_dir, "space_cusp")
    code, out, err = run(capsys, *(space_cusp if a == "SPACE_CUSP" else a for a in argv))
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidArgument"
    assert detail in diagnostic["detail"]


# ---------------------------------------------------------------------------
# entry point


def test_parser_is_built_once_and_handlers_looked_up_per_call(
    capsys, fixtures_dir, monkeypatch
):
    space_cusp = fixture(fixtures_dir, "space_cusp")
    first, _, _ = run_json(capsys, "compare", space_cusp, space_cusp, "--json")
    parser = c5cone.cli._parser()
    seen = []

    def handler(args):
        seen.append(args.file_a)
        return 7

    monkeypatch.setattr(c5cone.cli, "cmd_compare", handler)
    assert main(["compare", space_cusp, space_cusp]) == 7
    assert seen == [space_cusp]
    monkeypatch.undo()
    again, data, _ = run_json(capsys, "compare", space_cusp, space_cusp, "--json")
    assert c5cone.cli._parser() is parser
    assert (first, again, data["equivalent"]) == (0, 0, True)
