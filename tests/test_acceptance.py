"""Acceptance battery: one check per shipped guarantee, one line per verdict.

Each test prints exactly one line

    criterion NN PASS|FAIL (elapsed < budget): detail

to the terminal (bypassing capture), enforces its time budget, and fails
loudly if the guarantee does not hold. Random checks use fixed seeds so
failures reproduce.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from c5cone import (
    bound1,
    bound2,
    c5_cone,
    cham,
    coam,
    cone_witness_results,
    contact_structure,
    intersection_multiplicity,
    is_c5_generic,
    read_curve,
    sample_secant_directions,
    verify_projection_invariance,
)
from c5cone.cli import main
from c5cone.geometry import Plane
from random_curves import (
    engineered_nongeneric_projection,
    random_curve_with_cone,
    random_normal_shape_projection,
    random_plane_branch_curve,
    random_space_branch_curve,
)
from reference_aux import characteristic_reference

TOLERANCE = 1e-2
_FULL_GROUP_CAP = 32  # full root-group enumeration is priced per root


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_json(*argv):
    code, out, _ = run_cli(*argv)
    return code, json.loads(out)


def check(capsys, num, budget, body):
    start = time.perf_counter()
    try:
        detail = body()
    except BaseException as exc:
        elapsed = time.perf_counter() - start
        _emit(capsys, num, "FAIL", elapsed, budget, _first_line(exc))
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        _emit(capsys, num, "FAIL", elapsed, budget, f"{detail}; over time budget")
        pytest.fail(f"criterion {num:02d} took {elapsed:.2f}s, budget {budget:g}s")
    _emit(capsys, num, "PASS", elapsed, budget, detail)


def _first_line(exc):
    text = str(exc).strip()
    return text.splitlines()[0] if text else type(exc).__name__


def _emit(capsys, num, status, elapsed, budget, detail):
    with capsys.disabled():
        print(
            f"criterion {num:02d} {status} ({elapsed:.2f}s < {budget:g}s): {detail}",
            flush=True,
        )


def fixture(fixtures_dir, name):
    return str(fixtures_dir / f"{name}.json")


# ---------------------------------------------------------------------------


def test_criterion_01_mixed_curve_report(capsys, fixtures_dir):
    def body():
        code, data = cli_json(
            "analyze", fixture(fixtures_dir, "four_branches"), "--json"
        )
        assert code == 0, "analyze must exit 0"
        eqs = [comp["equations"] for comp in data["cone"]["components"]]
        assert eqs == [
            ["y"], ["y + z"], ["y + 2*z"], ["z"],
            ["y - z"], ["y - 2*z"], ["x - z"],
        ], f"expected the seven known planes, got {eqs}"
        recs = data["aux_records"]
        assert len(recs) == 22, f"expected 22 auxiliary rows, got {len(recs)}"
        b1_rows = [
            (r["k"], r["m_theta"], r["plane_equations"])
            for r in recs
            if r["kind"] == "characteristic" and r["labels"] == ["b1"]
        ]
        assert b1_rows == [(1, 6, ["z"]), (2, 9, ["y"]), (3, 6, ["z"])]
        contact_rows = [r for r in recs if r["kind"] == "contact"]
        assert len(contact_rows) == 12
        assert all(r["m_theta"] == 18 for r in contact_rows)
        assert data["cone"]["product_equation"] == (
            "x*y^5*z - 5*x*y^3*z^3 + 4*x*y*z^5 - y^5*z^2 + 5*y^3*z^4 - 4*y*z^6"
        )
        assert data["bounds"] == {"bound1": 27, "bound2": 22}
        return "7 cone planes, 22 auxiliary rows, product equation and bounds"

    check(capsys, 1, 1.0, body)


def test_criterion_02_space_cusp_report(capsys, fixtures_dir):
    def body():
        code, data = cli_json(
            "analyze", fixture(fixtures_dir, "space_cusp"), "--json"
        )
        assert code == 0, "analyze must exit 0"
        eqs = [comp["equations"] for comp in data["cone"]["components"]]
        assert eqs == [["y"], ["z"]], f"expected planes y=0 and z=0, got {eqs}"
        rows = [
            (r["k"], r["theta"], r["m_theta"], r["plane_equations"])
            for r in data["aux_records"]
        ]
        assert rows == [
            (1, "1*z(4,1)", 6, ["z"]),
            (2, "-1", 7, ["y"]),
            (3, "-1*z(4,1)", 6, ["z"]),
        ], f"unexpected auxiliary rows {rows}"
        return "2 cone planes with their three root records"

    check(capsys, 2, 0.1, body)


def test_criterion_03_plane_count_ladder(capsys, fixtures_dir):
    expected = {
        "m16_one_plane": [["y"]],
        "m16_two_planes": [["y"], ["z"]],
        "m16_three_planes": [["y"], ["z"], ["y - z"]],
        "m16_four_planes": [["y"], ["y + z"], ["z"], ["y - z"]],
    }

    def body():
        for name, planes in expected.items():
            code, data = cli_json("analyze", fixture(fixtures_dir, name), "--json")
            assert code == 0, f"analyze {name} must exit 0"
            eqs = [comp["equations"] for comp in data["cone"]["components"]]
            assert eqs == planes, f"{name}: expected {planes}, got {eqs}"
        names = list(expected)
        compared = 0
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                code, _, _ = run_cli(
                    "compare",
                    fixture(fixtures_dir, names[i]),
                    fixture(fixtures_dir, names[j]),
                )
                assert code == 0, f"{names[i]} vs {names[j]} must compare equal"
                compared += 1
        assert compared == 6
        return "plane counts 1,2,3,4 at multiplicity 16; all 6 pairs equivalent"

    check(capsys, 3, 5.0, body)


def test_criterion_04_same_order_contact_planes(capsys, fixtures_dir):
    def body():
        c = read_curve(fixture(fixtures_dir, "same_order_contact"))
        cone = c5_cone(c)
        keys = {comp.key() for comp in cone.components}
        assert len(cone.components) == 5, (
            f"expected exactly 5 planes, got {len(cone.components)}"
        )
        assert len(keys) == 5, "cone planes must be pairwise distinct"
        assert bound2(c) == 5, f"expected bound 5, got {bound2(c)}"
        contact_planes = {
            comp.key()
            for comp, prov in zip(cone.components, cone.provenance)
            if any(d[0] == "contact" for d in prov)
        }
        assert len(contact_planes) == 3, (
            "the three equal-order contact planes must stay distinct"
        )
        return "5 distinct planes attain the refined bound; contact planes split"

    check(capsys, 4, 1.0, body)


def test_criterion_05_intersection_numbers_separate_pairs(capsys, fixtures_dir):
    def pair_intersection(name):
        b1, b2 = read_curve(fixture(fixtures_dir, name)).branches
        n = math.lcm(b1.m, b2.m)
        return intersection_multiplicity(coam(b1, b2), n // b1.m, n // b2.m)

    def body():
        i_a = pair_intersection("tangent_pair_i19")
        i_b = pair_intersection("tangent_pair_i20")
        assert (i_a, i_b) == (19, 20), f"expected 19 and 20, got {i_a} and {i_b}"
        code, _, _ = run_cli(
            "compare",
            fixture(fixtures_dir, "tangent_pair_i19"),
            fixture(fixtures_dir, "tangent_pair_i20"),
        )
        assert code == 1, (
            "pairs with intersection numbers 19 and 20 must compare as "
            f"inequivalent, but compare exits {code}"
        )
        return "intersection numbers 19 and 20 separate the two pairs"

    check(capsys, 5, 0.5, body)


def test_criterion_06_contact_structure(capsys, fixtures_dir):
    def body():
        c = read_curve(fixture(fixtures_dir, "contact_structure_pair"))
        b1, b2 = c.branches
        seq = coam(b1, b2)
        cs = contact_structure(b1, b2, seq)
        got = (cs.tau, cs.betas, cs.E, cs.q, cs.delta, cs.counts)
        want = (2, (36, 66), (24, 12, 6), 1, 60, {36: 12, 60: 12})
        assert got == want, f"contact structure {got} != {want}"
        i = intersection_multiplicity(seq, 3, 2)
        assert i == 192, f"expected intersection number 192, got {i}"
        return "structure (tau 2, E-chain 24,12,6, delta 60) and intersection 192"

    check(capsys, 6, 0.5, body)


def test_criterion_07_family_fibers(capsys, fixtures_dir):
    def body():
        code0, data0 = cli_json(
            "analyze", fixture(fixtures_dir, "family_fiber_0"), "--json"
        )
        code1, data1 = cli_json(
            "analyze", fixture(fixtures_dir, "family_fiber_1"), "--json"
        )
        assert code0 == 0 and code1 == 0
        assert data0["cone"]["count"] == 1, "generic fiber must have one plane"
        assert data1["cone"]["count"] == 2, "special fiber must have two planes"
        assert data0["cham"]["b1"] == data1["cham"]["b1"] == [6, 9, 10]
        code, _, _ = run_cli(
            "compare",
            fixture(fixtures_dir, "family_fiber_0"),
            fixture(fixtures_dir, "family_fiber_1"),
        )
        assert code == 0, "equal multiplicity profiles must compare equivalent"
        return "plane count jumps 1 to 2 while the profile stays equivalent"

    check(capsys, 7, 0.5, body)


def test_criterion_08_bounds_and_class_invariance(capsys, fixtures_dir, fixture_names):
    def examine(c, cone, what):
        planes = [p for p in cone.components if isinstance(p, Plane)]
        b2, b1 = bound2(c), bound1(c)
        assert len(planes) <= b2 <= b1, (
            f"{what}: {len(planes)} planes vs bounds {b2} <= {b1}"
        )
        tangents = [b.tangent for b in c.branches]
        for p in planes:
            assert any(p.contains(t) for t in tangents), (
                f"{what}: a cone plane misses every branch tangent"
            )
        for b in c.branches:
            if b.m > _FULL_GROUP_CAP:
                continue
            by_class = {}
            for k in range(1, b.m):
                ref = characteristic_reference(b, k)
                by_class.setdefault(math.gcd(k, b.m), set()).add(
                    (ref.m_theta, ref.plane.key())
                )
            for cls, vals in by_class.items():
                assert len(vals) == 1, (
                    f"{what}: branch {b.label} root class {cls} is inconsistent"
                )

    def body():
        for name in fixture_names:
            c = read_curve(fixture(fixtures_dir, name))
            examine(c, c5_cone(c), name)
        rng = random.Random(8)
        for index in range(200):
            c, cone = random_curve_with_cone(
                rng, max_n=4, max_r=3, max_m=6, max_exp=30
            )
            examine(c, cone, f"random curve {index}")
        return (
            f"{len(fixture_names)} fixtures and 200 random curves: counts "
            "within bounds, tangents covered, root classes consistent"
        )

    check(capsys, 8, 60.0, body)


def test_criterion_09_genericity_matches_invariance(capsys):
    def body():
        rng = random.Random(9)
        generic_seen = 0
        nongeneric_seen = 0
        for _ in range(100):
            c = random_space_branch_curve(rng)
            cone = c5_cone(c)
            planes = [p for p in cone.components if isinstance(p, Plane)]
            projections = [
                engineered_nongeneric_projection(p) for p in planes[:2]
            ]
            while len(projections) < 5:
                projections.append(random_normal_shape_projection(rng, c.n))
            for proj in projections:
                generic = is_c5_generic(c, proj).generic
                invariant = verify_projection_invariance(c, proj)
                assert generic == invariant, (
                    f"genericity {generic} but invariance {invariant} for "
                    f"{[b.param.text() for b in c.branches]} under "
                    f"{[[e.text() for e in row] for row in proj.matrix]}"
                )
                if generic:
                    generic_seen += 1
                else:
                    nongeneric_seen += 1
        assert generic_seen and nongeneric_seen, "expected a mix of verdicts"
        return (
            f"500 projections on 100 curves: genericity and profile "
            f"invariance agree ({generic_seen} generic, {nongeneric_seen} not)"
        )

    check(capsys, 9, 60.0, body)


def test_criterion_10_plane_branch_exponents(capsys):
    def gcd_chain(m, exponents):
        chain, g = [m], m
        for e in sorted(exponents):
            if e % g:
                chain.append(e)
                g = math.gcd(g, e)
        return frozenset(chain)

    def body():
        rng = random.Random(10)
        for _ in range(100):
            b = random_plane_branch_curve(rng, max_m=8).branches[0]
            support = [e for e, _ in b.param.coords[1].terms]
            expected = gcd_chain(b.m, support)
            got = cham(b)
            assert got == expected, (
                f"{b.param.text()}: multiplicity set {sorted(got)} differs "
                f"from the exponent chain {sorted(expected)}"
            )
        return "100 plane branches: multiplicity sets equal the exponent chains"

    check(capsys, 10, 10.0, body)


def test_criterion_11_numeric_cross_check(capsys, fixtures_dir):
    def body():
        for name in ("space_cusp", "four_branches"):
            c = read_curve(fixture(fixtures_dir, name))
            cone = c5_cone(c)
            report = sample_secant_directions(
                c, radii=(1e-2, 1e-3), k=200, cone=cone
            )
            assert report.max_plane_distance <= TOLERANCE, (
                f"{name}: sampled secants stray {report.max_plane_distance:.2e} "
                f"from the cone at radius 1e-3"
            )
            witnesses = cone_witness_results(c)
            assert len(witnesses) == len(cone.components)
            for w in witnesses:
                assert not w.skipped, f"{name}: witness {w.labels} k={w.k} skipped"
                assert w.monotone, (
                    f"{name}: witness {w.labels} k={w.k} does not converge "
                    f"monotonically, distances {w.target_distances}"
                )
                assert w.final_plane_distance <= TOLERANCE, (
                    f"{name}: witness {w.labels} k={w.k} ends "
                    f"{w.final_plane_distance:.2e} from its plane"
                )
        return (
            "400 sampled secants per curve stay within 1e-2; every component "
            "attained by a monotone witness family"
        )

    check(capsys, 11, 30.0, body)
