"""The bi-secant limit cone: components, provenance, bounds, product form."""

import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from c5cone import (
    Analysis,
    CycloScalar,
    Direction,
    EngineError,
    IncompatibleSystem,
    UnsupportedDimension,
    auxiliary,
    bound1,
    bound2,
    c5,
    c5_cone,
    classify,
    curve_from_exponents,
    geometry,
    polynomial_text,
    product_equation,
    oracle,
    profile,
    read_curve,
    sigma,
    write_curve,
    zeta,
)
from c5cone.c5 import integer_form
from c5cone.cli import component_equations, form_text, main, variable_names
from c5cone.geometry import Plane
from pencil_curves import TWO_TANGENT_CLASSES, document, pencil_pairs
from random_curves import random_curve, random_curve_with_cone
from reference_aux import PerClassAnalysis, characteristic_reference, contact_reference


def cone_equations(c, cone=None):
    cone = cone or c5_cone(c)
    names = variable_names(c.n)
    return [component_equations(comp, names) for comp in cone.components]


# ---------------------------------------------------------------------------
# sigma and the two plane-count bounds


def test_sigma_known_values():
    assert sigma(1) == 1
    assert sigma(2) == 2
    assert sigma(3) == 2
    assert sigma(6) == 3
    assert sigma(12) == 4
    assert sigma(16) == 5


def test_sigma_counts_prime_factors_with_multiplicity():
    def omega(n):
        count, d = 0, 2
        while n > 1:
            while n % d == 0:
                n //= d
                count += 1
            d += 1
        return count

    for n in range(1, 80):
        assert sigma(n) == 1 + omega(n)


@pytest.mark.parametrize(
    "name, b1, b2",
    [
        ("four_branches", 27, 22),
        ("space_cusp", 3, 2),
        ("m16_one_plane", 15, 4),
        ("same_order_contact", 7, 5),
        ("family_fiber_0", 5, 2),
        ("family_fiber_1", 5, 2),
        ("smooth_space", 0, 0),
    ],
)
def test_bounds_on_fixtures(load, name, b1, b2):
    c = load(name)
    assert bound1(c) == b1
    assert bound2(c) == b2


def test_bound2_never_exceeds_bound1():
    rng = random.Random(11)
    for _ in range(30):
        c, _ = random_curve_with_cone(rng)
        assert bound2(c) <= bound1(c)


# ---------------------------------------------------------------------------
# cone components


def test_cone_of_mixed_curve(load):
    c = load("four_branches")
    cone = c5_cone(c)
    assert cone.dimension == 2
    assert cone_equations(c, cone) == [
        ["y"], ["y + z"], ["y + 2*z"], ["z"],
        ["y - z"], ["y - 2*z"], ["x - z"],
    ]


def test_cone_provenance_merges_coinciding_planes(load):
    c = load("four_branches")
    cone = c5_cone(c)
    assert len(cone.provenance) == len(cone.components)
    first = cone.provenance[0]
    assert ("characteristic", ("b1",), 2) in first
    assert [d for d in first if d[0] == "contact"] == [
        ("contact", ("b1", "b2"), k) for k in (1, 3, 5, 7, 9, 11)
    ]
    nt_plane = cone.provenance[-1]
    assert nt_plane == (("non-tangent", ("b3", "b4"), -1),)


def test_cone_of_space_cusp(load):
    c = load("space_cusp")
    cone = c5_cone(c)
    assert cone_equations(c, cone) == [["y"], ["z"]]
    assert cone.provenance == (
        (("characteristic", ("b1",), 2),),
        (("characteristic", ("b1",), 1),),
    )


@pytest.mark.parametrize(
    "name, planes",
    [
        ("m16_one_plane", [["y"]]),
        ("m16_two_planes", [["y"], ["z"]]),
        ("m16_three_planes", [["y"], ["z"], ["y - z"]]),
        ("m16_four_planes", [["y"], ["y + z"], ["z"], ["y - z"]]),
    ],
)
def test_plane_count_ladder_at_fixed_multiplicity(load, name, planes):
    c = load(name)
    assert cone_equations(c) == planes


def test_same_multiplicity_contact_planes_are_distinct(load):
    c = load("same_order_contact")
    cone = c5_cone(c)
    keys = {comp.key() for comp in cone.components}
    assert len(cone.components) == len(keys) == 5
    assert len(cone.components) == bound2(c)


def test_fiber_deformation_gains_a_plane(load):
    assert cone_equations(load("family_fiber_0")) == [["z"]]
    assert cone_equations(load("family_fiber_1")) == [["z"], ["y - z"]]


def test_smooth_branch_cone_is_the_tangent_line(load):
    for name in ("smooth_plane", "smooth_space"):
        c = load(name)
        cone = c5_cone(c)
        assert cone.dimension == 1
        assert len(cone.components) == 1
        assert cone.components[0] == c.branches[0].tangent
        assert cone.provenance == ((("tangent", ("b1",), -1),),)


def test_every_plane_contains_a_branch_tangent():
    rng = random.Random(12)
    for _ in range(30):
        c, cone = random_curve_with_cone(rng)
        tangents = [b.tangent for b in c.branches]
        for comp in cone.components:
            if isinstance(comp, Plane):
                assert any(comp.contains(t) for t in tangents)
        planes = [p for p in cone.components if isinstance(p, Plane)]
        assert len(planes) <= bound2(c)


# ---------------------------------------------------------------------------
# product equation


def test_integer_normalized_form_clears_denominators():
    form = (
        CycloScalar.rational(0),
        CycloScalar.rational(1),
        CycloScalar.rational(Fraction(-1, 2)),
    )
    assert integer_form(form) == (0, 2, -1)


def test_integer_normalized_form_makes_leading_positive():
    form = (CycloScalar.rational(Fraction(-2, 3)), CycloScalar.rational(4))
    assert integer_form(form) == (1, -6)


def test_product_equation_of_mixed_curve(load):
    cone = c5_cone(load("four_branches"))
    text = polynomial_text(product_equation(cone))
    assert text == (
        "x*y^5*z - 5*x*y^3*z^3 + 4*x*y*z^5 - y^5*z^2 + 5*y^3*z^4 - 4*y*z^6"
    )


def test_product_equation_degree_matches_plane_count(load):
    cone = c5_cone(load("space_cusp"))
    poly = product_equation(cone)
    assert max(sum(e) for e in poly) == len(cone.components)
    text = polynomial_text(poly)
    assert text == "y*z"


def test_product_equation_spells_coefficients_as_the_plane_does(tmp_path, capsys):
    # the cone is one plane, whose equation has a coefficient outside Q...
    c = curve_from_exponents([[2, 3, [(3, -1 - zeta(3))]]])
    path = tmp_path / "curve.json"
    write_curve(path, c)
    assert main(["analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    (component,) = [line for line in lines if line.startswith("  component 1: ")]
    (product,) = [line for line in lines if line.startswith("product equation: ")]
    equation = component.split("V(", 1)[1].rsplit(") from ", 1)[0]
    # ...whose text holds a '+ -', which the product keeps too
    assert "+ -" in equation
    assert product == f"product equation: {equation}"


def test_form_text_is_polynomial_text_of_degree_one():
    rng = random.Random(23)
    values = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), zeta(3), -zeta(3),
              -1 - zeta(3), zeta(4) - 2, 1 - zeta(6)]
    names = ("x", "y", "z")
    seen = set()
    for _ in range(400):
        form = [rng.choice(values) for _ in names]
        form = [v if isinstance(v, CycloScalar) else CycloScalar.rational(v) for v in form]
        poly = {m: v for m, v in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), form) if v}
        text = form_text(form, names)
        assert text == polynomial_text(poly, names)
        seen.add((any(not v.is_rational() for v in form), " - " in text))
    # non-rational forms with a negative later term are among them
    assert (True, True) in seen


def test_product_equation_needs_planes_in_three_space(load):
    with pytest.raises(UnsupportedDimension):
        product_equation(c5_cone(load("smooth_plane")))
    with pytest.raises(UnsupportedDimension):
        product_equation(c5_cone(load("same_order_contact")))


# ---------------------------------------------------------------------------
# one analysis per curve


def count_engine_calls(monkeypatch, names, home=auxiliary):
    """Count calls of the named functions of the module home (default: the
    auxiliary module; its own or imported), in every engine module that
    holds a reference to them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            engine = module_name.split(".")[0] == "c5cone"
            if engine and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def plane_builds(monkeypatch):
    """The rows of every Plane built."""
    built, init = [], Plane.__init__
    monkeypatch.setattr(
        Plane, "__init__", lambda self, rows: (built.append(rows), init(self, rows))[1]
    )
    return built


@pytest.fixture
def record_builds(monkeypatch):
    """Count the auxiliary records built, by kind."""
    counts = {"characteristic": 0, "contact": 0}
    build = c5.AuxRecord

    def counted(*args, **kwargs):
        record = build(*args, **kwargs)
        counts[record.kind] += 1
        return record

    monkeypatch.setattr(c5, "AuxRecord", counted)
    return counts


@pytest.mark.parametrize("name, characteristic, contact", [
    ("contact_structure_pair", 18, 24),
    ("four_branches", 10, 12),
])
def test_analyze_builds_each_record_once(
    record_builds, capsys, fixtures_dir, name, characteristic, contact
):
    assert main(["analyze", "--json", str(fixtures_dir / f"{name}.json")]) == 0
    capsys.readouterr()
    assert record_builds == {"characteristic": characteristic, "contact": contact}


@pytest.mark.parametrize("command, flags, name, characteristic, contact", [
    ("project", ["--auto"], "space_cusp", 0, 0),
    ("verify", [], "four_branches", 0, 0),
])
def test_project_and_verify_read_one_analysis(
    record_builds, capsys, fixtures_dir, command, flags, name, characteristic, contact
):
    assert main([command, str(fixtures_dir / f"{name}.json"), *flags]) == 0
    capsys.readouterr()
    assert record_builds == {"characteristic": characteristic, "contact": contact}


def test_analyze_classifies_once(monkeypatch, capsys, fixtures_dir):
    counts = count_engine_calls(monkeypatch, ("classify",), geometry)
    for name in ("four_branches", "contact_structure_pair", "space_cusp"):
        counts["classify"] = 0
        assert main(["analyze", "--json", str(fixtures_dir / f"{name}.json")]) == 0
        data = json.loads(capsys.readouterr().out)
        assert counts == {"classify": 1}, name
        c = read_curve(fixtures_dir / f"{name}.json")
        assert data["bounds"] == {"bound1": bound1(c), "bound2": bound2(c)}


def count_pairs(monkeypatch) -> list:
    """The (bi, bj) of every _Pair built from now on."""
    pairs = []
    monkeypatch.setattr(
        auxiliary._Pair, "__init__",
        lambda self, *args, _init=auxiliary._Pair.__init__, **kwargs: (
            pairs.append(args[:2]), _init(self, *args, **kwargs))[1],
    )
    return pairs


def test_verify_reads_each_fact_once(monkeypatch, capsys, fixtures_dir, load):
    # the witness families read the cone's records and pairs: no engine
    # module walks a contact difference for one theta; each branch's terms
    # and each component's basis reach doubles once, for the families and
    # the sampler together
    c = load("four_branches")
    components = len(c5_cone(c).components)
    engine = [m for name, m in sys.modules.items() if name.split(".")[0] == "c5cone"]
    assert not any(hasattr(module, "contact_leading") for module in engine)
    pairs = count_pairs(monkeypatch)
    floats = count_engine_calls(monkeypatch, ("component_basis", "_complex_terms"), oracle)
    assert main(["verify", str(fixtures_dir / "four_branches.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["witness_families"]) == components == 7
    assert floats == {"component_basis": components, "_complex_terms": len(c.branches)}
    # one pair per tangent pair, per non-tangent family and per branch
    # with a characteristic family, none built twice
    assert len(pairs) == len({tuple(b.label for b in p) for p in pairs}) == 5


def test_project_auto_classifies_the_source_once(
    monkeypatch, record_builds, plane_builds, capsys, fixtures_dir, load, fixture_names
):
    # one Analysis gives the search its spans and the invariance check its
    # source profile, on every fixture in 3-space or more: classify runs
    # once on the source and once on the image, each tangent pair of the
    # source is built once, and no canonical plane and no record is built
    counts = count_engine_calls(monkeypatch, ("classify",), geometry)
    pairs = count_pairs(monkeypatch)
    searched = set()
    for name in fixture_names:
        c = load(name)
        if c.n < 3:
            continue
        pairs.clear()
        counts["classify"] = 0
        code = main(["project", str(fixtures_dir / f"{name}.json"), "--auto", "--json"])
        out = capsys.readouterr().out
        assert record_builds == {"characteristic": 0, "contact": 0}, name
        assert plane_builds == [], name
        if code == 2:  # no coordinate special for every branch: no analysis
            assert counts == {"classify": 0}, name
            continue
        assert json.loads(out)["invariance"] is True
        assert code == 0 and counts == {"classify": 2}, name
        tangent = geometry.classify(c).T
        source = sorted(tuple(b.label for b in p) for p in pairs if p[0].n == c.n)
        assert source == sorted((c.branches[i].label, c.branches[j].label) for i, j in tangent)
        searched.add(name)
    assert len(searched) >= 8 and "same_order_contact" in searched


@pytest.mark.parametrize("name, planes, classes", [
    pytest.param("contact_structure_pair", 8, 8, id="contact_structure_pair"),
    pytest.param("four_branches", 7, 7, id="four_branches"),
    pytest.param("single_entry", 4, 8, id="single_entry"),
    pytest.param("classes_abab", 7, 8, id="classes_abab"),
])
def test_contact_records_build_one_plane_per_class(plane_builds, load, name, planes, classes):
    # one plane per characteristic order m_theta, per contact pencil (the
    # classes (m_theta, twist) of one exponent whose L and R are parallel,
    # which share one v_theta) and per class of any other exponent; the
    # records with one v_theta share it and its plane. single_entry (m = 6)
    # merges the five twists at u^7, classes_abab the two twists of its
    # pair (b2, b4); the fixtures merge none
    c = load(name) if name in ("contact_structure_pair", "four_branches") else (
        curve_from_exponents({**pencil_pairs(6), **TWO_TANGENT_CLASSES}[name]))
    records = Analysis(c).records()
    by_class, by_pencil = {}, {}
    for rec in records:
        twist = rec.k * rec.m_theta % rec.group_order if rec.kind == "contact" else None
        by_class.setdefault((rec.labels, rec.m_theta, twist), []).append(rec)
        by_pencil.setdefault((rec.labels, rec.m_theta, rec.v_theta.key()), []).append(rec)
    assert len(plane_builds) == planes and len(by_pencil) == planes
    assert len(by_class) == classes
    for first, *rest in by_pencil.values():
        assert all(r.v_theta is first.v_theta and r.plane is first.plane for r in rest)


def test_profile_builds_no_record_and_no_plane(record_builds, plane_builds, load):
    profile(load("four_branches"))
    assert plane_builds == []
    assert record_builds == {"characteristic": 0, "contact": 0}


def _error(exc):
    return type(exc).__name__, str(exc), exc.to_json()


def _cone_outcome(c):
    """The cone's dimension and component keys, or the error type and
    payload raised on the way."""
    try:
        cone = c5_cone(c)
    except EngineError as exc:
        return _error(exc)
    return cone.dimension, [p.key() for p in cone.components]


def _reference_outcome(c):
    """_cone_outcome from tests/reference_aux.py: the planes of
    characteristic_reference at each representative k, of contact_reference
    over each tangent pair's full group and of the two tangents of each
    non-tangent pair, deduplicated by key. The error is the first tangent
    pair's IncompatibleSystem, else the first error raised."""
    b, *rest = c.branches
    if not rest and b.m == 1:
        return 1, [b.tangent.key()]
    cls = classify(c)
    keys = {
        characteristic_reference(b, k).plane.key()
        for b in c.branches for k in auxiliary.representative_ks(b.m)
    }
    errors = []
    for i, j in sorted(cls.T):
        bi, bj = c.branches[i], c.branches[j]
        try:
            keys.update(
                contact_reference(bi, bj, k).plane.key() for k in range(math.lcm(bi.m, bj.m))
            )
        except EngineError as exc:
            errors.append(exc)
    if errors:
        return _error(min(errors, key=lambda exc: not isinstance(exc, IncompatibleSystem)))
    for i, j in sorted(cls.NT):
        keys.add(Plane((c.branches[i].tangent.vec, c.branches[j].tangent.vec)).key())
    return 2, sorted(keys)


def test_cone_compares_each_pairs_tangents_once(load, fixture_names, monkeypatch):
    curves = [load(name) for name in fixture_names]
    rng = random.Random(14)
    curves += [random_curve(rng, max_r=4) for _ in range(150)]
    # b1 and b3 share one image (u -> -u); b2 is tangent to both but
    # shares no special coordinate with them: the tangent-pair check
    # raises first, though the duplicate pair (b1, b3) sorts first
    b1 = [[(2, 1)], [(2, 2), (3, 1)], [(5, 1)]]
    b2 = [[(2, Fraction(1, 2)), (7, 1)], [(2, 1)], [(7, 1)]]
    b3 = [[(2, 1)], [(2, 2), (3, -1)], [(5, -1)]]
    curves += [curve_from_exponents(branches) for branches in ([b1, b3], [b1, b3, b2])]
    equal = Direction.__eq__
    calls = []

    def counted(self, other):
        calls.append(None)
        return equal(self, other)

    outcomes = set()
    for c in curves:
        expected = _reference_outcome(c)
        monkeypatch.setattr(Direction, "__eq__", counted)
        calls.clear()
        got = _cone_outcome(c)
        count = len(calls)
        monkeypatch.setattr(Direction, "__eq__", equal)
        r = len(c.branches)
        assert count == r * (r - 1) // 2
        assert got == expected
        outcomes.add(got[0])
    assert outcomes == {1, 2, "DuplicateBranch", "IncompatibleSystem"}


def _route_outcome(analysis):
    """The cone's dimension, component keys and provenance, and the
    records and representative records, or the error type and payload
    raised on the way."""
    def listed(records):
        return [(r.kind, r.labels, r.group_order, r.k, r.theta.text(), r.m_theta,
                 r.v_theta.key(), r.plane.key()) for r in records]

    try:
        cone = analysis.cone
        return (cone.dimension, [p.key() for p in cone.components], cone.provenance,
                listed(analysis.records()), listed(analysis.records(True)))
    except EngineError as exc:
        return _error(exc)


def _merging_curves():
    """The pencil pairs at m = 60 and 120 and the curves with two tangent
    classes, by name."""
    curves = {f"{name} m={m}": spec for m in (60, 120) for name, spec in pencil_pairs(m).items()}
    curves.update(TWO_TANGENT_CLASSES)
    return {name: curve_from_exponents(spec) for name, spec in curves.items()}


def _span_counts(analysis, planes=False):
    """The number of spans, or of their distinct planes, of each tangent
    pair and of the non-tangent pairs."""
    def count(spans):
        spans = {id(span): span for span in spans}.values()
        return len({analysis._canonical(span)[2] for span in spans} if planes else spans)

    nontangent = [span for span in analysis.spans if span.descriptors[0][0] == "non-tangent"]
    pairs = analysis.tangent_pairs
    return [count(analysis.contact[(i, j)].values()) for i, j in pairs] + [count(nontangent)]


def test_spans_by_plane_agree_with_the_per_class_route(load, fixture_names):
    # one span per predicted plane gives the cone, its provenance, the
    # records and the errors of one span per contact class and per
    # non-tangent pair (tests/reference_aux.py); on the merging curves,
    # each tangent pair and the non-tangent pairs have one span per plane
    curves = [load(name) for name in fixture_names]
    rng = random.Random(21)
    curves += [random_curve(rng, max_r=4) for _ in range(200)]
    b1 = [[(2, 1)], [(2, 2), (3, 1)], [(5, 1)]]
    b2 = [[(2, Fraction(1, 2)), (7, 1)], [(2, 1)], [(7, 1)]]
    b3 = [[(2, 1)], [(2, 2), (3, -1)], [(5, -1)]]
    curves += [curve_from_exponents(branches) for branches in ([b1, b3], [b1, b3, b2])]
    merging = _merging_curves()
    fewer = outcomes = 0
    seen = set()
    for c in curves + list(merging.values()):
        analysis, reference = Analysis(c), PerClassAnalysis(c)
        got = _route_outcome(analysis)
        assert got == _route_outcome(reference)
        seen.add(got[0])
        if got[0] == 2:
            outcomes += 1
            fewer += len(analysis.spans) < len(reference.spans)
            assert len(analysis.spans) <= len(reference.spans)
    assert seen == {1, 2, "DuplicateBranch", "IncompatibleSystem"}
    assert fewer >= 20 and outcomes >= 150
    for name, c in merging.items():
        planes = _span_counts(PerClassAnalysis(c), planes=True)
        assert _span_counts(Analysis(c)) == planes, name


def test_contact_spans_are_never_tangent_and_pencils_have_one_plane():
    # at every class exponent E of a tangent pair, t, L = c_i(E) and
    # R = c_j(E) span a plane exactly when _Pair.pencil merges E (L, R
    # parallel, or one 0), and 3-space otherwise; the reduction by t never
    # makes independent L, R parallel. No span's vector is parallel to t,
    # so a merged span raises no DependentVectors
    curves = list(_merging_curves().values())
    rng = random.Random(22)
    curves += [random_curve(rng, max_r=3) for _ in range(200)]
    merged = independent = 0
    zero = CycloScalar.rational(0)
    for c in curves:
        analysis = Analysis(c)
        try:
            analysis.spans
        except EngineError:
            continue
        for i, j in analysis.tangent_pairs:
            pair = analysis.pair(i, j)
            t = list(pair.branches[0].tangent.vec)
            for E in {E for E, _ in pair.classes}:
                L = [lhs.get(E, zero) for lhs in pair.left]
                R = [rhs.get(E, zero) for rhs in pair.right]
                shared = pair.pencil(E)
                assert geometry.matrix_rank([t, L, R]) == (2 if shared else 3)
                merged += shared is not None
                independent += shared is None
            for span in analysis.contact[(i, j)].values():
                assert geometry.matrix_rank([t, list(span.vector)]) == 2
    assert merged >= 50 and independent >= 5


@pytest.mark.parametrize("name", ["single_entry", "two_entries"])
def test_pencil_pairs_at_the_caps_pay_per_plane(monkeypatch, capsys, tmp_path, name):
    # ROADMAP item 11's two tangent pairs: every twist at u^(m+1) is a
    # multiple of one vector, (0, 1, 0) or (0, 1, 1). c5_cone makes at most
    # one inverse per plane and analyze --json at most one per v_theta,
    # where one per twist took 1.7 s at m = 840 and 38 s at m = 2520
    inverses = []
    inverse = CycloScalar.inverse
    monkeypatch.setattr(
        CycloScalar, "inverse", lambda self: (inverses.append(None), inverse(self))[1]
    )
    spec = pencil_pairs(840)[name]
    cone = c5_cone(curve_from_exponents(spec))
    assert len(inverses) <= len(cone.components) == 2
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(document(spec)))
    inverses.clear()
    assert main(["analyze", "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["aux_records"]) == 2 * 839 + 840
    assert len(inverses) <= len({tuple(r["v_theta"]) for r in data["aux_records"]})
    c = curve_from_exponents(pencil_pairs(2520)[name])
    start = time.perf_counter()
    assert len(c5_cone(c).components) == 2
    assert time.perf_counter() - start < 1.0


def test_a_rational_quotient_at_conductor_4034_needs_no_inverse(capsys, tmp_path):
    # (u^2, c1*u^3, c2*u^4 + c3*u^5), c1, c2 and c3 sums of 5, 4 and 3
    # powers of zeta_2017: the v_theta (0, 2*c1, 0) divides by its lead
    # with no inverse of 2*c1, which by extended Euclid ran past 20 s
    def coeff(summands):
        return [{"num": a, "den": 1, "zeta_order": 2017, "zeta_pow": k} for a, k in summands]

    one = [{"num": 1, "den": 1, "zeta_order": 1, "zeta_pow": 0}]
    c1 = coeff([(2, 88), (1, 1864), (1, 1356), (1, 1176), (2, 1327)])
    c2 = coeff([(1, 454), (-1, 1938), (1, 436), (1, 1142)])
    c3 = coeff([(-1, 227), (-3, 758), (1, 429)])
    doc = {"version": 1, "n": 3, "branches": [{"label": "b1", "coords": [
        [{"exp": 2, "coeff": one}],
        [{"exp": 3, "coeff": c1}],
        [{"exp": 4, "coeff": c2}, {"exp": 5, "coeff": c3}],
    ]}]}
    path = tmp_path / "conductor_4034.json"
    path.write_text(json.dumps(doc))
    reports = []
    for argv in (["analyze", "--json", str(path)], ["verify", str(path)]):
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 5.0
        reports.append(json.loads(capsys.readouterr().out))
    assert [r["v_theta"] for r in reports[0]["aux_records"]] == [["0", "1", "0"]]


def test_analysis_agrees_with_the_standalone_functions():
    # the characteristic records, every k and the representative ks, against
    # the expanded difference series of tests/reference_aux.py
    rng = random.Random(17)
    for _ in range(15):
        c, _ = random_curve_with_cone(rng)
        analysis = Analysis(c)
        for representatives in (False, True):
            records = analysis.records(representatives)
            for i in sorted(analysis.classification.S):
                b = c.branches[i]
                listed = [r for r in records if r.labels == (b.label,)]
                ks = auxiliary.representative_ks(b.m) if representatives else range(1, b.m)
                assert [(r.k, r.m_theta, r.plane.key()) for r in listed] == [
                    (k, ref.m_theta, ref.plane.key())
                    for k, ref in ((k, characteristic_reference(b, k)) for k in ks)
                ]


@pytest.mark.parametrize("name", ["m16_four_planes", "four_branches", "contact_structure_pair"])
def test_characteristic_orders_are_read_once_per_root_order(monkeypatch, load, name):
    c = load(name)
    counts = count_engine_calls(monkeypatch, ("characteristic_order",))
    analysis = Analysis(c)
    analysis.records()
    analysis.records(representatives=True)
    # one scan of the supports per order d > 1 of a root, not one per k
    orders = sum(len(auxiliary.representative_ks(b.m)) for b in c.branches)
    assert orders < sum(b.m - 1 for b in c.branches)
    assert counts == {"characteristic_order": orders}


def test_analyze_reads_the_one_root_order_of_a_prime_multiplicity_twice(
    monkeypatch, capsys, fixtures_dir
):
    # m = 2017 is prime, so its 2016 characteristic records share one root
    # order: the records read it once and ChAM once more
    counts = count_engine_calls(monkeypatch, ("characteristic_order",))
    path = str(fixtures_dir / "prime_multiplicity.json")
    assert main(["analyze", "--json", path]) == 0
    capsys.readouterr()
    assert counts == {"characteristic_order": 2}
