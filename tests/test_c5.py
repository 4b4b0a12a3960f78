"""The bi-secant limit cone: components, provenance, bounds, product form."""

import json
import math
import random
import sys
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
    integer_normalized_form,
    polynomial_text,
    product_equation,
    oracle,
    plane_from_vectors,
    profile,
    read_curve,
    sigma,
    tangent_direction,
)
from c5cone.cli import component_equations, main, variable_names
from c5cone.geometry import Plane
from random_curves import random_curve, random_curve_with_cone
from reference_aux import characteristic_reference, contact_reference


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
        assert cone.components[0] == tangent_direction(c.branches[0])
        assert cone.provenance == ((("tangent", ("b1",), -1),),)


def test_every_plane_contains_a_branch_tangent():
    rng = random.Random(12)
    for _ in range(30):
        c, cone = random_curve_with_cone(rng)
        tangents = [tangent_direction(b) for b in c.branches]
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
    assert [e.text() for e in integer_normalized_form(form)] == ["0", "2", "-1"]


def test_integer_normalized_form_makes_leading_positive():
    form = (CycloScalar.rational(Fraction(-2, 3)), CycloScalar.rational(4))
    assert [e.text() for e in integer_normalized_form(form)] == ["1", "-6"]


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
    monkeypatch, record_builds, capsys, fixtures_dir, load, fixture_names
):
    # one Analysis gives the search its spans and the invariance check its
    # source profile, on every fixture in 3-space or more: classify runs
    # once on the source and once on the image, each tangent pair of the
    # source is built once, and no canonical plane and no record is built
    builds = count_engine_calls(monkeypatch, ("plane_from_vectors",), geometry)
    counts = count_engine_calls(monkeypatch, ("classify",), geometry)
    planes = []
    monkeypatch.setattr(
        Plane, "__init__",
        lambda self, *args, _init=Plane.__init__: (planes.append(args), _init(self, *args))[1],
    )
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
        assert builds == {"plane_from_vectors": 0}, name
        assert record_builds == {"characteristic": 0, "contact": 0}, name
        assert planes == [], name
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


@pytest.mark.parametrize("name", ["contact_structure_pair", "four_branches"])
def test_contact_records_build_one_plane_per_class(monkeypatch, load, name):
    # one plane per contact class (m_theta, twist) and per characteristic
    # order m_theta, shared with its v_theta by every record of the class
    counts = count_engine_calls(monkeypatch, ("plane_from_vectors",), geometry)
    records = Analysis(load(name)).records()
    classes = {}
    for rec in records:
        twist = rec.k * rec.m_theta % rec.group_order if rec.kind == "contact" else None
        classes.setdefault((rec.labels, rec.m_theta, twist), []).append(rec)
    assert counts == {"plane_from_vectors": len(classes)}
    contacts = [key for key in classes if key[2] is not None]
    assert 0 < len(contacts) < sum(rec.kind == "contact" for rec in records)
    for first, *rest in classes.values():
        assert all(r.v_theta is first.v_theta and r.plane is first.plane for r in rest)


def test_profile_builds_no_record_and_no_plane(monkeypatch, record_builds, load):
    counts = count_engine_calls(monkeypatch, ("plane_from_vectors",), geometry)
    profile(load("four_branches"))
    assert counts == {"plane_from_vectors": 0}
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
        return 1, [tangent_direction(b).key()]
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
        tangents = (tangent_direction(c.branches[i]), tangent_direction(c.branches[j]))
        keys.add(plane_from_vectors(*tangents).key())
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
