"""The package root's API: __all__ is the list in README "Python API", and
every other public name still imports from the package root."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import c5cone

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_api() -> list:
    """The backticked names of the bullet list under README "Python API"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", section, flags=re.MULTILINE)
    return re.findall(r"`([A-Za-z_]\w*)`", "\n".join(bullets))


def test_all_is_the_readme_api():
    assert sorted(c5cone.__all__) == sorted(readme_api())
    assert len(set(c5cone.__all__)) == len(c5cone.__all__)


def test_every_name_in_all_resolves():
    for name in c5cone.__all__:
        assert getattr(c5cone, name) is not None, name
    namespace = {}
    exec("from c5cone import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(c5cone.__all__)


def test_names_outside_all_still_import():
    for name in (
        "AuxRecord", "matrix_rank", "Plane", "Direction", "CycloScalar", "zeta",
        "DuplicateBranch", "FloatingPointOverflow", "loads_document", "to_complex",
    ):
        exec(f"from c5cone import {name}", {})


def test_second_routes_to_a_fact_are_gone():
    # the cone's Analysis derives each of these facts once; the parallel
    # paths that derived them again were deleted, and so were the search's
    # cap, which no input reaches, and the helpers only tests read
    modules = [
        importlib.import_module(f"c5cone.{info.name}")
        for info in pkgutil.iter_modules(c5cone.__path__)
    ]
    for name in (
        "contact_leading", "witness_secant_family", "contact_witness_family",
        "diagonal_witness_family", "_coam", "check_compatibility",
        "cyclotomic_polynomial", "characteristic_aux", "contact_aux",
        "characteristic_records", "contact_records", "ProjectionSearchExhausted",
        "_SEARCH_CAP", "integer_normalized_form", "substitute_power", "tangent_direction",
        "plane_equations", "_witness_json", "_Validated", "_validated", "_mobius",
        "_distances", "plane_from_vectors", "is_primitive",
    ):
        assert not any(hasattr(module, name) for module in [c5cone, *modules]), name
    # Analysis.records is the one record builder, and the span tables are
    # two cached properties
    c = c5cone.curve_from_exponents([[[(2, 1)], [(2, 1), (3, 1)]]])
    analysis = c5cone.Analysis(c)
    analysis.records()
    for name in (
        "characteristic_record", "characteristic_records", "representative_records", "contacts",
        "_by_source", "_characteristic_spans", "_contact_spans",
    ):
        assert not hasattr(analysis, name), name
    b = c.branches[0]
    assert not hasattr(b, "_fill")
    assert not hasattr(c5cone.auxiliary._Pair(b, b), "leading")


def test_only_the_scalar_maker_skips_a_constructor():
    # a branch or a series exists only through its constructor's checks;
    # CycloScalar takes no arguments, so scalar._make builds it field by field
    package = pathlib.Path(c5cone.__file__).parent
    found = [
        (path.name, line.strip())
        for path in sorted(package.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "object.__new__" in line
    ]
    assert found == [("scalar.py", "a = object.__new__(CycloScalar)")]
    assert "object.__new__" in inspect.getsource(c5cone.scalar._make)


def test_consumers_take_no_cone():
    # each reads c's own cone, or the analysis of c it is handed; a cone
    # of another curve has no side door in
    for consumer in (c5cone.is_c5_generic, c5cone.find_generic_projection,
                     c5cone.cone_witness_results):
        assert "cone" not in inspect.signature(consumer).parameters, consumer.__name__


def test_parameters_no_caller_sets_are_gone():
    # the error message, the series variable and the label prefix are
    # constants; no caller ever passed another
    for function, name in (
        (c5cone.IncompatibleSystem, "message"),
        (c5cone.series.CoordinateSeries.text, "var"),
        (c5cone.Parametrization.text, "var"),
        (c5cone.curve_from_exponents, "label_prefix"),
    ):
        assert name not in inspect.signature(function).parameters, function.__qualname__
    assert c5cone.IncompatibleSystem("a", "b").pair == ("a", "b")
