"""The package root's API: __all__ is the list in README "Python API", and
every other public name still imports from the package root."""

import pathlib
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
        "contact_records", "contact_aux", "contact_leading", "characteristic_aux",
        "matrix_rank", "Plane", "Direction", "CycloScalar", "zeta",
        "DuplicateBranch", "FloatingPointOverflow", "loads_document", "to_complex",
    ):
        exec(f"from c5cone import {name}", {})
