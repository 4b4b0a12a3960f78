"""null_space against the two-pass reference, and its single reduction."""

import random

import pytest

from c5cone import (
    CycloScalar,
    LinearProjection,
    c5_cone,
    find_generic_projection,
    geometry,
    null_space,
    zeta,
)
from c5cone.geometry import component_rows
from reference_null_space import two_pass_null_space


def _random_matrix(rng, width, field):
    """0 to width + 1 rows, mostly sparse, so that every rank occurs."""
    def entry():
        if rng.random() < 0.5:
            return CycloScalar.rational(0)
        if field == "cyclotomic" and rng.random() < 0.5:
            return zeta(12, rng.randrange(12)) * rng.choice((1, -2, 3))
        return CycloScalar.rational(rng.randint(-3, 3))

    return [[entry() for _ in range(width)] for _ in range(rng.randint(0, width + 1))]


@pytest.mark.parametrize("field", ["rational", "cyclotomic"])
def test_random_matrices_match_the_reference(field):
    rng = random.Random(3)
    for width in range(1, 8):
        for _ in range(40):
            rows = _random_matrix(rng, width, field)
            assert null_space(rows) == two_pass_null_space(rows), rows


def test_fixture_components_match_the_reference(load, fixture_names):
    for name in fixture_names:
        if name == "prime_multiplicity":
            continue  # its one cone plane is checked with the n = 200 projection
        for component in c5_cone(load(name)).components:
            rows = [list(r) for r in component_rows(component)]
            assert null_space(rows) == two_pass_null_space(rows), name


def test_the_n200_projection_kernel_matches_the_reference(load):
    c = load("prime_multiplicity")
    for component in c5_cone(c).components:
        rows = [list(r) for r in component_rows(component)]
        assert null_space(rows) == two_pass_null_space(rows)
    rows = [list(r) for r in find_generic_projection(c).matrix]
    assert len(rows[0]) == 200
    assert null_space(rows) == two_pass_null_space(rows)


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return reduce(rows)

    reduce = geometry.rref
    monkeypatch.setattr(geometry, "rref", counting)
    return calls


def test_null_space_reduces_once(rref_calls):
    rows = [[CycloScalar.rational(v) for v in row] for row in ([1, 2, 0, 3], [0, 0, 1, 4])]
    assert len(null_space(rows)) == 2
    assert rref_calls == [2]


def test_from_kernel_reduces_once(rref_calls):
    proj = LinearProjection.from_kernel([[0, 0, 1, 1], [1, 0, 0, 2]])
    assert rref_calls == [2]
    assert [[e.text() for e in row] for row in proj.matrix] == [
        ["1", "0", "1/2", "-1/2"], ["0", "1", "0", "0"]
    ]
