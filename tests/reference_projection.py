"""Reference genericity test and projection search, kept as test oracles.

rank_verdict is the stacked-kernel rank test the engine used before the
2x2 determinant: the kernel meets a component only at 0 iff the kernel
basis stacked with the component's basis rows has full rank.
reference_search is the engine's former candidate loop: it builds a
LinearProjection for every candidate and asks rank_verdict.
"""

from itertools import product

from c5cone import CycloScalar, LinearProjection, c5_cone, matrix_rank
from c5cone.projection import GenericityVerdict

# The reference loop's own bound: the engine's search ends by proof, with
# no cap (find_generic_projection).
_SEARCH_CAP = 50


def rank_verdict(c, proj, cone=None):
    if cone is None:
        cone = c5_cone(c)
    kernel = [list(r) for r in proj.kernel_basis]
    for component in cone.components:
        if hasattr(component, "basis"):
            rows = [list(r) for r in component.basis]
        else:
            rows = [list(component.vec)]
        if matrix_rank(kernel + rows) != len(kernel) + len(rows):
            return GenericityVerdict(False, component)
    return GenericityVerdict(True, None)


def reference_search(c):
    """The first generic candidate of find_generic_projection's order, by
    the rank test; None when the search would be exhausted."""
    n = c.n
    if n == 2:
        return LinearProjection.identity()
    s = min(frozenset.intersection(*(b.special_coords for b in c.branches)))
    cone = c5_cone(c)
    zero, one = CycloScalar.rational(0), CycloScalar.rational(1)
    row1 = tuple(one if idx == s else zero for idx in range(n))
    others = [idx for idx in range(n) if idx != s]

    def candidates():
        all_ones = (1,) * len(others)
        yield all_ones
        for norm in range(1, _SEARCH_CAP + 1):
            for lam in product(range(-norm, norm + 1), repeat=len(others)):
                if max(abs(v) for v in lam) != norm or lam == all_ones:
                    continue
                yield lam

    for lam in candidates():
        row2 = [zero] * n
        for idx, value in zip(others, lam):
            row2[idx] = CycloScalar.rational(value)
        proj = LinearProjection([row1, tuple(row2)])
        if rank_verdict(c, proj, cone).generic:
            return proj
    return None
