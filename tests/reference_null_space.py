"""The two-pass null space, kept as a test oracle.

It reduces M, builds the basis e_f - sum over pivots of M's reduced entries
for each free column f, and reduces that basis a second time to put it in
canonical form. The engine's null_space reads the canonical basis off one
reduction of M with its columns reversed; the tests compare the two.
"""

from c5cone import CycloScalar, rref


def two_pass_null_space(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero, one = CycloScalar.rational(0), CycloScalar.rational(1)
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][f]
        basis.append(vec)
    reduced_basis, _ = rref(basis)
    return reduced_basis
