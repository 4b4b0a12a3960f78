"""Curves whose cone spans merge: tangent pairs whose contact classes form
pencils, and curves whose non-tangent pairs share their tangent classes.

Each is a curve_from_exponents spec with integer coefficients and no engine
import, so tools/cli_diff.py can write them as documents too (document).
"""


def pencil_pairs(m: int) -> dict:
    """name -> a tangent pair in C^3 at multiplicity m, one for each way
    the u^E coefficients L, R of its two sides can meet: parallel (one
    nonzero entry, or two), either one 0, or independent; with the shared
    special coordinate at the tangent's pivot, or after it; and a pair of
    multiplicities m and 2m."""
    e1, e2, e3 = m + 1, m + 2, m + 3
    return {
        # L = R at u^(m+1): every theta but 1 has a class there, a multiple
        # of (0, 1, 0); theta = 1 goes on to u^(m+2), where L and R are parallel
        "single_entry": [[m, [(e1, 1)], [(e2, 1)]], [m, [(e1, 1)], [(e2, 2)]]],
        # the same, with class vectors multiples of (0, 1, 1)
        "two_entries": [
            [m, [(e1, 1)], [(e1, 1), (e2, 1)]],
            [m, [(e1, 1)], [(e1, 1), (e2, 2)]],
        ],
        "left_zero": [[m, [(e2, 1)], [(e3, 1)]], [m, [(e1, 1)], [(e3, 1)]]],
        "right_zero": [[m, [(e1, 1)], [(e3, 1)]], [m, [(e2, 1)], [(e3, 1)]]],
        # L = (0, 1, 0), R = (0, 0, 1): one plane per twist
        "independent": [[m, [(e1, 1)], [(e3, 1)]], [m, [(e3, 1)], [(e1, 1)]]],
        # tangent (1, 1, 0) with pivot 0; coordinate 1 is the special one
        "off_pivot_parallel": [
            [[(m, 1), (e1, 1)], m, [(e1, 1)]],
            [[(m, 1), (e1, 2)], m, [(e1, 2)]],
        ],
        "off_pivot_independent": [
            [[(m, 1), (e1, 1)], m, [(e1, 1)]],
            [[(m, 1), (e1, 2)], m, [(e1, 3)]],
        ],
        "mixed_orders": [[m, [(e1, 1)], [(e2, 1)]], [2 * m, [(2 * m + 1, 1)], [(2 * m + 3, 1)]]],
    }


# x = u^2, y = u^3 style branches with z = u^2 special in each, in two
# tangent classes: (1, 0, 1) for b1 and b3, (0, 1, 1) for b2 and b4
_A1 = [[(2, 1)], [(3, 1)], 2]
_B1 = [[(3, 1)], [(2, 1)], 2]
_A2 = [[(2, 1), (3, 1)], [(3, 2)], 2]
_B2 = [[(3, 2)], [(2, 1), (5, 1)], 2]
_A3 = [[(1, 1)], [(2, 1)], 1]

# name -> a curve whose non-tangent pairs span one plane per pair of tangent classes
TWO_TANGENT_CLASSES = {
    "classes_aba": [_A1, _B1, _A2],
    "classes_abab": [_A1, _B1, _A2, _B2],
    "classes_bab_smooth": [_B1, _A1, _B2, _A3],
}


def document(spec) -> dict:
    """The curve document of a spec: branches b1, b2, ..., each coordinate
    a bare exponent e (u^e) or a list of (exponent, integer coefficient)."""
    def coordinate(coord):
        terms = [(coord, 1)] if isinstance(coord, int) else coord
        return [
            {"exp": e, "coeff": [{"num": c, "den": 1, "zeta_order": 1, "zeta_pow": 0}]}
            for e, c in terms
        ]

    return {
        "version": 1,
        "n": len(spec[0]),
        "branches": [
            {"label": f"b{i + 1}", "coords": [coordinate(coord) for coord in coords]}
            for i, coords in enumerate(spec)
        ],
    }
