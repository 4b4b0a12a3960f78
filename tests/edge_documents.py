"""Curve documents at the edges of the document reader, and files that
fail to read. It imports no engine, so tools/cli_diff.py loads it by path
as the tests import it.

edge_documents(rng, count) draws documents whose coefficients spell their
values at mixed zeta orders:

* rationals at order 1, at any power, beside powers of zeta_N;
* summands at an order d dividing N;
* summands that cancel, among other summands or on their own, so that a
  coefficient that sums to zero must not count its order toward the
  branch's conductor;
* a repeated exponent beside a zero coefficient, which is no repeat;
* terms out of exponent order, and the special coordinate's 1 spelled at
  an order above 1 or as a sum.

About one document in three then carries one or two faults, each at a
drawn branch, coordinate and term: a repeated exponent; the conductor cap
exceeded by two summands (before a malformed summand that the cap must
precede), by the multiplicity or by the branches' lcm; a special
coordinate spoilt by an irrational term; a factor shared by every
exponent; a malformed summand or term.

write_file_faults(directory) writes documents whose bytes, not content,
are the edge: CRLF and lone CR line endings with and without a JSON error
after line 1, a UTF-8 BOM, invalid UTF-8, an empty file; it also makes a
directory and names a path it does not create.
"""

import json

# zeta orders of the coefficients: each document draws its N from these
ORDERS = (3, 4, 5, 6, 8, 9, 10, 12, 15, 20, 24, 30)
# orders of the cancelling summands, chosen to divide no N above; a
# coefficient that sums to zero takes any, one that does not takes 7, which
# keeps the curve's conductor, and the inverses taken there, small
STRAY_ORDERS = (7, 11, 13)
# lcm(97, 105) = 10185 exceeds the conductor cap, 10080; each alone does not
CAP_ORDERS = (97, 105)
FAULTS = (
    "repeat", "cap_summands", "cap_m", "cap_m_order", "cap_branches", "spoilt", "factor",
    "bad_den", "bad_key", "bad_num", "bad_exp", "bad_coeff",
)


def summand(num, den, order, power) -> dict:
    return {"num": num, "den": den, "zeta_order": order, "zeta_pow": power}


def _rational(rng):
    return rng.choice(((1, 1), (-1, 1), (2, 1), (-3, 1), (1, 2), (-2, 3), (5, 4)))


def _zero(rng, orders=STRAY_ORDERS) -> list:
    """Summands at an order dividing no N that sum to zero."""
    e = rng.choice(orders)
    if rng.random() < 0.3:
        return [summand(0, 1, e, 1)]
    num, den = _rational(rng)
    j = rng.randrange(e)
    return [summand(num, den, e, j), summand(-num, den, e, j + e)]


def _coefficient(rng, N: int) -> list:
    """Summands at mixed orders; a few sum to zero."""
    kind = rng.randrange(6)
    num, den = _rational(rng)
    k = rng.randrange(-N, 2 * N)
    if kind == 0:  # a rational at order 1, at any power
        return [summand(num, den, 1, rng.randrange(4))]
    if kind == 1:  # a power of zeta_N beside a rational
        return [summand(num, den, N, k), summand(*_rational(rng), 1, 0)]
    if kind == 2:  # a summand at an order d dividing N
        d = rng.choice([d for d in range(2, N) if N % d == 0] or [N])
        return [summand(num, den, d, rng.randrange(d)), summand(*_rational(rng), N, k)]
    if kind == 3:  # summands that cancel among others: their order counts
        zero = _zero(rng, (7,))
        return [zero[0], summand(num, den, N, k), *zero[1:]]
    if kind == 4:  # a coefficient that sums to zero
        return _zero(rng)
    return [summand(num, den, N, k)]


def _special(rng) -> list:
    """The coefficient 1 of the special coordinate, spelled one of several ways."""
    d = rng.choice((1, 1, 2, 4, 6))
    if rng.random() < 0.3:
        return [summand(2, 1, d, 0), summand(-1, 1, 1, 0)]
    return [summand(1, 1, d, d * rng.randrange(3))]


def _branch(rng, n: int, m: int, N: int, special: int) -> list:
    coords = []
    for j in range(n):
        if j == special:
            coords.append([{"exp": m, "coeff": _special(rng)}])
            continue
        exps = set(rng.sample(range(m, m + 8), rng.randint(0, 3)))
        if j == (special + 1) % n and m > 1:
            exps.add(m + 1)  # the branch stays primitive
        terms = [{"exp": e, "coeff": _coefficient(rng, N)} for e in sorted(exps)]
        if terms and rng.random() < 0.25:  # a repeated exponent beside a zero coefficient
            e = rng.choice(sorted(exps))
            terms.insert(rng.randrange(len(terms) + 1), {"exp": e, "coeff": _zero(rng)})
        if rng.random() < 0.2:
            rng.shuffle(terms)
        coords.append(terms)
    return coords


def _fault(rng, doc: dict, fault: str) -> None:
    """Put one fault into doc, at a drawn branch, coordinate and term."""
    branches = doc["branches"]
    b = rng.randrange(len(branches))
    coords = branches[b]["coords"]
    j = rng.randrange(len(coords))
    terms = coords[j]
    if fault in ("cap_m", "cap_m_order"):
        # every exponent scaled past the cap, or m = 97 beside an order-105 coefficient
        m = min(t["exp"] for series in coords for t in series)
        shift = 10081 - m if fault == "cap_m" else 97 - m
        for series in coords:
            for t in series:
                t["exp"] += shift
        if fault == "cap_m_order":
            coords[j].append({"exp": 200, "coeff": [summand(1, 1, 105, 1)]})
        return
    if fault == "cap_branches":
        for index, order in zip(range(2), CAP_ORDERS):
            if index < len(branches):
                series = branches[index]["coords"][-1]
                series.append({"exp": 300 + index, "coeff": [summand(1, 1, order, 1)]})
        if len(branches) == 1:
            branches[0]["coords"][0].append({"exp": 400, "coeff": [summand(1, 1, 105, 2)]})
        return
    if fault == "factor":
        for series in coords:
            for t in series:
                t["exp"] *= 2
        return
    if fault == "spoilt":
        for series in coords:
            if len(series) == 1 and len(series[0]["coeff"]) <= 2:
                series[0]["coeff"] = series[0]["coeff"] + [summand(1, 1, rng.choice(ORDERS), 1)]
        return
    if not terms:
        terms.append({"exp": 50, "coeff": [summand(1, 1, 1, 0)]})
    t = rng.randrange(len(terms))
    coeff = terms[t]["coeff"]
    if fault == "repeat":
        terms.append({"exp": terms[t]["exp"], "coeff": [summand(1, 1, 1, 0)]})
    elif fault == "cap_summands":
        coeff.insert(0, summand(1, 1, CAP_ORDERS[0], 1))
        coeff.insert(1, summand(1, 1, CAP_ORDERS[1], 1))
        coeff.append(summand(1, 0, 1, 0))  # a later fault the cap must precede
    elif fault == "bad_den":
        coeff.append(summand(1, rng.choice((0, -2)), 1, 0))
    elif fault == "bad_key":
        coeff.append({"num": 1, "den": 1, "zeta_order": 1})
    elif fault == "bad_num":
        coeff.append(summand(rng.choice((True, "1", 1.5)), 1, 1, 0))
    elif fault == "bad_exp":
        terms[t]["exp"] = rng.choice((0, -1, "2", 2.0))
    else:
        terms[t]["coeff"] = rng.choice(([], {}, "x"))


def edge_documents(rng, count: int) -> list:
    """count documents drawn from rng, about a third of them faulty."""
    docs = []
    for _ in range(count):
        n, N = rng.randint(2, 3), rng.choice(ORDERS)
        special = rng.randrange(n)
        branches = []
        for index in range(rng.randint(1, 3)):
            coords = _branch(rng, n, rng.randint(1, 6), N, special)
            branches.append({"label": f"b{index + 1}", "coords": coords})
        doc = {"version": 1, "n": n, "branches": branches}
        if rng.random() < 0.35:
            # malformed parts last, so that the faults before them read ints
            for fault in sorted(rng.sample(FAULTS, rng.choice((1, 1, 2))), key=FAULTS.index):
                _fault(rng, doc, fault)
        docs.append(doc)
    return docs


# (u^2, u^3 + zeta_3 u^4): the text under the file faults
_TEXT = json.dumps({"version": 1, "n": 2, "branches": [{"label": "b1", "coords": [
    [{"exp": 2, "coeff": [summand(1, 1, 1, 0)]}],
    [{"exp": 3, "coeff": [summand(1, 1, 1, 0)]}, {"exp": 4, "coeff": [summand(1, 1, 3, 1)]}],
]}]}, indent=2) + "\n"


def write_file_faults(directory) -> list:
    """Write the file faults into directory (a pathlib.Path); return their
    paths, with a directory and a path that does not exist among them."""
    broken = _TEXT.replace('"n": 2,', '"n": 2', 1)  # a JSON error on line 3
    texts = {
        "crlf.json": _TEXT.replace("\n", "\r\n"),
        "crlf_error.json": broken.replace("\n", "\r\n"),
        "cr.json": _TEXT.replace("\n", "\r"),
        "cr_error.json": broken.replace("\n", "\r"),
        "mixed_error.json": broken.replace("\n", "\r", 3).replace("\n", "\r\n"),
    }
    files = {name: text.encode("utf-8") for name, text in texts.items()}
    data = _TEXT.encode("utf-8")
    files.update({
        "bom.json": b"\xef\xbb\xbf" + data,
        "bad_start_byte.json": data.replace(b'"b1"', b'"b\xff"'),
        "bad_continuation.json": data.replace(b'"b1"', b'"b\xc3("'),
        "truncated.json": data + b"\xe2\x82",
        "empty.json": b"",
    })
    paths = []
    for name, data in files.items():
        paths.append(directory / name)
        paths[-1].write_bytes(data)
    folder = directory / "folder.json"
    folder.mkdir()
    return paths + [folder, directory / "missing.json"]
