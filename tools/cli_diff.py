"""Run a fixed list of CLI invocations against two source trees and print
every difference in stdout, stderr or exit code.

    python3 tools/cli_diff.py OLD_TREE NEW_TREE

Each tree is a checkout root holding src/c5cone. The invocations read the
fixtures of the new tree, so both sides see the same files:

* analyze with and without --json and --reps;
* project --auto, with and without --json, and --kernel with two kernels
  (the last n-2 unit vectors, and e_2 - e_k for k = 3..n);
* verify with default flags, and with --seed 3 --radii 0.1 0.01 0.001
  --samples 57; verify prints JSON without --json and rejects the flag,
  so the two runs with --json compare that rejection; on the fixtures
  only, also --samples 1, and --samples 1000 over the four radii 0.1,
  0.01, 0.001, 0.0001, the sampler's batch edges and pruned radii;
* compare over every ordered pair of fixtures;
* verify --override-planes with each fixture's own cone planes, as the
  new tree's analyze --json prints them, where every basis entry is
  rational (the flag takes no other) and the cone is not a line; and on
  space_cusp with the RAGGED matrices, whose rows differ in width.

A set of command lines compares the parser's own output: --help of the
program and of each command, --version, and the command lines it
rejects: no command, an unknown command, an unknown flag, a missing
positional, a value of the wrong type (--samples abc, --seed 1.5,
--tolerance x), --radii with no value, project with neither or both of
--kernel and --auto, and --kernel with no value after --auto. It also
holds command lines a command's parser reads as the program's parser
would hand them to it: a positional after --, a prefix of --json, the
program's --version after a command, a flag before the positionals and a
flag given twice.

The same analyze, project and verify invocations then run on generated
curves, each also compared with itself and, as the benchmark's compare
ops do, with a copy whose branches are in reverse order; project --auto,
with and without --json, runs on that copy too, since the search reads
the cone's spans in branch order and must not depend on it: the 10
cyclo-highN and the 40 random-lowN documents of seed 101, built by the
new tree's perfbench/workloads.py into a temporary directory. They carry
non-rational coefficients over Q(zeta_N) up to N = 420. The same runs
then cover every fixture with its branch labels replaced by LABELS: non-ASCII
text, a quote, a backslash, a tab and brackets, which the JSON writer must
escape as json does. No label holds a comma: documents reject one. Last,
they cover the curves of the new tree's tests/pencil_curves.py, whose
spans merge: tangent pairs at m = 60 and 120 whose contact classes form
pencils (off_pivot_independent at m = 60 only), and curves whose
non-tangent pairs share two tangent classes.

The runs of the generated curves then cover CONDUCTORS: multi-branch curves whose branches sit at
different conductors below the curve's, each with an irrational first
tangent entry, so a branch embedded at the curve's conductor rebuilds a
tangent whose normalisation needs an inverse.

A set of rational quotients runs the same as the generated curves on
one- and two-branch C^3 curves at N = 2017 and 2520 where every v_theta
is a rational multiple of one coefficient c, a sum of two or three
powers of zeta_N, so normalising it needs no inverse; c is short enough
that its Euclid inverse takes well under a second.

A set for the conversion to doubles runs analyze --json, verify and
verify --samples 57 on one- and two-branch C^3 curves whose coefficients
are sums of several powers of zeta_N at N = 2017 and 2520, one of them
zeta_N^(N-1) (every basis power at N = 2017), with one-term leading
coefficients so that the exact analysis stays cheap; and on curves whose
coefficients have an exactly zero or cancelling part (-3*zeta_4,
1/9 + 2/9*zeta_3, zeta_8 + zeta_8^3, 2*zeta_60^5 - zeta_60^15), which
to_complex sums through mpmath. Both of its routes are then diffed.

A set of many primes runs analyze, with and without --json, verify and
project --auto on one- and two-branch C^3 curves at N = 2310, 9240 and
10080 (32, 32 and 16 squarefree divisors, each a factor of Phi_N's
product formula) and on their branch-reversed copies. Every coefficient
is zeta_N^k with k < phi(N) and k prime to N.

A set of many components runs verify, with default flags and with
--seed 3 --radii 0.1 0.01 0.001 --samples 57, on MANY_COMPONENTS: mutually
tangent branches at m = 60 whose cones have 62 components (two branches)
and 182 (three), so the sampler compares each direction with many.

A last set runs analyze, with and without --json and --reps, of
SPELLING, a curve whose one plane has a coefficient whose text holds
'+ -' (the product equation must spell it as the plane equation does),
and compare, both ways round, of the pair of the new tree's
tests/reference_equivalence.py tangent_family at r = 8, where a search
pruned by ChAM and placed CoAMs alone visits about r! bijections.

A reader set runs analyze --json, compare of a document with itself,
project --auto --json and verify on READER_DOCUMENTS documents of the new
tree's tests/edge_documents.py, whose coefficients spell their values at
mixed zeta orders and a third of which are faulty, and on its file
faults: CRLF and lone CR line endings with and without a JSON error, a
UTF-8 BOM, invalid UTF-8, an empty file, a directory and a missing path.

Each tree runs all invocations in one process of its own, through
c5cone.cli.main with stdout and stderr captured. Each set of invocations
runs ROUNDS times per tree, the trees interleaved and the one that goes
first alternating, and the outputs of the first round are diffed. After
each set the script prints each tree's median wall-clock seconds over the
rounds, in all and per command (analyze, compare, project, verify, and
parser for a command line that names none of them): one run per tree
swings by about 20 % on a shared machine. Beside the totals it prints
each tree's line count of src/c5cone/*.py. The exit status is 1 when any
invocation differs, else 0. A last line gives the invocations and the
differences over every set. No engine code imports this file.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction


SEED = 101
COMMANDS = ("analyze", "compare", "project", "verify")
ROUNDS = 3
READER_DOCUMENTS = 200
LABELS = ("\u00df", "\u65e5\u672c", 'q"t', "b\\s", "[x]", "{y}", "\u00e9\t\u03b2")
# (u^2, u^3, (-1 - zeta_3)*u^3)
SPELLING = {
    "version": 1,
    "n": 3,
    "branches": [{"label": "b1", "coords": [
        [{"exp": 2, "coeff": [{"num": 1, "den": 1, "zeta_order": 1, "zeta_pow": 0}]}],
        [{"exp": 3, "coeff": [{"num": 1, "den": 1, "zeta_order": 1, "zeta_pow": 0}]}],
        [{"exp": 3, "coeff": [{"num": -1, "den": 1, "zeta_order": 1, "zeta_pow": 0},
                              {"num": -1, "den": 1, "zeta_order": 3, "zeta_pow": 1}]}],
    ]}],
}


# coefficients with an exactly zero or cancelling real or imaginary part
CANCELLING = (
    [(-3, 1, 4, 1)],
    [(1, 9, 1, 0), (2, 9, 3, 1)],
    [(1, 1, 8, 1), (1, 1, 8, 3)],
    [(2, 1, 60, 5), (-1, 1, 60, 15)],
)


# mutually tangent branches (u^60, a*u^61, b*u^61): 62 cone components
# for the first two, 182 for all three
_TANGENT = [[60, [(61, a)], [(61, b)]] for a, b in ((1, 1), (2, 3), (3, 2))]
MANY_COMPONENTS = {"tangent_two": _TANGENT[:2], "tangent_three": _TANGENT}


# --override-planes matrices whose two rows differ in width
RAGGED = ("[[1,0,0],[0,1]]", "[[0,1],[1,0,0]]", "[[1,0,0],[0,1,0,5]]")


# multi-branch curves whose branches sit at different conductors, each
# first tangent entry irrational: curve() re-fills a branch at the curve's
# conductor, and its tangent's normalisation takes an inverse there
_1 = [(1, 1, 1, 0)]
CONDUCTORS = {
    # tangents (z3, 1, 0) at conductor 6 and (1 + z5, 1, 0) at 60
    "conductors_non_tangent": [
        [[(2, [(1, 1, 3, 1)]), (3, _1)], [(2, _1)], [(5, _1)]],
        [[(3, [(1, 1, 1, 0), (1, 1, 5, 1)]), (4, _1)], [(3, _1)], [(5, [(1, 1, 4, 1)])]],
    ],
    # a tangent pair at conductors 6 and 24, and a line at 5: N = 120
    "conductors_tangent_pair": [
        [[(2, [(1, 1, 3, 1)]), (5, _1)], [(2, _1)], [(3, _1)]],
        [[(2, [(1, 1, 3, 1)]), (5, [(1, 1, 8, 1)])], [(2, _1)], [(3, [(2, 1, 1, 0)])]],
        [[(1, [(1, 1, 5, 1)])], [(1, _1)], []],
    ],
    # plane branches at conductors 14, 9 and 12: N = 252
    "conductors_plane": [
        [[(2, [(1, 1, 7, 1)]), (3, _1)], [(2, _1)]],
        [[(1, [(1, 1, 9, 1)])], [(1, _1)]],
        [[(3, [(1, 1, 4, 1)]), (4, _1)], [(3, _1)]],
    ],
}


def _curve(branches) -> dict:
    """A C^n document; each branch is n lists of (exp, summands), each
    summand (num, den, zeta_order, zeta_pow)."""
    def coeff(summands):
        return [dict(zip(("num", "den", "zeta_order", "zeta_pow"), s)) for s in summands]

    return {"version": 1, "n": len(branches[0]), "branches": [
        {"label": f"b{index + 1}", "coords": [
            [{"exp": e, "coeff": coeff(summands)} for e, summands in coord]
            for coord in coords
        ]} for index, coords in enumerate(branches)
    ]}


def conversion_documents(directory: pathlib.Path) -> list:
    """Write the curves of many-term coefficients at N = 2017 and 2520 and
    those of cancelling coefficients into directory; return their paths."""
    rng = random.Random(SEED)

    def many(N, count):
        return [(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 5, 7)), N, rng.randrange(N))
                for _ in range(count)] + [(1, 3, N, N - 1)]

    def mono(N):
        return [(rng.choice((1, -1, 3)), 1, N, rng.randrange(1, N))]

    one, (zero, ninths, root2, root3) = [(1, 1, 1, 0)], CANCELLING
    curves = {}
    for N in (2017, 2520):
        # m = 3 beside m = 2 would put lcm(2017, 6) = 12102 past the conductor cap
        m = 4 if N == 2017 else 3
        curves[f"many_terms_one_{N}"] = _curve([
            [[(2, one)], [(3, mono(N)), (4, many(N, 5))], [(3, mono(N)), (5, many(N, 4))]],
        ])
        curves[f"many_terms_two_{N}"] = _curve([
            [[(2, one)], [(3, mono(N)), (4, many(N, 4))], [(3, mono(N)), (5, many(N, 5))]],
            [[(m, one)], [(m + 1, mono(N)), (m + 2, many(N, 3))],
             [(m + 1, mono(N)), (m + 3, many(N, 5))]],
        ])
    curves["cancelling_one"] = _curve([
        [[(2, one)], [(3, one), (4, zero)], [(3, ninths), (5, root2)]],
    ])
    curves["cancelling_two"] = _curve([
        [[(2, one)], [(3, root3), (5, ninths)], [(3, root2)]],
        [[(3, one)], [(4, ninths)], [(4, zero), (5, root3)]],
    ])
    paths = []
    for name, doc in curves.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def conductor_documents(directory: pathlib.Path) -> list:
    """Write CONDUCTORS and a branch-reversed copy of each into directory;
    return (path, copy) pairs."""
    return [
        _write_with_reversed_copy(_curve(branches), directory, name)
        for name, branches in CONDUCTORS.items()
    ]


def quotient_documents(directory: pathlib.Path) -> list:
    """Write curves at N = 2017 and 2520 whose every normalised vector is a
    rational multiple of a lead of several terms, c (2 powers of zeta_2017,
    3 of zeta_2520, so that a Euclid inverse of c stays well under a
    second), and a branch-reversed copy of each, into directory; return
    (path, copy) pairs. Each coordinate's lowest non-special term is a
    rational multiple of c, so every v_theta is; higher terms are sums of
    several powers."""
    rng = random.Random(SEED)

    def scaled(c, num, den=1):
        return [(num * a, den * b, N, k) for a, b, N, k in c]

    def many(N, count):
        return [(rng.choice((1, -1, 2)), 1, N, rng.randrange(N)) for _ in range(count)]

    one, paths = [(1, 1, 1, 0)], []
    for N, terms in ((2017, 2), (2520, 3)):
        c = [(rng.choice((1, -1, 2)), 1, N, rng.randrange(1, N)) for _ in range(terms)]
        curves = {
            "one": [
                [[(2, one)], [(3, c), (4, many(N, 4))], [(3, scaled(c, -1, 2)), (5, many(N, 3))]],
            ],
            "cube": [
                [[(3, one)], [(4, scaled(c, 3)), (5, many(N, 3))], [(4, c), (7, many(N, 2))]],
            ],
            "pair": [
                [[(2, one)], [(3, c), (4, many(N, 3))], [(3, scaled(c, 3))]],
                [[(2, one)], [(3, scaled(c, -1))], [(3, scaled(c, 2)), (5, many(N, 4))]],
            ],
        }
        paths += [
            _write_with_reversed_copy(_curve(branches), directory, f"quotient_{name}_{N}")
            for name, branches in curves.items()
        ]
    return paths


def prime_documents(directory: pathlib.Path) -> list:
    """Write one- and two-branch C^3 curves at N = 2310, 9240 and 10080,
    conductors with many primes, and a branch-reversed copy of each into
    directory; return (path, copy) pairs. Every coefficient is zeta_N^k
    with k < phi(N), so no power of zeta folds, and k prime to N, so the
    curve's conductor is N."""
    rng = random.Random(SEED)
    paths = []
    for N, phi in ((2310, 480), (9240, 1920), (10080, 2304)):  # (N, phi(N))
        def z():
            k = rng.randrange(1, phi)
            while math.gcd(k, N) != 1:
                k = rng.randrange(1, phi)
            return [(1, 1, N, k)]

        def branch(m):
            return [
                [(m, [(1, 1, 1, 0)])],
                [(m + 1, z()), (m + 2, z())],
                [(m + 1, z()), (m + 3, z())],
            ]

        paths.append(_write_with_reversed_copy(_curve([branch(2)]), directory, f"primes_one_{N}"))
        paths.append(
            _write_with_reversed_copy(_curve([branch(2), branch(3)]), directory, f"primes_two_{N}")
        )
    return paths


def prime_invocations(paths: list) -> list:
    return [
        call for pair in paths for path in map(str, pair) for call in (
            ["analyze", path],
            ["analyze", path, "--json"],
            ["verify", path],
            ["project", path, "--auto"],
        )
    ]


def conversion_invocations(paths: list) -> list:
    return [
        call for path in paths for call in (
            ["analyze", str(path), "--json"],
            ["verify", str(path)],
            ["verify", str(path), "--samples", "57"],
        )
    ]


def _document_invocations(path: pathlib.Path) -> list:
    """analyze, project and verify of one document."""
    f = str(path)
    n = json.loads(path.read_text())["n"]
    units = [[int(col == row) for col in range(n)] for row in range(2, n)]
    diffs = [[int(col == 1) - int(col == k) for col in range(n)] for k in range(2, n)]
    return [
        ["analyze", f],
        ["analyze", f, "--json"],
        ["analyze", f, "--reps"],
        ["analyze", f, "--json", "--reps"],
        ["project", f, "--auto"],
        ["project", f, "--auto", "--json"],
        ["project", f, "--kernel", json.dumps(units), "--json"],
        ["project", f, "--kernel", json.dumps(diffs)],
        ["verify", f],
        ["verify", f, "--json"],
        ["verify", f, "--seed", "3", "--radii", "0.1", "0.01", "0.001",
         "--samples", "57", "--json"],
        ["verify", f, "--seed", "3", "--radii", "0.1", "0.01", "0.001",
         "--samples", "57"],
    ]


def invocations(fixtures: pathlib.Path) -> list:
    paths = sorted(fixtures.glob("*.json"))
    out = [call for path in paths for call in _document_invocations(path)]
    for path in paths:
        out.append(["verify", str(path), "--samples", "1"])
        out.append(["verify", str(path), "--samples", "1000",
                    "--radii", "0.1", "0.01", "0.001", "0.0001"])
    out += [["compare", str(a), str(b), "--json"] for a in paths for b in paths]
    return out


def command_line_invocations(fixtures: pathlib.Path) -> list:
    """--help, --version, rejected command lines and the edges of a
    command's own parsing, on space_cusp."""
    f = str(fixtures / "space_cusp.json")
    return [
        ["--help"],
        *([command, "--help"] for command in COMMANDS),
        ["--version"],
        [],
        ["frobnicate", f],
        ["analyze", f, "--frobnicate"],
        ["analyze"],
        ["compare", f],
        ["verify"],
        ["verify", f, "--samples", "abc"],
        ["verify", f, "--seed", "1.5"],
        ["verify", f, "--tolerance", "x"],
        ["verify", f, "--radii"],
        ["verify", f, "--radii", "--samples", "3"],
        ["project", f],
        ["project", f, "--kernel", "[[0,0,1]]", "--auto"],
        ["analyze", "--", f],
        ["analyze", f, "--js"],
        ["analyze", f, "--version"],
        ["compare", "--json", f, f],
        ["verify", f, "--seed", "1", "--seed", "2"],
        ["project", f, "--auto", "--kernel"],
    ]


def _rational(text: str) -> bool:
    try:
        Fraction(text)
    except ValueError:
        return False
    return True


def override_invocations(tree: pathlib.Path) -> list:
    """verify --override-planes of each of the tree's fixtures with its own
    cone planes, read off the tree's analyze --json; none for a fixture
    whose cone is a line or has a basis entry outside Q. Then the RAGGED
    matrices on space_cusp."""
    paths = sorted((tree / "fixtures").glob("*.json"))
    results, _, _ = _run(tree, [["analyze", str(path), "--json"] for path in paths])
    out = []
    for path, (code, stdout, _) in zip(paths, results):
        cone = json.loads(stdout)["cone"] if code == 0 else None
        if cone is None or cone["dimension"] != 2:
            continue
        rows = [row for component in cone["components"] for row in component["basis"]]
        if all(_rational(e) for row in rows for e in row):
            out.append(["verify", str(path), "--override-planes", json.dumps(rows)])
    space_cusp = str(tree / "fixtures" / "space_cusp.json")
    return out + [["verify", space_cusp, "--override-planes", m] for m in RAGGED]


def generated_documents(tree: pathlib.Path, directory: pathlib.Path) -> list:
    """Write the cyclo-highN and random-lowN documents of SEED, drawn as the
    benchmark draws them, and a branch-reversed copy of each into
    directory; return (path, reversed copy's path) pairs."""
    spec = importlib.util.spec_from_file_location(
        "cli_diff_workloads", tree / "perfbench" / "workloads.py"
    )
    W = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(W)
    docs = []
    rng = random.Random(SEED)
    for index, shape in enumerate(W.CYCLO_SHAPES):
        docs.append((f"cyclo{index}", W.cyclo_curve(rng, W.cyclo_skeleton(*shape))))
    rng = random.Random(SEED)
    for index, stratum in enumerate(W.lown_strata(40)):
        docs.append((f"lown{index:02d}", W.lown_curve(rng, stratum)))
        # the benchmark draws a branch permutation after each curve
        perm = list(range(len(docs[-1][1]["branches"])))
        while perm == sorted(perm):
            rng.shuffle(perm)
    paths = []
    for name, doc in docs:
        path = directory / f"{name}.json"
        copy = directory / f"{name}.reversed.json"
        path.write_text(W.dumps(doc), encoding="utf-8")
        reversal = list(range(len(doc["branches"])))[::-1]
        copy.write_text(W.dumps(W.permuted(doc, reversal)), encoding="utf-8")
        paths.append((path, copy))
    return paths


def _write_with_reversed_copy(doc: dict, directory: pathlib.Path, stem: str) -> tuple:
    """Write doc and a branch-reversed copy into directory; return both paths."""
    path, copy = directory / f"{stem}.json", directory / f"{stem}.reversed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    doc = dict(doc, branches=doc["branches"][::-1])
    copy.write_text(json.dumps(doc), encoding="utf-8")
    return path, copy


def relabelled_documents(fixtures: pathlib.Path, directory: pathlib.Path) -> list:
    """Write each fixture with its branches labelled from LABELS, and a
    branch-reversed copy, into directory; return (path, copy) pairs."""
    paths = []
    for source in sorted(fixtures.glob("*.json")):
        doc = json.loads(source.read_text(encoding="utf-8"))
        for index, branch in enumerate(doc["branches"]):
            branch["label"] = LABELS[index % len(LABELS)] + str(index)
        paths.append(_write_with_reversed_copy(doc, directory, f"{source.stem}.relabelled"))
    return paths


def merging_documents(tree: pathlib.Path, directory: pathlib.Path) -> list:
    """Write the curves of the tree's tests/pencil_curves.py, the tangent
    pairs at m = 60 and 120 and the curves with two tangent classes, and a
    branch-reversed copy of each, into directory; return (path, copy) pairs."""
    P = _load_test_module(tree, "pencil_curves")
    curves = {f"{name}_m{m}": s for m in (60, 120) for name, s in P.pencil_pairs(m).items()}
    # 122 planes over Q(zeta_120): analyze's product equation alone takes
    # 70 s per call, where the 62 planes at m = 60 take 3 s
    del curves["off_pivot_independent_m120"]
    curves.update(P.TWO_TANGENT_CLASSES)
    return [
        _write_with_reversed_copy(P.document(s), directory, name) for name, s in curves.items()
    ]


def _load_test_module(tree: pathlib.Path, name: str):
    """The tree's tests/<name>.py, loaded by path; it imports no engine."""
    spec = importlib.util.spec_from_file_location(f"cli_diff_{name}", tree / "tests" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def many_component_invocations(tree: pathlib.Path, directory: pathlib.Path) -> list:
    """verify, with default flags and with a seed, three radii and 57
    samples, of MANY_COMPONENTS written into directory."""
    P = _load_test_module(tree, "pencil_curves")
    out = []
    for name, spec in MANY_COMPONENTS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(P.document(spec)), encoding="utf-8")
        out += [["verify", str(path)], ["verify", str(path), "--seed", "3", "--radii",
                                        "0.1", "0.01", "0.001", "--samples", "57"]]
    return out


def last_invocations(tree: pathlib.Path, directory: pathlib.Path) -> list:
    """analyze of SPELLING, and compare of the tangent family pair at r = 8
    both ways round, written into directory."""
    P = _load_test_module(tree, "pencil_curves")
    E = _load_test_module(tree, "reference_equivalence")
    spelling = directory / "spelling.json"
    spelling.write_text(json.dumps(SPELLING), encoding="utf-8")
    x, y = (directory / f"tangent_family_{side}.json" for side in "xy")
    for path, spec in zip((x, y), E.tangent_family(8)):
        path.write_text(json.dumps(P.document(spec)), encoding="utf-8")
    return [call for call in _document_invocations(spelling) if call[0] == "analyze"] + [
        ["compare", str(x), str(y), "--json"],
        ["compare", str(y), str(x), "--json"],
    ]


def reader_invocations(tree: pathlib.Path, directory: pathlib.Path) -> list:
    """Every command on the edge documents of SEED and on the file faults
    of the tree's tests/edge_documents.py, written into directory."""
    E = _load_test_module(tree, "edge_documents")
    folder = directory / "reader"
    folder.mkdir()
    paths = []
    for index, doc in enumerate(E.edge_documents(random.Random(SEED), READER_DOCUMENTS)):
        paths.append(folder / f"edge{index:03d}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    paths += E.write_file_faults(folder)
    return [call for path in map(str, paths) for call in (
        ["analyze", path, "--json"],
        ["compare", path, path, "--json"],
        ["project", path, "--auto", "--json"],
        ["verify", path],
    )]


def generated_invocations(paths: list) -> list:
    out = []
    for path, copy in paths:
        out += _document_invocations(path)
        out.append(["project", str(copy), "--auto"])
        out.append(["project", str(copy), "--auto", "--json"])
        out.append(["compare", str(path), str(path), "--json"])
        out.append(["compare", str(path), str(copy), "--json"])
    return out


def _worker(src: str) -> None:
    """Run the invocations read from stdin with the engine under src and
    write [exit code, stdout, stderr] and the seconds taken for each to
    stdout as JSON."""
    sys.path.insert(0, src)
    from c5cone.cli import main

    results, seconds = [], []
    for argv in json.load(sys.stdin):
        start = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escape is a result to compare too
                code = f"uncaught {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
        seconds.append(time.perf_counter() - start)
    json.dump([results, seconds], sys.stdout)


def _run(tree: pathlib.Path, calls: list) -> tuple:
    """(results, seconds per command, total wall seconds) of one tree."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree / "src")],
        input=json.dumps(calls),
        capture_output=True,
        text=True,
        check=True,
    )
    results, seconds = json.loads(proc.stdout)
    per_command = {}
    for argv, s in zip(calls, seconds):
        # a command line with no command counts as the parser's
        command = argv[0] if argv and argv[0] in COMMANDS else "parser"
        per_command[command] = per_command.get(command, 0.0) + s
    return results, per_command, time.perf_counter() - start


def _source_lines(tree: pathlib.Path) -> int:
    """The line count of the tree's src/c5cone/*.py, as wc -l counts it."""
    return sum(
        path.read_bytes().count(b"\n") for path in (tree / "src" / "c5cone").glob("*.py")
    )


def _first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x[:100]!r} != {y[:100]!r}"
    return f"{len(la)} lines != {len(lb)} lines"


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--worker":
        _worker(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (pathlib.Path(p).resolve() for p in argv)
    sets = [
        (invocations(new / "fixtures") + override_invocations(new), "fixtures"),
        (command_line_invocations(new / "fixtures"), "command lines"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        sets += [
            (generated_invocations(generated_documents(new, tmp)), "generated curves"),
            (generated_invocations(relabelled_documents(new / "fixtures", tmp)),
             "relabelled fixtures"),
            (generated_invocations(merging_documents(new, tmp)), "merging spans"),
            (generated_invocations(conductor_documents(tmp)), "branches at different conductors"),
            (generated_invocations(quotient_documents(tmp)), "rational quotients"),
            (conversion_invocations(conversion_documents(tmp)), "conversion to doubles"),
            (prime_invocations(prime_documents(tmp)), "many primes"),
            (many_component_invocations(new, tmp), "many components"),
            (last_invocations(new, tmp), "coefficient spelling and the tangent family"),
            (reader_invocations(new, tmp), "reader"),
        ]
        counts = [(len(calls), _diff(old, new, calls, what)) for calls, what in sets]
    total, differences = map(sum, zip(*counts))
    print(f"all sets: {total} invocations, {differences} differ")
    return 1 if differences else 0


def _diff(old: pathlib.Path, new: pathlib.Path, calls: list, what: str) -> int:
    """Print the differing invocations of the first round, then a total
    line and the median seconds per command; return the count."""
    runs = {old: [], new: []}
    for round_ in range(ROUNDS):
        for tree in (old, new) if round_ % 2 == 0 else (new, old):
            runs[tree].append(_run(tree, calls))
    differences = 0
    for argv_, a, b in zip(calls, runs[old][0][0], runs[new][0][0]):
        if a == b:
            continue
        differences += 1
        shown = " ".join(pathlib.Path(x).name if x.endswith(".json") else x for x in argv_)
        print(f"DIFF {shown}")
        for name, x, y in zip(("exit", "stdout", "stderr"), a, b):
            if x != y:
                detail = f"{x} != {y}" if name == "exit" else _first_difference(x, y)
                print(f"  {name}: {detail}")

    def median(tree, command=None):
        return statistics.median(
            total if command is None else per[command] for _, per, total in runs[tree]
        )

    print(
        f"{what}: {len(calls)} invocations, {differences} differ "
        f"(median of {ROUNDS} rounds: old {median(old):.1f} s, new {median(new):.1f} s; "
        f"src/c5cone: old {_source_lines(old)} lines, new {_source_lines(new)} lines)"
    )
    for command in sorted(runs[new][0][1]):
        print(
            f"  {command}: old {median(old, command):.2f} s, "
            f"new {median(new, command):.2f} s"
        )
    return differences


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
