"""Command-line interface.

Four commands over curve documents:

* analyze: branches, tangency classes, auxiliary records, multiplicity
  invariants, cone planes with equations, plane-count bounds;
* compare: bi-Lipschitz equivalence verdict with a branch-matching witness;
* project: genericity check of a given kernel, or search for a generic
  plane projection and emit the projected curve;
* verify: floating-point cross-check of the symbolic cone (random secant
  sampling plus explicit witness families).

Exit codes: 0 success or affirmative verdict, 1 negative verdict, 2 input
or validation error, or a standard output closed before the report was
written (the structured diagnostic goes to standard error as JSON).

The float oracle, the projection search and the equivalence search only
read the analysis: verify, project and compare import their module when
they run, so analyze never compiles them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .c5 import (
    Analysis,
    C5Cone,
    bound1,
    bound2,
    component_forms,
    form_product,
    polynomial_text,
    terms_text,
)
from .documents import _canonical_json, dumps_document, read_curve, to_document
from .errors import (
    DimensionMismatch,
    EngineError,
    InvalidArgument,
    InvalidDocument,
    InvalidSamplingParameter,
    OutputClosed,
)
from .geometry import Curve, Plane, component_rows
from .scalar import CycloScalar


def variable_names(n: int):
    if n == 2:
        return ("x", "y")
    if n == 3:
        return ("x", "y", "z")
    return tuple(f"x{i + 1}" for i in range(n))


def _row_texts(row):
    return [e.text() for e in row]


def form_text(form, names) -> str:
    """Linear form as readable text, e.g. 'y - 2*z'. Entries are scalars
    or rationals (int or Fraction)."""
    return terms_text(zip(form, names))


def component_equations(component, names):
    """Equation texts of a cone component (plane or line)."""
    return [form_text(form, names) for form in component_forms(component)]


def component_json(component, names, equations=None):
    """Basis and equation texts of a cone component; equations, when
    given, are its already rendered equation texts."""
    basis = [_row_texts(r) for r in component_rows(component)]
    if equations is None:
        equations = component_equations(component, names)
    return {"basis": basis, "equations": equations}


def _descriptor_json(descriptor):
    kind, labels, k = descriptor
    return {"kind": kind, "labels": list(labels), "k": k}


def _record_json(rec, v_theta, plane_equations):
    return {
        "kind": rec.kind,
        "labels": list(rec.labels),
        "group_order": rec.group_order,
        "k": rec.k,
        "theta": rec.theta.text(),
        "m_theta": rec.m_theta,
        "v_theta": v_theta,
        "plane_equations": plane_equations,
    }


def _print(data, as_json: bool, render) -> None:
    if as_json:
        print(_canonical_json(data))
    else:
        for line in render(data):
            print(line)


# ---------------------------------------------------------------------------
# analyze


def _analyze_report(c: Curve, representatives: bool) -> dict:
    names = variable_names(c.n)
    analysis = Analysis(c)
    cls = analysis.classification
    cone = analysis.cone
    labels = [b.label for b in c.branches]
    branches = []
    for b in c.branches:
        branches.append({
            "label": b.label,
            "multiplicity": b.m,
            "special_coords": sorted(b.special_coords),
            "tangent": _row_texts(b.tangent.vec),
            "parametrization": b.param.text(),
        })
    # The analysis gives planes of one key one object, so each record's
    # plane is a cone component: each component's forms are found once,
    # and its equations rendered once. Records of one span share their
    # v_theta object, rendered once too. The analysis keeps every object
    # alive, so no id is reused meanwhile.
    forms, equations = [], {}
    for component in cone.components:
        forms.append(component_forms(component))
        equations[id(component)] = [form_text(form, names) for form in forms[-1]]
    v_texts = {}
    records = []
    for rec in analysis.records(representatives):
        v = v_texts.get(id(rec.v_theta))
        if v is None:
            v = v_texts[id(rec.v_theta)] = _row_texts(rec.v_theta.vec)
        records.append(_record_json(rec, v, equations[id(rec.plane)]))
    invariants = analysis.profile
    chams = {b.label: sorted(cham) for b, cham in zip(c.branches, invariants.chams)}
    coams = {
        f"{labels[i]},{labels[j]}": list(invariants.coams[(i, j)])
        for i, j in analysis.tangent_pairs
    }
    components = []
    for component, descriptors in zip(cone.components, cone.provenance):
        entry = component_json(component, names, equations[id(component)])
        entry["provenance"] = [_descriptor_json(d) for d in descriptors]
        components.append(entry)
    product = None
    if cone.dimension == 2 and c.n == 3:
        # product_equation(cone), from the forms found above
        product = polynomial_text(form_product(f[0] for f in forms), names)
    return {
        "command": "analyze",
        "n": c.n,
        "conductor": c.conductor,
        "branches": branches,
        "classification": {
            "S": [labels[i] for i in sorted(cls.S)],
            "T": [[labels[i], labels[j]] for i, j in sorted(cls.T)],
            "NT": [[labels[i], labels[j]] for i, j in sorted(cls.NT)],
        },
        "aux_records": records,
        "cham": chams,
        "coam": coams,
        "cone": {
            "dimension": cone.dimension,
            "count": len(cone.components),
            "components": components,
            "product_equation": product,
        },
        "bounds": {"bound1": bound1(c, cls), "bound2": bound2(c, cls)},
    }


def _render_analyze(data):
    yield (
        f"curve: n={data['n']}, {len(data['branches'])} branches, "
        f"conductor {data['conductor']}"
    )
    for b in data["branches"]:
        yield (
            f"branch {b['label']}: m={b['multiplicity']}, "
            f"special {b['special_coords']}, tangent ({', '.join(b['tangent'])}), "
            f"{b['parametrization']}"
        )
    cls = data["classification"]
    yield (
        f"classification: S={cls['S']} "
        f"T={['-'.join(p) for p in cls['T']]} "
        f"NT={['-'.join(p) for p in cls['NT']]}"
    )
    yield f"auxiliary records ({len(data['aux_records'])}):"
    for rec in data["aux_records"]:
        where = ",".join(rec["labels"])
        eqs = ", ".join(rec["plane_equations"])
        yield (
            f"  {rec['kind']} {where} k={rec['k']}/{rec['group_order']}: "
            f"m_theta={rec['m_theta']}, v=({', '.join(rec['v_theta'])}), V({eqs})"
        )
    for label, values in data["cham"].items():
        yield f"ChAM {label}: {values}"
    for pair, values in data["coam"].items():
        yield f"CoAM {pair}: {values}"
    cone = data["cone"]
    what = "planes" if cone["dimension"] == 2 else "line"
    yield f"C5 cone: dimension {cone['dimension']}, {cone['count']} {what}"
    for idx, comp in enumerate(cone["components"]):
        eqs = ", ".join(comp["equations"])
        origins = ", ".join(
            f"{d['kind']}({','.join(d['labels'])},k={d['k']})"
            for d in comp["provenance"]
        )
        yield f"  component {idx + 1}: V({eqs}) from {origins}"
    if cone["product_equation"]:
        yield f"product equation: {cone['product_equation']}"
    bounds = data["bounds"]
    yield (
        f"bounds: count {cone['count']} <= bound2 {bounds['bound2']} "
        f"<= bound1 {bounds['bound1']}"
    )


def cmd_analyze(args) -> int:
    c = read_curve(args.file)
    report = _analyze_report(c, representatives=args.reps)
    _print(report, args.json, _render_analyze)
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    from .invariants import bilipschitz_equivalent

    x = read_curve(args.file_a)
    y = read_curve(args.file_b)
    verdict = bilipschitz_equivalent(x, y)
    witness = None
    if verdict.witness is not None:
        witness = [
            [x.branches[i].label, y.branches[j].label]
            for i, j in enumerate(verdict.witness)
        ]
    data = {
        "command": "compare",
        "equivalent": verdict.equivalent,
        "witness": witness,
    }

    def render(d):
        yield f"bi-Lipschitz equivalent: {'yes' if d['equivalent'] else 'no'}"
        if d["witness"]:
            for a, b in d["witness"]:
                yield f"  {a} -> {b}"

    _print(data, args.json, render)
    return 0 if verdict.equivalent else 1


# ---------------------------------------------------------------------------
# project


def _parse_rational_entry(value) -> CycloScalar:
    if isinstance(value, bool):
        raise InvalidDocument(f"matrix entries must be numbers, got {value!r}")
    if isinstance(value, int):
        return CycloScalar.rational(value)
    if isinstance(value, str):
        try:
            return CycloScalar.rational(Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise InvalidDocument(f"cannot parse {value!r} as a rational") from None
    raise InvalidDocument(f"matrix entries must be int or 'p/q', got {value!r}")


def _parse_matrix(text: str, what: str):
    normalized = text.replace("(", "[").replace(")", "]")
    try:
        raw = json.loads(normalized)
    except (ValueError, RecursionError) as exc:  # bad JSON, a long int, deep nesting
        raise InvalidDocument(f"{what} is not a valid matrix: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise InvalidDocument(f"{what} must be a non-empty list")
    if not isinstance(raw[0], list):
        raw = [raw]
    return [[_parse_rational_entry(e) for e in row] for row in raw]


def _projection_json(proj) -> dict:
    return {
        "matrix": [_row_texts(r) for r in proj.matrix],
        "kernel": [_row_texts(r) for r in proj.kernel_basis],
    }


def cmd_project(args) -> int:
    from .projection import (
        LinearProjection,
        apply_projection,
        find_generic_projection,
        image_keeps_profile,
        is_c5_generic,
    )

    c = read_curve(args.file)
    names = variable_names(c.n)
    if args.kernel is not None:
        rows = _parse_matrix(args.kernel, "--kernel")
        for row in rows:  # before the rank, which rows of another width misstate
            if len(row) != c.n:
                raise DimensionMismatch(
                    f"--kernel rows need {c.n} entries, got {len(row)}",
                    dims=[len(row), c.n],
                )
        proj = LinearProjection.from_kernel(rows)
        verdict = is_c5_generic(c, proj)
        data = {
            "command": "project",
            "mode": "kernel",
            "projection": _projection_json(proj),
            "generic": verdict.generic,
            "violating_component": (
                None
                if verdict.violating_component is None
                else component_json(verdict.violating_component, names)
            ),
        }

        def render(d):
            yield f"C5-generic: {'yes' if d['generic'] else 'no'}"
            if d["violating_component"] is not None:
                eqs = ", ".join(d["violating_component"]["equations"])
                yield f"  kernel meets component V({eqs})"

        _print(data, args.json, render)
        return 0 if verdict.generic else 1
    # one analysis gives the search its spans and the check its source profile
    analysis = Analysis(c)
    proj = find_generic_projection(c, analysis)
    try:
        image = apply_projection(c, proj)
    except EngineError:
        image = None
    invariant = image is not None and image_keeps_profile(analysis.profile, image)
    data = {
        "command": "project",
        "mode": "auto",
        "projection": _projection_json(proj),
        "image_document": None if image is None else to_document(image),
        "invariance": invariant,
    }

    def render(d):
        rows = ", ".join(
            form_text(row, names) for row in (proj.matrix[0], proj.matrix[1])
        )
        yield f"projection: ({rows})"
        yield f"invariance verified: {'yes' if d['invariance'] else 'no'}"
        if d["image_document"] is not None:
            yield "image document:"
            yield dumps_document(d["image_document"]).rstrip()

    _print(data, args.json, render)
    return 0 if invariant else 1


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .oracle import (
        DEFAULT_RADII,
        DEFAULT_SAMPLES,
        DEFAULT_TOLERANCE,
        FloatView,
        check_leading_terms,
        check_sampling_parameters,
        cone_witness_results,
        sample_secant_directions,
    )

    asked = DEFAULT_RADII if args.radii is None else args.radii
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    tol = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    c = read_curve(args.file)
    # bad flags, and leading terms that underflow doubles at the smallest
    # radius, exit before any cone or sampling work
    radii = check_sampling_parameters(asked, samples, len(c.branches))
    if not 0 < tol < 1:  # a plane distance never exceeds 1; NaN fails too
        raise InvalidSamplingParameter(f"tolerance must lie in (0, 1), got {tol}")
    check_leading_terms(c, radii[-1])
    analysis = Analysis(c)
    cone = analysis.cone
    override = None
    if args.override_planes is not None:
        raw = _parse_matrix(args.override_planes, "--override-planes")
        size = 2
        if len(raw) % size:
            raise InvalidDocument(
                "--override-planes needs two basis rows per plane"
            )
        planes = [
            Plane(raw[i:i + size]) for i in range(0, len(raw), size)
        ]
        override = C5Cone(
            dimension=2,
            components=tuple(planes),
            provenance=tuple(() for _ in planes),
        )
        cone = override
    # one float view: the witness families and the sampler convert each
    # branch's terms and each component's basis once between them
    view = FloatView(c.branches, cone.components)
    witnesses = [] if override else cone_witness_results(c, analysis, view)
    report = sample_secant_directions(
        c, radii=tuple(asked), k=samples, seed=args.seed, view=view
    )
    witness_ok = [
        (not w.skipped) and w.monotone and w.final_plane_distance <= tol
        for w in witnesses
    ]
    witness_failed = [
        w for w, ok in zip(witnesses, witness_ok) if not w.skipped and not ok
    ]
    attained = []
    for idx in range(len(cone.components)):
        by_witness = idx < len(witness_ok) and witness_ok[idx]
        by_sample = report.component_min[idx] <= tol
        attained.append(by_witness or by_sample)
    passed = (
        report.max_plane_distance <= tol
        and not witness_failed
        and all(attained)
    )
    data = {
        "command": "verify",
        "seed": report.seed,
        "prng": report.prng,
        "radii": list(report.radii),
        "samples_per_radius": report.samples_per_radius,
        "per_radius_max": [[r, d] for r, d in report.per_radius_max],
        "max_plane_distance": report.max_plane_distance,
        "degenerate_resampled": report.degenerate_count,
        "component_attained": attained,
        "component_min_distance": list(report.component_min),
        "witness_families": [w._asdict() for w in witnesses],
        "tolerance": tol,
        "pass": passed,
    }
    print(_canonical_json(data))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with InvalidArgument, so it ends like every
    other input error: exit 2 and a JSON diagnostic. Subcommand parsers
    are built from this class too."""

    def error(self, message):
        raise InvalidArgument(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="c5cone",
        description="Exact bi-secant limit cones of complex curve germs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full report for one curve")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument(
        "--reps",
        action="store_true",
        help="list one characteristic record per root order instead of all",
    )

    p_compare = sub.add_parser("compare", help="bi-Lipschitz equivalence")
    p_compare.add_argument("file_a")
    p_compare.add_argument("file_b")
    p_compare.add_argument("--json", action="store_true")

    p_project = sub.add_parser("project", help="plane projection analysis")
    p_project.add_argument("file")
    group = p_project.add_mutually_exclusive_group(required=True)
    group.add_argument("--kernel", help="kernel rows, e.g. '[[0,0,1]]'")
    group.add_argument("--auto", action="store_true")
    p_project.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="numeric cross-check of the cone")
    p_verify.add_argument("file")
    p_verify.add_argument("--seed", type=int, default=0)
    # an absent flag is None, and cmd_verify reads the oracle's default, so
    # that building the parser loads no oracle
    p_verify.add_argument("--radii", type=float, nargs="+")
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--tolerance", type=float)
    p_verify.add_argument("--override-planes", help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so a handler replaced on the module still runs
        code = globals()[f"cmd_{args.command}"](args)
        # a closed stdout fails here, whether or not stdout is buffered
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: what is still buffered for stdout, flushed
        # at exit, goes to the null device instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        error = OutputClosed("standard output was closed before the report was written")
    except EngineError as exc:
        error = exc
    print(json.dumps(error.to_json(), sort_keys=True), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
