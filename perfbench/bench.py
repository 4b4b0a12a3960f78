"""Ops, output checks and the measurement loop.

A workload is a list of curves; a curve is a list of ops; an op is one call
into the engine, either the CLI entry point ``c5cone.cli.main(argv)`` with
its output captured or a public API function. Every op has a check that
does not depend on recorded outputs, and ops on frozen inputs also have a
golden outcome (exit code and stdout digest) recorded at the commit that
defined the benchmark. Ops run in one process and one thread, one after the
other (a closed loop with one client). Each op is followed by reference
work that puts its time on a fixed scale (see reference.py).

The engine is looked up through module attributes at call time, so the
tracer's wrappers are used once installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import statistics
import sys
import time

import reference
import workloads as W

TOLERANCE = 1e-2  # the verify command's default tolerance
OP_DEADLINE = 60.0  # no op of a workload may take longer
PROBE_DEADLINE = 3.0  # prime_multiplicity analyze, known not to finish
LOWN_STRATA = 40
# Secant samples per radius of the verify op on generated curves: enough to
# time the oracle without letting it dominate workloads aimed elsewhere.
GENERATED_SAMPLES = 40
COMMANDS = ("analyze", "compare", "project", "verify")


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op that overran its deadline."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliResult:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code, self.out, self.err = code, out, err

    def error_class(self):
        if self.code != 2:
            return None
        try:
            return json.loads(self.err)["error"]
        except (ValueError, KeyError, TypeError):
            return "unparsable stderr"


class Op:
    """One engine call. call() returns the outcome; check(outcome) returns
    None when the outcome is right, else the reason it is wrong; render
    turns an outcome into the text whose digest a golden records."""

    __slots__ = ("id", "command", "call", "check", "render", "deadline")

    def __init__(self, op_id, command, call, check, render=None, limit=OP_DEADLINE):
        self.id = op_id
        self.command = command
        self.call = call
        self.check = check
        self.render = render
        self.deadline = limit


class Curve:
    __slots__ = ("id", "ops")

    def __init__(self, curve_id, ops):
        self.id = curve_id
        self.ops = ops


class Workload:
    """prelude runs once per measured window, passes repeat; probe is an op
    known not to finish at the defining commit, run under its own deadline
    and reported apart from the counted ops."""

    def __init__(self, name, passes, prelude=(), probe=None):
        self.name = name
        self.pass_curves = list(passes)
        self.prelude = list(prelude)
        self.probe = probe


# ---------------------------------------------------------------------------
# Running ops


class Runner:
    def __init__(self, goldens, tracer=None):
        self.goldens = goldens
        self.tracer = tracer
        self.attempted = 0
        self.failed = []  # (op id, reason)
        self.times = {}  # op id -> reference seconds of each run that passed its checks
        self.pass_s = []  # reference seconds of each measured pass, checks included

    def run_op(self, op):
        """(elapsed seconds, failure reason or None, outcome)."""
        outcome = None
        reason = None
        tracer = self.tracer
        start = time.perf_counter()
        try:
            with deadline(op.deadline):
                if tracer is not None:
                    tracer.enabled = True
                try:
                    outcome = op.call()
                finally:
                    if tracer is not None:
                        tracer.enabled = False
        except DeadlineExceeded:
            reason = f"deadline {op.deadline:g}s"
        except (Exception, SystemExit) as exc:
            reason = f"unexpected {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if reason is None:
            reason = self.check(op, outcome)
        return elapsed, reason, outcome

    def check(self, op, outcome):
        if op.render is not None:
            reason = self.golden_reason(op, outcome)
            if reason is not None:
                return reason
        try:
            return op.check(outcome)
        except Exception as exc:  # a malformed outcome fails its op
            return f"check raised {type(exc).__name__}: {exc}"

    def golden_reason(self, op, outcome):
        golden = self.goldens.get(op.id)
        if golden is None:
            return "no golden recorded"
        if isinstance(outcome, CliResult):
            if outcome.code != golden["exit"]:
                return f"golden: exit {outcome.code}, recorded {golden['exit']}"
            if outcome.error_class() != golden["error"]:
                return f"golden: error {outcome.error_class()}, recorded {golden['error']}"
        if digest(op.render(outcome)) != golden["sha256"]:
            return "golden: output digest differs"
        return None

    def run_curve(self, curve):
        """Run and check every op of a curve; returns its reference seconds,
        checks included. Times of ops that passed their checks go to
        self.times."""
        total = 0.0
        for op in curve.ops:
            start = time.perf_counter()
            elapsed, reason, _ = self.run_op(op)
            busy = time.perf_counter() - start
            factor = reference.scale(busy)
            self.attempted += 1
            total += busy * factor
            if reason is None:
                self.times.setdefault(op.id, []).append(elapsed * factor)
            else:
                self.failed.append((op.id, reason))
        return total

    def run_curves(self, curves):
        return sum(self.run_curve(curve) for curve in curves)


def measure(workload, runner, seconds):
    """Prelude once, then whole passes, at least one, until seconds of
    wall time have passed. Returns the number of passes."""
    start = time.perf_counter()
    runner.run_curves(workload.prelude)
    while not runner.pass_s or time.perf_counter() - start < seconds:
        runner.pass_s.append(runner.run_curves(workload.pass_curves))
    return len(runner.pass_s)


# ---------------------------------------------------------------------------
# Checks shared by the workloads


def cli(engine, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = engine.cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def _bounds_reason(count, b2, b1):
    if not count <= b2 <= b1:
        return f"cone count {count} vs bounds {b2} <= {b1} fails"
    return None


def check_analyze_json(result: CliResult):
    if result.code != 0:
        return f"exit {result.code}"
    data = json.loads(result.out)
    cone, bounds = data["cone"], data["bounds"]
    if cone["dimension"] == 2:
        return _bounds_reason(cone["count"], bounds["bound2"], bounds["bound1"])
    return None


def check_verify_cli(result: CliResult):
    if result.code != 0:
        return f"verify exit {result.code}"
    if json.loads(result.out)["pass"] is not True:
        return "verify did not pass"
    return None


def check_project_cli(result: CliResult):
    if result.code != 0:
        return f"project --auto exited {result.code}"
    if json.loads(result.out)["invariance"] is not True:
        return "a generic projection was found but invariance fails"
    return None


def check_project_fixture(result: CliResult):
    """For ops with a golden only: the golden, checked first, pins the exit
    code and error class, so a recorded exit 2 passes here."""
    if result.code == 2:
        return None
    return check_project_cli(result)


def automorphism_reason(profile, sigma):
    """None when sigma (a branch permutation of one curve) preserves every
    characteristic set and pairwise contact sequence of its profile."""
    r = len(sigma)
    if sorted(sigma) != list(range(r)):
        return f"witness {sigma} is not a bijection"
    for i in range(r):
        if profile.chams[sigma[i]] != profile.chams[i]:
            return f"witness sends branch {i} to a branch of another ChAM"
        for j in range(i + 1, r):
            a, b = sorted((sigma[i], sigma[j]))
            if profile.coams[(a, b)] != profile.coams[(i, j)]:
                return f"witness breaks the CoAM of pair {(i, j)}"
    return None


def witness_reason(engine, curve, perm, witness):
    """The compare witness against a copy whose branch j is branch perm[j]
    must invert the permutation, up to a relabelling that keeps the
    profile (branches with equal invariants are interchangeable)."""
    sigma = [perm[j] for j in witness]
    if sigma == list(range(len(perm))):
        return None
    return automorphism_reason(engine.api.profile(curve), sigma)


def check_compare_cli(engine, curve, perm):
    labels = [b.label for b in curve.branches]

    def check(result: CliResult):
        if result.code != 0:
            return f"compare with a branch-permuted copy exited {result.code}"
        data = json.loads(result.out)
        if data["equivalent"] is not True:
            return "compare with a branch-permuted copy is not equivalent"
        permuted_labels = [labels[i] for i in perm]
        witness = [permuted_labels.index(b) for _, b in data["witness"]]
        return witness_reason(engine, curve, perm, witness)

    return check


def cone_text(engine, cone, n):
    """Equations and provenance of a cone, as canonical JSON text."""
    names = engine.cli.variable_names(n)
    comps = []
    for comp, prov in zip(cone.components, cone.provenance):
        entry = engine.cli.component_json(comp, names)
        entry["provenance"] = [list(map(str, d)) for d in prov]
        comps.append(entry)
    return json.dumps({"dimension": cone.dimension, "components": comps}, sort_keys=True)


def _cli_render(result: CliResult):
    return result.out


def _reversal(r):
    return list(range(r))[::-1]


# ---------------------------------------------------------------------------
# fixtures-cli


def build_fixtures_cli(engine, seed, workdir):
    """Every CLI command on the fourteen frozen fixtures; the seed orders
    the pass."""
    names = list(W.SMALL_FIXTURES)
    random.Random(seed).shuffle(names)
    pairs = {}
    for a, b in W.FIXTURE_COMPARE_PAIRS:
        pairs.setdefault(a, []).append(b)
    curves = []
    for name in names:
        path = str(W.FROZEN / f"{name}.json")
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        curve = engine.api.read_curve(path)
        perm = _reversal(len(doc["branches"]))
        copy = workdir / f"{name}.reversed.json"
        copy.write_text(W.dumps(W.permuted(doc, perm)), encoding="utf-8")

        def op(argv, command, check):
            return Op(
                " ".join(argv).replace(path, name).replace(str(copy), f"{name}.reversed"),
                command, lambda: cli(engine, argv), check, _cli_render,
            )

        ops = [
            op(["analyze", path, "--json"], "analyze", check_analyze_json),
            op(["analyze", path, "--json", "--reps"], "analyze", check_analyze_json),
            op(["verify", path], "verify", check_verify_cli),
        ]
        if curve.n >= 3:
            ops.append(op(["project", path, "--auto", "--json"], "project", check_project_fixture))
        ops.append(op(
            ["compare", path, str(copy), "--json"], "compare",
            check_compare_cli(engine, curve, perm),
        ))
        for other in pairs.get(name, ()):
            other_path = str(W.FROZEN / f"{other}.json")
            argv = ["compare", path, other_path, "--json"]
            ops.append(Op(
                f"compare {name} {other} --json", "compare",
                lambda argv=argv: cli(engine, argv), lambda result: None, _cli_render,
            ))
        curves.append(Curve(name, ops))
    return Workload("fixtures-cli", curves)


# ---------------------------------------------------------------------------
# random-lowN


def _api_analyze(engine, curve, state):
    def call():
        state["cone"] = engine.api.c5_cone(curve)
        engine.api.profile(curve)
        return state["cone"], engine.api.bound2(curve), engine.api.bound1(curve)

    def check(outcome):
        cone, b2, b1 = outcome
        return _bounds_reason(len(cone.components), b2, b1)

    return call, check


def _api_verify(engine, curve, state):
    def call():
        return engine.api.sample_secant_directions(
            curve, k=GENERATED_SAMPLES, cone=state.get("cone")
        )

    def check(report):
        if not report.max_plane_distance <= TOLERANCE:
            return f"sampled secants stray {report.max_plane_distance:.2e} from the cone"
        return None

    return call, check


def build_random_lown(engine, seed, workdir):
    rng = random.Random(seed)
    curves = []
    for index, stratum in enumerate(W.lown_strata(LOWN_STRATA)):
        doc = W.lown_curve(rng, stratum)
        r = len(doc["branches"])
        perm = list(range(r))
        while perm == list(range(r)):
            rng.shuffle(perm)
        path = workdir / f"lown{index:02d}.json"
        copy_path = workdir / f"lown{index:02d}.permuted.json"
        path.write_text(W.dumps(doc), encoding="utf-8")
        copy_path.write_text(W.dumps(W.permuted(doc, perm)), encoding="utf-8")
        curve = engine.api.read_curve(str(path))
        copy = engine.api.read_curve(str(copy_path))
        state = {}
        cid = f"lown{index:02d}"

        def compare(curve=curve, copy=copy):
            return engine.api.bilipschitz_equivalent(curve, copy)

        def compare_check(verdict, curve=curve, perm=perm):
            if not verdict.equivalent:
                return "not equivalent to a branch-permuted copy"
            return witness_reason(engine, curve, perm, verdict.witness)

        ops = [Op(f"{cid} analyze", "analyze", *_api_analyze(engine, curve, state))]
        ops.append(Op(f"{cid} compare", "compare", compare, compare_check))
        if curve.n >= 3:

            def project(curve=curve):
                proj = engine.api.find_generic_projection(curve)
                return engine.api.verify_projection_invariance(curve, proj)

            ops.append(Op(
                f"{cid} project", "project", project,
                lambda ok: None if ok is True else "invariance fails",
            ))
        ops.append(Op(f"{cid} verify", "verify", *_api_verify(engine, curve, state)))
        curves.append(Curve(cid, ops))
    return Workload("random-lowN", curves)


# ---------------------------------------------------------------------------
# cyclo-highN


def build_cyclo_highn(engine, seed, workdir):
    rng = random.Random(seed)
    curves = []
    for index, skeleton in enumerate(W.cyclo_skeleton(*shape) for shape in W.CYCLO_SHAPES):
        doc = W.cyclo_curve(rng, skeleton)
        r = len(doc["branches"])
        perm = _reversal(r)
        cid = f"cyclo{index}-m{'.'.join(map(str, skeleton[0]))}-N{skeleton[1]}"
        path = workdir / f"{cid}.json"
        copy = workdir / f"{cid}.reversed.json"
        path.write_text(W.dumps(doc), encoding="utf-8")
        copy.write_text(W.dumps(W.permuted(doc, perm)), encoding="utf-8")
        curve = engine.api.read_curve(str(path))
        state = {}

        def analyze(path=str(path), state=state):
            result = cli(engine, ["analyze", path, "--json"])
            state["analyze"] = result
            return result

        def cone(curve=curve, state=state):
            state["cone"] = engine.api.c5_cone(curve)
            return state["cone"]

        def cone_check(result, curve=curve, state=state):
            report = state.get("analyze")
            if report is None or report.code != 0:
                return "no analyze report to compare with"
            data = json.loads(report.out)
            names = engine.cli.variable_names(curve.n)
            mine = [engine.cli.component_equations(c, names) for c in result.components]
            theirs = [c["equations"] for c in data["cone"]["components"]]
            if mine != theirs:
                return "c5_cone planes differ from the analyze report"
            return _bounds_reason(
                len(mine), data["bounds"]["bound2"], data["bounds"]["bound1"]
            )

        ops = [
            Op(f"{cid} analyze", "analyze", analyze, check_analyze_json),
            Op(f"{cid} cone", "cone", cone, cone_check),
            Op(
                f"{cid} compare", "compare",
                lambda p=str(path), q=str(copy): cli(engine, ["compare", p, q, "--json"]),
                check_compare_cli(engine, curve, perm),
            ),
            Op(
                f"{cid} project", "project",
                lambda p=str(path): cli(engine, ["project", p, "--auto", "--json"]),
                check_project_cli,
            ),
            Op(f"{cid} verify", "verify", *_api_verify(engine, curve, state)),
        ]
        curves.append(Curve(cid, ops))
    rng.shuffle(curves)

    prime_path = str(W.FROZEN / f"{W.PRIME_FIXTURE}.json")
    prime = {}

    def read():
        prime["curve"] = engine.api.read_curve(prime_path)
        return prime["curve"]

    def prime_cone():
        return engine.api.c5_cone(prime["curve"])

    def doc_text(curve):
        return engine.api.dumps_document(engine.api.to_document(curve))

    def cone_render(cone):
        return cone_text(engine, cone, prime["curve"].n)

    def prime_cone_check(cone):
        c = prime["curve"]
        return _bounds_reason(len(cone.components), engine.api.bound2(c), engine.api.bound1(c))

    prelude = [Curve(W.PRIME_FIXTURE, [
        Op(f"{W.PRIME_FIXTURE} read", "read", read, lambda c: None, doc_text),
        Op(f"{W.PRIME_FIXTURE} cone", "cone", prime_cone, prime_cone_check, cone_render),
    ])]
    probe = Op(
        f"{W.PRIME_FIXTURE} analyze --json", "analyze",
        lambda: cli(engine, ["analyze", prime_path, "--json"]),
        check_analyze_json, None, PROBE_DEADLINE,
    )
    return Workload("cyclo-highN", curves, prelude, probe)


WORKLOADS = {
    "fixtures-cli": build_fixtures_cli,
    "random-lowN": build_random_lown,
    "cyclo-highN": build_cyclo_highn,
}


def summarize(workload, runner):
    """End-to-end metrics of the pass curves of one measured window, all
    in reference seconds (see reference.py).

    A curve counts when every op of it passed its checks in every pass.
    Each op's time is the median of its repeats in the window, and a
    curve's time is the sum of its ops' times. curves_per_s is the number
    of curves that count over the median time of a whole pass, checks
    included. setup_s and peak_rss_mb are added by the caller."""
    failed = {op_id for op_id, _ in runner.failed}
    typical = {op_id: statistics.median(times) for op_id, times in runner.times.items()}
    done = [c for c in workload.pass_curves if not any(op.id in failed for op in c.ops)]
    curve_ms = [1000 * sum(typical[op.id] for op in c.ops) for c in done] or [0.0]
    out = {
        "curves_per_s": len(done) / statistics.median(runner.pass_s),
        "curve_ms.p50": statistics.median(curve_ms),
    }
    for command in COMMANDS:
        values = [typical[op.id] for c in done for op in c.ops if op.command == command]
        out[f"{command}_ms.p50"] = 1000 * statistics.median(values) if values else 0.0
    return out


def report_failures(failed, limit=20):
    for op_id, reason in failed[:limit]:
        print(f"failed op: {op_id}: {reason}", file=sys.stderr)
    if len(failed) > limit:
        print(f"... and {len(failed) - limit} more failed ops", file=sys.stderr)
