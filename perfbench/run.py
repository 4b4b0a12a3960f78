"""c5cone benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixtures-cli --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* fixtures-cli: every CLI command on the fourteen frozen small fixtures;
* random-lowN: seeded multi-branch curves of small conductor, through the API;
* cyclo-highN: seeded one- and two-branch space curves over Q(zeta_N) with
  N in {60, 120, 360, 420}, plus the frozen prime_multiplicity fixture.

The engine runs in this process, one thread, one closed-loop client, with
C5CONE_THREADS unset. Set-up (fresh import of the engine, document
generation, writing and reading, warm-up) runs SETUP_ROUNDS times and
setup_s is the median. Measurement repeats whole passes over the curves
until --seconds of wall time have passed. Every op is checked; the last
stdout line is one JSON object {correct, attempted, failed, metrics}.

Every time is in reference seconds: wall time put on a fixed scale by
reference work run right after it (reference.py), so that a shared
machine's changing speed cancels out.

--trace 1 runs the prelude and one pass untraced, then traced, twice, and
reports per-layer metrics from the first traced pass, the tracing overhead,
and whether every count repeated exactly in the second. Spans are written
to .perfbench/traces/. The engine is single-threaded, so no layer waits on
another and no wait times are reported.

--record-goldens re-records the golden outcomes of the ops on frozen
inputs into perfbench/goldens.json.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
SETUP_ROUNDS = 9


def metric_units(kind: str) -> dict:
    """Metric name -> unit of the "end_to_end" or "per_layer" list of
    BENCHMARK.json, the one place where metrics are declared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Engine:
    """The engine modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "c5cone" or m.startswith("c5cone.")]:
            del sys.modules[name]
        import c5cone
        import c5cone.cli

        self.api = c5cone
        self.cli = c5cone.cli


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    return parser.parse_args(argv)


def setup(bench, name, seed):
    """SETUP_ROUNDS fresh set-ups; returns (engine, workload, reference
    seconds from process start to the first timed op, with the median
    round)."""
    workdir = ROOT / ".perfbench" / "work" / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    before = time.perf_counter() - PROCESS_START
    before *= bench.reference.scale(before)
    rounds = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        engine = Engine()
        workload = bench.WORKLOADS[name](engine, seed, workdir)
        warm = bench.cli(engine, ["analyze", str(HERE / "fixtures" / "space_cusp.json"), "--json"])
        if warm.code != 0:
            raise RuntimeError(f"warm-up analyze exited {warm.code}: {warm.err}")
        elapsed = time.perf_counter() - start
        rounds.append(elapsed * bench.reference.scale(elapsed))
    return engine, workload, before + statistics.median(rounds)


def metric_block(values, kind):
    units = metric_units(kind)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from {kind}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_timed(bench, workload, seconds, goldens):
    runner = bench.Runner(goldens)
    passes = bench.measure(workload, runner, seconds)
    metrics = bench.summarize(workload, runner)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{workload.name}: {passes} passes over {len(workload.pass_curves)} curves",
        file=sys.stderr,
    )
    if workload.probe is not None:
        # Last, so that the memory it reaches before its deadline, which
        # depends on the machine's speed, stays out of peak_rss_mb.
        elapsed, reason, _ = runner.run_op(workload.probe)
        status = reason or "finished"
        print(f"probe {workload.probe.id}: {status} after {elapsed:.2f}s", file=sys.stderr)
    return runner, metrics


def run_traced(bench, engine, workload, goldens, name, seed):
    """Prelude and one pass, run untraced and traced in turn, twice."""
    import layertrace

    curves = workload.prelude + workload.pass_curves
    tracer = layertrace.Tracer()
    plain, traced = bench.Runner(goldens), bench.Runner(goldens, tracer)
    counts = []
    for _ in range(2):
        plain.run_curves(curves)
        tracer.reset()
        tracer.install(engine.api)
        traced.run_curves(curves)
        tracer.uninstall()
        counts.append(tracer.call_counts())
        if len(counts) == 1:
            metrics = layertrace.layer_metrics(tracer, len(curves))
            out = ROOT / ".perfbench" / "traces"
            out.mkdir(parents=True, exist_ok=True)
            tracer.dump(out / f"{name}-{seed}.jsonl")
    repeat = counts[0] == counts[1]
    if not repeat:
        differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                        if counts[0].get(k) != counts[1].get(k))
        print(f"trace counts differ between two traced passes: {differ[:10]}", file=sys.stderr)
    both = plain.times.keys() & traced.times.keys()
    untraced_s = sum(statistics.median(plain.times[k]) for k in both)
    traced_s = sum(statistics.median(traced.times[k]) for k in both)
    metrics["trace.overhead"] = traced_s / untraced_s - 1
    print(
        f"{name}: pass {untraced_s:.2f}s untraced, {traced_s:.2f}s traced, "
        f"{metrics['trace.spans']} spans",
        file=sys.stderr,
    )
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    return plain, metrics, repeat


def record_goldens(bench, engine, seed):
    """Run every op with a render on the frozen inputs and store outcomes."""
    goldens = {}
    for name in ("fixtures-cli", "cyclo-highN"):
        workdir = ROOT / ".perfbench" / "work" / f"{name}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        workload = bench.WORKLOADS[name](engine, seed, workdir)
        for curve in workload.prelude + workload.pass_curves:
            for op in curve.ops:
                if op.render is None:
                    continue
                outcome = op.call()
                entry = {"sha256": bench.digest(op.render(outcome))}
                if isinstance(outcome, bench.CliResult):
                    entry["exit"] = outcome.code
                    entry["error"] = outcome.error_class()
                goldens[op.id] = entry
    GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(goldens)} goldens", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "c5cone" / "__init__.py").is_file():
        print(f"no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("C5CONE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench

    if args.record_goldens:
        record_goldens(bench, Engine(), args.seed)
        return 0
    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())
    engine, workload, setup_s = setup(bench, args.workload, args.seed)
    if args.trace:
        runner, values, repeat = run_traced(
            bench, engine, workload, goldens, args.workload, args.seed
        )
        metrics = metric_block(values, "per_layer")
    else:
        runner, values = run_timed(bench, workload, args.seconds, goldens)
        repeat = True
        values["setup_s"] = setup_s
        metrics = metric_block(values, "end_to_end")
    bench.report_failures(runner.failed)
    result = {
        "correct": not runner.failed and repeat,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
