"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import random
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def _lown_texts(seed):
    rng = random.Random(seed)
    return [W.dumps(W.lown_curve(rng, s)) for s in W.lown_strata(bench.LOWN_STRATA)]


def _cyclo_texts(seed):
    rng = random.Random(seed)
    return [
        W.dumps(W.cyclo_curve(rng, W.cyclo_skeleton(*shape)))
        for shape in W.CYCLO_SHAPES
    ]


@pytest.mark.parametrize("texts", [_lown_texts, _cyclo_texts])
def test_same_seed_gives_byte_identical_documents(texts):
    assert texts(7) == texts(7)
    assert len({tuple(texts(seed)) for seed in range(8)}) > 1


def test_generated_documents_are_valid_curves():
    engine = run.Engine()
    for text in _lown_texts(3) + _cyclo_texts(3):
        doc = json.loads(text)
        curve = engine.api.from_document(doc)
        assert engine.api.dumps_document(doc) == text
        assert curve.conductor <= 420


def test_lown_documents_stay_within_the_workload_limits():
    engine = run.Engine()
    for text in _lown_texts(11):
        curve = engine.api.from_document(json.loads(text))
        assert 2 <= curve.n <= 5
        assert 2 <= len(curve.branches) <= 4
        assert max(b.m for b in curve.branches) <= 6
        assert curve.conductor <= 12


@pytest.fixture(scope="module")
def fixtures_cli(tmp_path_factory):
    engine = run.Engine()
    workload = bench.build_fixtures_cli(engine, 0, tmp_path_factory.mktemp("work"))
    goldens = json.loads(run.GOLDENS.read_text())
    return workload, goldens


def _first_op(workload, command):
    for curve in workload.pass_curves:
        for op in curve.ops:
            if op.command == command:
                return op
    raise AssertionError(command)


def test_recorded_golden_passes(fixtures_cli):
    workload, goldens = fixtures_cli
    op = _first_op(workload, "analyze")
    _, reason, _ = bench.Runner(goldens).run_op(op)
    assert reason is None


def test_tampered_golden_digest_is_a_failed_op(fixtures_cli):
    workload, goldens = fixtures_cli
    op = _first_op(workload, "analyze")
    tampered = dict(goldens)
    tampered[op.id] = dict(goldens[op.id], sha256="0" * 64)
    runner = bench.Runner(tampered)
    runner.run_curve(bench.Curve("tampered", [op]))
    assert runner.failed == [(op.id, "golden: output digest differs")]


def test_tampered_golden_exit_code_is_a_failed_op(fixtures_cli):
    workload, goldens = fixtures_cli
    op = _first_op(workload, "verify")
    tampered = dict(goldens)
    tampered[op.id] = dict(goldens[op.id], exit=1)
    _, reason, _ = bench.Runner(tampered).run_op(op)
    assert reason == "golden: exit 0, recorded 1"


def test_missing_golden_is_a_failed_op(fixtures_cli):
    workload, _ = fixtures_cli
    op = _first_op(workload, "compare")
    _, reason, _ = bench.Runner({}).run_op(op)
    assert reason == "no golden recorded"


def test_deadline_turns_a_long_op_into_a_failure():
    def spin():
        while True:
            pass

    op = bench.Op("spin", "analyze", spin, lambda outcome: None, limit=0.05)
    _, reason, _ = bench.Runner({}).run_op(op)
    assert reason == "deadline 0.05s"


def test_project_exit_2_passes_only_where_a_golden_pins_it():
    error = bench.CliResult(2, "", '{"error": "NoCommonSpecialCoordinate"}')
    assert bench.check_project_fixture(error) is None
    assert bench.check_project_cli(error) == "project --auto exited 2"
    broken = bench.CliResult(0, '{"invariance": false}', "")
    assert bench.check_project_fixture(broken) is not None
    assert bench.check_project_cli(bench.CliResult(0, '{"invariance": true}', "")) is None


def test_summary_uses_median_op_times_and_whole_pass_times():
    def op(op_id, command):
        return bench.Op(op_id, command, None, None)

    workload = bench.Workload("synthetic", [
        bench.Curve("a", [op("a1", "analyze"), op("a2", "verify")]),
        bench.Curve("b", [op("b1", "analyze")]),
    ])
    runner = bench.Runner({})
    runner.times = {"a1": [0.010, 0.030, 0.020], "a2": [0.005], "b1": [0.040, 0.050]}
    runner.pass_s = [0.5, 0.2, 0.4]
    metrics = bench.summarize(workload, runner)
    assert metrics["curves_per_s"] == pytest.approx(2 / 0.4)
    assert metrics["curve_ms.p50"] == pytest.approx((25.0 + 45.0) / 2)
    assert metrics["analyze_ms.p50"] == pytest.approx((20.0 + 45.0) / 2)
    assert metrics["verify_ms.p50"] == pytest.approx(5.0)
    assert metrics["project_ms.p50"] == 0.0


def test_reference_scale_maps_reference_work_to_its_nominal_time():
    import reference

    start = time.perf_counter()
    reference.unit()
    elapsed = time.perf_counter() - start
    assert reference.scale(0.0) > 0
    assert elapsed * reference.scale(elapsed) == pytest.approx(reference.REFERENCE_S, rel=0.9)


class _S:
    def __init__(self, name, start, end, parent, scalar_s=0.0):
        self.name, self.start, self.end = name, start, end
        self.parent, self.scalar_s = parent, scalar_s


def test_self_time_on_a_synthetic_trace():
    spans = [
        _S("cli.main", 0.0, 10.0, None),  # children cover 1-4 and 5-9
        _S("c5.c5_cone", 1.0, 4.0, 0, scalar_s=0.5),  # child covers 2-3
        _S("auxiliary.characteristic_aux", 2.0, 3.0, 1),
        _S("invariants.profile", 5.0, 9.0, 0),  # children overlap: 6-8 union 7-8.5
        _S("auxiliary.coam", 6.0, 8.0, 3),
        _S("auxiliary.coam", 7.0, 8.5, 3),
    ]
    assert layertrace.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 1.0 - 0.5, 1.0, 4.0 - 2.5, 2.0, 1.5]
    )


def test_traced_counts_repeat_and_match_benchmark_json(tmp_path):
    engine = run.Engine()
    workload = bench.build_fixtures_cli(engine, 0, tmp_path)
    tracer = layertrace.Tracer()
    tracer.install(engine.api)
    runner = bench.Runner(json.loads(run.GOLDENS.read_text()), tracer)
    curves = workload.pass_curves[:3]
    counts = []
    for _ in range(2):
        tracer.reset()
        runner.run_curves(curves)
        counts.append(tracer.call_counts())
    assert not runner.failed
    assert counts[0] == counts[1]
    metrics = layertrace.layer_metrics(tracer, len(curves))
    assert metrics["scalar.mul.calls"] > 0 and metrics["geometry.rref.calls"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.metric_units("per_layer")) == set(metrics) | {"trace.overhead"}
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
