"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py
"""

import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tracer import Tracer, patched  # noqa: E402

from quiddsim import baselines, bench, cnf  # noqa: E402


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Box:
    value = 1


def test_self_times_and_uncovered_add_up_to_wall():
    tr = Tracer()
    inner = tr.wrap(lambda: _spin(0.002), "inner")
    outer = tr.wrap(lambda: (_spin(0.002), inner(), inner()), "outer")
    t0 = time.perf_counter_ns()
    outer()
    _spin(0.001)
    inner()
    wall = time.perf_counter_ns() - t0
    assert tr.calls("inner") == 3
    assert tr.total_ns("inner", parent="outer") < tr.total_ns("inner")
    assert tr.self_ns("outer") == (tr.total_ns("outer")
                                   - tr.total_ns("inner", parent="outer"))
    uncovered = wall - tr.covered_ns()
    assert uncovered > 0
    assert sum(tr.self_ns(n) for n in tr.names()) + uncovered == wall


def test_counter_callbacks_are_charged_to_their_own_span():
    tr = Tracer()
    f = tr.wrap(lambda: None, "f", after=lambda args, result: _spin(0.002))
    outer = tr.wrap(f, "outer")
    outer()
    assert tr.self_ns("outer") < 1_000_000
    assert tr.total_ns(workloads.OWN, parent="outer") >= 2_000_000


def test_patched_restores_on_error():
    try:
        with patched([(_Box, "value", 2)]):
            assert _Box.value == 2
            raise RuntimeError
    except RuntimeError:
        pass
    assert _Box.value == 1


def test_traced_pass_matches_untraced_and_covers_every_span(tmp_path):
    cfg = bench.ExperimentConfig(kind="repeat_until_all_found", k_min=5,
                                 k_max=5, marked_count=3, repetitions=5,
                                 seed=7, out=str(tmp_path / "plain.csv"))
    bench.run_repeat_all(cfg)
    golden = hashlib.sha256((tmp_path / "plain.csv").read_bytes()).hexdigest()
    inputs = {"configs": [cfg], "goldens": {cfg.seed: golden}}
    checks = workloads.Checks()
    tracer = Tracer()
    digests, walls = [], []
    for tr in (None, tracer):
        digest = hashlib.sha256()
        walls.append(workloads.run_pass("repeat_all", inputs, checks,
                                        tmp_path, digest, tr).wall_ns)
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]
    assert checks.failed == 0 and checks.attempted > 0
    assert set(tracer.names()) <= set(workloads.SPANS)
    assert tracer.calls("grover.run") == tracer.counters["shots"]
    metrics = workloads.layer_metrics(tracer, walls[1:], walls[:1])
    assert set(metrics) >= {f"{s}.self_ms" for s in workloads.SPANS}
    self_ms = sum(metrics[f"{s}.self_ms"][0] for s in workloads.SPANS)
    assert abs(self_ms + metrics["trace.uncovered_ms"][0]
               - metrics["trace.wall_s"][0] * 1e3) < 1e-6
    assert 0 < metrics["grover.stats_share"][0] < 1
    assert metrics["quidd.nodes_created"][0] > 0


def test_reference_samples_are_left_out_of_the_pass_time():
    clock = workloads.PassClock(sample=True)
    _spin(0.25)
    clock.checkpoint()
    clock.untimed(lambda: _spin(0.1))
    elapsed = clock.elapsed_ns()
    assert len(clock.references) == 2
    assert 250_000_000 <= elapsed < 290_000_000
    assert workloads.PassClock(sample=False).references == []


def test_reference_speed_rescales_by_the_reference_sample():
    slow = workloads.Pass(reference_ns=2 * workloads.REFERENCE_HOST_NS)
    assert slow.at_reference_speed(4_000_000_000) == 2_000_000_000


def test_no_walk_is_solved_with_zero_flips():
    # Seeded from the instance's own stream, a walk's first restart draws
    # the generator's hidden assignment and solves without a flip.
    for seed in (0, 1):
        for i, inst in enumerate(workloads.sat_inputs(seed)):
            formula = cnf.parse_dimacs(inst["dimacs"])
            res = baselines.schoening_walk(baselines.WalkConfig(
                formula, max_restarts=workloads.WALK_MAX_RESTARTS,
                seed=workloads.walk_seed(seed, i)))
            assert res.satisfied
            assert cnf.evaluate_bits(formula, res.assignment)
            assert res.total_flips > 0


def test_inputs_depend_only_on_the_seed():
    for name in ("grover_deep", "repeat_all", "sat_search"):
        a = workloads.inputs_digest(workloads.setup(name, 3))
        assert a == workloads.inputs_digest(workloads.setup(name, 3))
        assert a != workloads.inputs_digest(workloads.setup(name, 4))
