"""End-to-end contract battery.

Each test exercises one numbered contract at its stated tolerance,
printing a single ``[PASS]``/``[FAIL]`` verdict line with its elapsed
time straight to the real stdout so the tally survives pytest's capture.
Criterion 2 alone asserts a wall-clock budget.  The
21x3 parameter grid (k = 4..24, marked counts 1/2/4) is simulated once
per session and shared by the contracts that read it.
"""

import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from quiddsim import baselines, bench, cnf, gates, grover, oracle
from quiddsim.bench import ExperimentConfig
from quiddsim.quidd import QuiddManager

import dense_ref as dense
from dense_ref import (amplitude_trace_report, from_dense, matrix_space,
                       to_dense, vector_space)


@contextmanager
def verdict(number, label, cap):
    """Print one pass/fail line for a numbered contract.

    The body stores human-readable evidence in ``info['detail']``, which
    the line shows whether the criterion passed or failed; any exception
    (assertion or otherwise) flips the line to FAIL and is re-raised so
    pytest still reports the criterion as failed.  ``cap`` is the test's
    capture fixture: suspending it routes the line to the real stdout
    whatever capture mode the run uses.
    """
    info = {"detail": ""}
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield info
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        detail = f" ({info['detail']})" if info["detail"] else ""
        with cap.disabled():
            print(f"[{status}] criterion {number:2d}: {label}{detail}"
                  f" [{elapsed:.1f}s]", flush=True)


# ---------------------------------------------------------------------------
# shared full-grid simulation

GRID_KS = tuple(range(4, 25))
GRID_MS = (1, 2, 4)


def _grid_marked(k, count):
    return random.Random(1009 * k + count).sample(range(1 << k), count)


@dataclass(frozen=True)
class GridRuns:
    runs: dict
    build_seconds: float


@pytest.fixture(scope="module")
def grid(request):
    runs = {}
    start = time.perf_counter()
    for k in GRID_KS:
        for count in GRID_MS:
            m = QuiddManager()
            orc = oracle.compile_marked_set(m, k, _grid_marked(k, count))
            runs[(k, count)] = grover.run(
                m, orc, grover.GroverParams(k=k, shots=0))
    return GridRuns(runs, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# 1: the 2-qubit worked example

def test_criterion_01_two_qubit_diffusion_example(capfd):
    with verdict(1, "2-qubit diffusion maps (-1/2,1/2,1/2,1/2) to (1,0,0,0)"
                 " within 1e-12", capfd) as info:
        m = QuiddManager()
        vec = from_dense(m, [-0.5, 0.5, 0.5, 0.5], vector_space(2))
        out = m.matvec(gates.diffusion(m, 2), vec, 2)
        got = to_dense(m, out, vector_space(2))
        err = float(np.max(np.abs(got - np.array([1, 0, 0, 0], dtype=complex))))
        info["detail"] = f"max entry error {err:.2e}"
        assert err <= 1e-12
        # Matches one hand-applied oracle step: the input above is the
        # uniform state after flipping the phase of index 0.
        uniform = from_dense(m, [0.5] * 4, vector_space(2))
        orc = oracle.compile_marked_set(m, 2, [0])
        flipped = grover.apply_oracle(m, orc, uniform)
        assert flipped == vec


# ---------------------------------------------------------------------------
# 2: iteration counts across the grid

def test_criterion_02_iteration_counts_match_floor_formula(grid, capfd):
    with verdict(2, "all 63 grid cells use floor((pi/4)sqrt(N/M)) iterations;"
                 " attainable ratios sit in [0.74, 0.80]", capfd) as info:
        ratios = []
        degenerate = []
        for (k, count), rec in grid.runs.items():
            n = 1 << k
            expected = math.floor((math.pi / 4) * math.sqrt(n / count))
            assert rec.iterations == expected, (k, count, rec.iterations)
            ratio = rec.iterations / math.sqrt(n / count)
            assert ratio <= 0.80 + 1e-12, (k, count, ratio)
            if n // count in (4, 8, 32, 128):
                # Tiny N/M forces the floor to round a long way down, so
                # the ratio is pinned by integer arithmetic: 1/2 at
                # N/M = 4, exactly 1/sqrt(2) at 8, 32 and 128.
                degenerate.append((k, count, ratio))
                pinned = 0.5 if n // count == 4 else 1 / math.sqrt(2)
                assert ratio == pytest.approx(pinned, abs=1e-12)
            else:
                assert 0.74 <= ratio <= 0.80, (k, count, ratio)
                ratios.append(ratio)
        assert len(degenerate) == 9 and len(ratios) == 54
        mean_ratio = sum(ratios) / len(ratios)
        assert 0.74 <= mean_ratio <= 0.80
        budget = grid.build_seconds + 0.1
        info["detail"] = (f"54/63 in band, mean ratio {mean_ratio:.4f}, 9"
                          f" small-N/M cells floor-pinned; grid {budget:.1f}s")
        assert budget < 60.0


# ---------------------------------------------------------------------------
# 3: exact agreement with the dense simulator for every k <= 10 run

def test_criterion_03_matches_dense_for_all_single_marked_runs(capfd):
    with verdict(3, "2046 single-marked runs (k=1..10) track the dense"
                 " simulator and the closed form within 1e-9", capfd) as info:
        worst_amp = 0.0
        worst_prob = 0.0
        runs = 0
        for k in range(1, 11):
            n = 1 << k
            for marked in range(n):
                m = QuiddManager()
                orc = oracle.compile_marked_set(m, k, [marked])
                rec = grover.run(m, orc, grover.GroverParams(k=k, shots=0))
                ref = dense.grover_trace(k, [marked], rec.iterations)
                probe = 0 if marked != 0 else 1
                for stats in rec.trace:
                    state = ref.states[stats.t]
                    worst_amp = max(
                        worst_amp,
                        abs(stats.marked_amp - state[marked]),
                        abs(stats.unmarked_amp - state[probe]))
                    worst_prob = max(
                        worst_prob,
                        abs(stats.success_prob - ref.success_probs[stats.t]),
                        abs(stats.success_prob
                            - grover.ideal_success_probability(stats.t, n, 1)))
                runs += 1
        assert runs == 2046
        info["detail"] = (f"worst amplitude gap {worst_amp:.2e}, worst"
                          f" probability gap {worst_prob:.2e}")
        assert worst_amp <= 1e-9
        assert worst_prob <= 1e-9


# ---------------------------------------------------------------------------
# 4: oracle compactness and linear peak growth

def test_criterion_04_single_marked_diagrams_stay_linear(grid, capfd):
    with verdict(4, "single-marked oracles hold exactly k internal nodes"
                 " (k=1..24) and peak live size grows linearly", capfd) as info:
        for k in range(1, 25):
            m = QuiddManager()
            index = random.Random(6007 * k).randrange(1 << k)
            report = m.count_nodes(
                oracle.compile_marked_set(m, k, [index]).phase_vector)
            assert report.internal == k, (k, report)
        ks = np.array(GRID_KS, dtype=float)
        peaks = np.array(
            [grid.runs[(k, 1)].peak_live_internal_nodes for k in GRID_KS],
            dtype=float)
        corr = float(np.corrcoef(ks, peaks)[0, 1])
        info["detail"] = (f"peak live nodes {int(peaks[0])}..{int(peaks[-1])}"
                          f" over k=4..24, corr {corr:.6f}")
        assert corr >= 0.99


# ---------------------------------------------------------------------------
# 5: per-iteration cost fits c * k * b^k with b well below 2

def test_criterion_05_loop_time_growth_base_in_band(capfd):
    with verdict(5, "median loop time over k=10..20 fits c*k*b^k with"
                 " b in [1.35, 1.48]", capfd) as info:
        fit = bench.run_scaling(ExperimentConfig(
            kind="scaling", k_min=10, k_max=20, repetitions=3, seed=0))
        info["detail"] = (f"b = {fit.growth_base:.4f}, c ="
                          f" {fit.constant_ns:.0f} ns")
        assert 1.35 <= fit.growth_base <= 1.48


# ---------------------------------------------------------------------------
# 6: classical baseline query counts match their closed-form means

def trial_rng(seed, trial):
    """Independent per-trial stream derived from (seed, trial index)."""
    return random.Random((seed << 32) ^ (trial * 0x9E3779B1))


def test_criterion_06_classical_query_means(capfd):
    with verdict(6, "scan mean within 2% of (N+1)/2 and without-replacement"
                 " mean within 3% of (N+1)/(M+1)", capfd) as info:
        n = 1 << 16
        trials = 10_000
        total = 0
        for t in range(trials):
            pos = trial_rng(607, t).randrange(n)
            ledger = baselines.deterministic_scan(
                frozenset([pos]).__contains__, n)
            assert ledger.found and ledger.index == pos
            total += ledger.queries
        scan_mean = total / trials
        scan_target = (n + 1) / 2
        scan_err = abs(scan_mean - scan_target) / scan_target
        assert scan_err <= 0.02, scan_mean

        n2, count, trials2 = 1 << 12, 16, 4000
        total2 = 0
        for t in range(trials2):
            rng = trial_rng(9013, t)
            pred = frozenset(rng.sample(range(n2), count)).__contains__
            ledger = baselines.randomized_search(
                pred, n2, baselines.WITHOUT_REPLACEMENT,
                seed=rng.randrange(1 << 30))
            assert ledger.found
            total2 += ledger.queries
        wr_mean = total2 / trials2
        wr_target = (n2 + 1) / (count + 1)
        wr_err = abs(wr_mean - wr_target) / wr_target
        info["detail"] = (f"scan {scan_mean:.1f} vs {scan_target}"
                          f" ({100 * scan_err:.2f}%), sample-without-"
                          f"replacement {wr_mean:.2f} vs {wr_target}"
                          f" ({100 * wr_err:.2f}%)")
        assert wr_err <= 0.03, wr_mean


# ---------------------------------------------------------------------------
# 7: random walk behaviour and the query crossover

def test_criterion_07_walk_success_and_crossover(capfd):
    with verdict(7, "walk solves 100/100 planted instances at k=20, per-"
                 "restart rate tracks (3/4)^k, crossover row pinned",
                 capfd) as info:
        solved = 0
        restarts = []
        for s in range(100):
            inst = cnf.planted_3cnf(20, seed=s)
            res = baselines.schoening_walk(baselines.WalkConfig(
                inst.formula, max_restarts=100_000, seed=5000 + s))
            if res.satisfied and cnf.evaluate_bits(inst.formula,
                                                   res.assignment):
                solved += 1
            restarts.append(res.restarts_used)
        assert solved == 100, solved

        ratios = {}
        for k, walks in ((6, 1500), (9, 2500), (12, 4000)):
            law = (3 / 4) ** k
            successes = 0
            attempts = 0
            for inst_seed in range(3):
                inst = cnf.parity_3cnf(k, seed=inst_seed)
                for w in range(walks // 3):
                    res = baselines.schoening_walk(baselines.WalkConfig(
                        inst.formula, max_restarts=1,
                        seed=(k << 20) + (inst_seed << 16) + w))
                    attempts += 1
                    if res.satisfied:
                        successes += 1
            rate = successes / attempts
            ratios[k] = rate / law
            assert law / 4 <= rate <= law * 4, (k, rate, law)

        row = baselines.crossover_table([20])[0]
        assert row.grover_queries == 804
        assert row.deterministic_mean_queries == 524288.5
        info["detail"] = (f"planted mean restarts"
                          f" {sum(restarts) / len(restarts):.1f}; rate/law"
                          f" = {ratios[6]:.2f}/{ratios[9]:.2f}/{ratios[12]:.2f}"
                          f" at k=6/9/12; 804 vs 524288.5 queries at k=20")


# ---------------------------------------------------------------------------
# 8: representation invariants

class NoMemoManager(QuiddManager):
    """A manager whose computed tables stay empty: nothing is remembered."""

    def _remember(self, cache, key, r):
        return r


def test_criterion_08_canonicity_norm_and_cache_identity(grid, capfd):
    with verdict(8, "dense cross-checks at k<=6, norm 1 +/- 1e-9 on every"
                 " trace row, cache on/off runs identical", capfd) as info:
        rng = np.random.default_rng(20260823)
        worst_dense = 0.0
        for k in range(1, 7):
            n = 1 << k
            m = QuiddManager()
            vs, ms = vector_space(k), matrix_space(k)
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ra, rb = from_dense(m, a, vs), from_dense(m, b, vs)
            rm = from_dense(m, mat, ms)
            checks = [
                (to_dense(m, ra, vs), a),
                (to_dense(m, m.apply("add", ra, rb), vs), a + b),
                (to_dense(m, m.apply("mul", ra, rb), vs), a * b),
                (to_dense(m, m.apply("mul", m.terminal(0.5 - 2j), ra), vs),
                 (0.5 - 2j) * a),
                (to_dense(m, m.matvec(rm, ra, k), vs), mat @ a),
                (to_dense(m, gates.hadamard_all(m, k), ms),
                 dense.hadamard_matrix(k)),
                (to_dense(m, gates.diffusion(m, k), ms),
                 dense.diffusion_matrix(k)),
            ]
            for got, want in checks:
                worst_dense = max(worst_dense,
                                  float(np.max(np.abs(got - want))))
            # Canonicity: equal contents means equal references, whether
            # rebuilt from scratch or combined inside the diagram algebra.
            assert from_dense(m, a, vs) == ra
            assert from_dense(m, a + b, vs) == m.apply("add", ra, rb)
            ip = m.inner_product(ra, rb, k)
            assert abs(ip - np.vdot(a, b)) <= 1e-9 * max(1.0, abs(ip))
        assert worst_dense <= 1e-12, worst_dense

        worst_norm = max(abs(s.norm_sq - 1.0)
                         for rec in grid.runs.values() for s in rec.trace)
        for k in (26, 28, 30):
            m = QuiddManager()
            orc = oracle.compile_marked_set(m, k, [(1 << k) - 3])
            rec = grover.run(m, orc,
                             grover.GroverParams(k=k, iterations=300, shots=0))
            worst_norm = max(worst_norm,
                             max(abs(s.norm_sq - 1.0) for s in rec.trace))
        assert worst_norm <= 1e-9, worst_norm

        runs = []
        for cls in (QuiddManager, NoMemoManager):
            m = cls()
            orc = oracle.compile_marked_set(m, 5, [7, 19])
            runs.append(grover.run(
                m, orc, grover.GroverParams(k=5, shots=8, seed=3)))
        assert runs[0].comparable() == runs[1].comparable()
        info["detail"] = (f"worst dense gap {worst_dense:.2e}, worst"
                          f" |norm^2 - 1| {worst_norm:.2e} incl. k=26/28/30")


# ---------------------------------------------------------------------------
# 9: overshooting past the ideal stopping point

def test_criterion_09_overrun_shows_multiple_peaks_then_decline(capfd):
    with verdict(9, "k=6 run at 3x the ideal iteration count oscillates:"
                 " >= 2 maxima, strict decline after the first", capfd) as info:
        m = QuiddManager()
        orc = oracle.compile_marked_set(m, 6, [21])
        base = grover.optimal_iterations(64, 1)
        rec = grover.run(m, orc, grover.GroverParams(
            k=6, iterations=3 * base, shots=0))
        report = amplitude_trace_report(rec)
        info["detail"] = (f"maxima at t = {list(report.local_maxima)},"
                          f" first peak t = {report.first_peak}")
        assert len(report.local_maxima) >= 2
        assert report.declines_after_first_peak
        assert report.first_peak == base


# ---------------------------------------------------------------------------
# 10: repeat-until-all-found matches the coupon-collector expectation

def test_criterion_10_repeat_until_all_found_mean(capfd):
    with verdict(10, "mean repetitions to observe all 4 marked items within"
                 " 10% of 25/3", capfd) as info:
        res = bench.run_repeat_all(ExperimentConfig(
            kind="repeat_until_all_found", k_min=6, marked_count=4,
            repetitions=1000, seed=0))
        target = res.coupon_collector_expectation
        assert target == pytest.approx(25 / 3, abs=1e-12)
        err = abs(res.mean_repetitions - target) / target
        info["detail"] = (f"mean {res.mean_repetitions:.3f} vs {target:.3f}"
                          f" ({100 * err:.1f}% off)")
        assert err <= 0.10
