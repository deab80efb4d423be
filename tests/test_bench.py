"""Experiment drivers and the bench CLI: CSV contracts and determinism."""

import dataclasses
import math
import os
import random
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quiddsim
from quiddsim import bench, cli, grover
from quiddsim.bench import ExperimentConfig
from quiddsim.oracle import compile_marked_set
from quiddsim.quidd import QuiddManager


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# scaling


def test_scaling_csv_layout_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = dict(kind="scaling", k_min=10, k_max=14, repetitions=2, seed=3)
    fit_a = bench.run_scaling(ExperimentConfig(out=str(out_a), **cfg))
    fit_b = bench.run_scaling(ExperimentConfig(out=str(out_b), **cfg))
    lines_a, lines_b = read_lines(out_a), read_lines(out_b)
    assert lines_a[0] == lines_b[0] == bench.SCALING_HEADER
    assert lines_a[0] == "k,iterations,wall_ns,peak_internal_nodes,seed"
    assert len(lines_a) == 1 + 5 * 2
    for ra, rb in zip(lines_a[1:], lines_b[1:]):
        ca, cb = ra.split(","), rb.split(",")
        assert ca[:2] == cb[:2] and ca[3:] == cb[3:]   # wall_ns may differ
        assert int(ca[2]) > 0
    assert [s.k for s in fit_a.samples] == list(range(10, 15))
    for sa, sb in zip(fit_a.samples, fit_b.samples):
        assert (sa.k, sa.iterations, sa.peak_internal_nodes) == \
            (sb.k, sb.iterations, sb.peak_internal_nodes)


def record_trace_settings(monkeypatch):
    """Wrap grover.run so that each call's ``trace`` setting is listed."""
    settings = []
    run = grover.run

    def recording(*args, **kwargs):
        record = run(*args, **kwargs)
        settings.append((kwargs.get("trace", True), len(record.trace)))
        return record

    monkeypatch.setattr(grover, "run", recording)
    return settings


def test_scaling_and_repeat_all_record_no_trace(monkeypatch):
    # They read the loop time, the peak live count and the final state,
    # so their runs keep only the last trace entry.
    settings = record_trace_settings(monkeypatch)
    bench.run_scaling(ExperimentConfig(kind="scaling", k_min=6, k_max=10,
                                       repetitions=2))
    bench.run_repeat_all(ExperimentConfig(kind="repeat_until_all_found",
                                          k_min=5, marked_count=3,
                                          repetitions=4))
    assert settings == [(False, 1)] * 11


def test_trace_experiment_records_every_iteration(monkeypatch):
    settings = record_trace_settings(monkeypatch)
    record = bench.run_trace(ExperimentConfig(kind="trace", k_min=6))
    assert settings == [(True, record.iterations + 1)]


def test_scaling_fit_requires_five_distinct_sizes():
    with pytest.raises(ValueError):
        bench.run_scaling(ExperimentConfig(kind="scaling", k_min=10, k_max=12))


def test_scaling_fit_rejects_series_without_iterations():
    samples = [bench.ScalingSample(k, 0, (900,), 900.0, 0)
               for k in range(4, 9)]
    with pytest.raises(ValueError, match="iteration"):
        bench.fit_scaling(samples)


def test_scaling_fit_rejects_any_zero_iteration_sample():
    samples = [bench.ScalingSample(1, 0, (900,), 900.0, 0)]
    samples += [bench.ScalingSample(k, 1, (1000 * k,), 1000.0 * k, k)
                for k in range(2, 6)]
    with pytest.raises(ValueError, match="zero iterations at k=1$"):
        bench.fit_scaling(samples)


def numpy_fit(samples):
    """The fit as np.polyfit and np.corrcoef compute it."""
    ks = np.array([s.k for s in samples], dtype=float)
    ys = np.log2(np.array([s.median_wall_ns for s in samples]) / ks)
    slope, intercept = np.polyfit(ks, ys, 1)
    peaks = np.array([s.peak_internal_nodes for s in samples], dtype=float)
    return (2.0 ** slope, 2.0 ** intercept, ys, ys - (slope * ks + intercept),
            np.corrcoef(ks, peaks)[0, 1])


@pytest.mark.parametrize("seed", range(40))
def test_scaling_fit_matches_numpy(seed):
    rng = random.Random(seed)
    k0 = rng.randint(1, 20)
    ks = sorted(rng.sample(range(k0, k0 + 20), rng.randint(5, 12)))
    b = rng.uniform(1.2, 1.6)
    samples = []
    for k in ks:
        wall = 1000.0 * k * b ** k * math.exp(rng.gauss(0.0, 0.1))
        samples.append(bench.ScalingSample(k, rng.randint(1, 100),
                                           (round(wall),), wall,
                                           rng.randint(10, 10 ** 6)))
    fit = bench.fit_scaling(samples)
    base, const, ys, residuals, corr = numpy_fit(samples)
    assert fit.growth_base == pytest.approx(base, rel=1e-12, abs=0)
    assert fit.constant_ns == pytest.approx(const, rel=1e-12, abs=0)
    assert fit.peak_node_correlation == pytest.approx(corr, rel=1e-12, abs=0)
    # A residual is a difference of log2 times, so it carries their
    # rounding: relative to those values, not to itself near zero.
    scale = 1e-12 * float(np.max(np.abs(ys)))
    assert fit.residuals == pytest.approx(residuals.tolist(), rel=0, abs=scale)


def test_scaling_fit_constant_peaks_have_no_correlation():
    samples = [bench.ScalingSample(k, 1, (1000 * k,),
                                   1000.0 * k * 1.4 ** k, 7)
               for k in range(4, 9)]
    fit = bench.fit_scaling(samples)
    assert math.isnan(fit.peak_node_correlation)
    assert fit.growth_base == pytest.approx(1.4, rel=1e-12)


def test_cli_scaling_without_marked_items_fails(capsys):
    rc, _, err = run_cli(capsys, ["scaling", "--k-min", "4", "--k-max", "8",
                                  "--m", "0"])
    assert rc == 1
    assert "bench: error:" in err and "iteration" in err


def test_scaling_iterations_column_is_floor_optimal(tmp_path):
    out = tmp_path / "s.csv"
    bench.run_scaling(ExperimentConfig(kind="scaling", k_min=10, k_max=14,
                                       repetitions=1, out=str(out)))
    for line in read_lines(out)[1:]:
        k, iters = map(int, line.split(",")[:2])
        assert iters == math.floor(math.pi / 4 * math.sqrt(2 ** k))


# ---------------------------------------------------------------------------
# oracle stats


def test_oracle_stats_single_marked_nodes_equal_k(tmp_path):
    out = tmp_path / "o.csv"
    rows = bench.run_oracle_stats(ExperimentConfig(
        kind="oracle_stats", k_min=4, k_max=24, marked_count=1, out=str(out)))
    lines = read_lines(out)
    assert lines[0] == bench.ORACLE_STATS_HEADER == \
        "k,M,internal_nodes,terminal_nodes,compile_ns"
    assert len(rows) == 21
    for k, m, internal, terminal, compile_ns in rows:
        assert m == 1
        assert internal == k
        assert terminal == 2
        assert compile_ns > 0


def test_oracle_stats_determinism_except_compile_time(tmp_path):
    cfg = dict(kind="oracle_stats", k_min=4, k_max=10, marked_count=3, seed=8)
    a = bench.run_oracle_stats(ExperimentConfig(**cfg))
    b = bench.run_oracle_stats(ExperimentConfig(**cfg))
    assert [r[:4] for r in a] == [r[:4] for r in b]


def test_oracle_stats_dense_random_sets_grow_superlinearly():
    # Half-full random marked sets: diagram size must outrun every line.
    sizes = []
    for k in range(8, 15):
        rows = bench.run_oracle_stats(ExperimentConfig(
            kind="oracle_stats", k_min=k, k_max=k,
            marked_count=1 << (k - 1), seed=1))
        sizes.append(rows[0][2])
    ks = np.arange(8, 15, dtype=float)
    slope, intercept = np.polyfit(ks[:4], np.array(sizes[:4], dtype=float), 1)
    assert sizes[-1] > slope * 14 + intercept
    diffs = np.diff(sizes)
    assert (np.diff(diffs) > 0).all()


def test_oracle_stats_tautology_cnf_compresses_to_constant(tmp_path):
    path = tmp_path / "taut.cnf"
    path.write_text("p cnf 4 0\n")
    rows = bench.run_oracle_stats(ExperimentConfig(
        kind="oracle_stats", cnf_path=str(path)))
    assert rows == [(4, 16, 0, 1, rows[0][4])]


def test_oracle_stats_marked_file_controls_the_set(tmp_path):
    path = tmp_path / "marked.txt"
    path.write_text("# three indices\n1\n2\n3\n")
    rows = bench.run_oracle_stats(ExperimentConfig(
        kind="oracle_stats", k_min=5, marked_path=str(path)))
    assert len(rows) == 1
    assert rows[0][0] == 5 and rows[0][1] == 3


# ---------------------------------------------------------------------------
# crossover


def test_crossover_rows_pin_known_values(tmp_path):
    out = tmp_path / "c.csv"
    rows = bench.run_crossover(ExperimentConfig(
        kind="crossover", k_min=10, k_max=20, out=str(out)))
    lines = read_lines(out)
    assert lines[0] == bench.CROSSOVER_HEADER
    last = rows[-1]
    assert last[0] == 20 and last[1] == 1 << 20
    assert last[3] == 804
    assert last[4] == 524288.5
    assert lines[-1].startswith("20,1048576,1,804,524288.5,524288.5,1048576,")


def test_crossover_is_fully_deterministic():
    cfg = dict(kind="crossover", k_min=8, k_max=12, marked_count=2)
    assert bench.run_crossover(ExperimentConfig(**cfg)) == \
        bench.run_crossover(ExperimentConfig(**cfg))


# ---------------------------------------------------------------------------
# trace


def test_trace_csv_has_one_row_per_step_plus_initial(tmp_path):
    out = tmp_path / "t.csv"
    record = bench.run_trace(ExperimentConfig(
        kind="trace", k_min=6, k_max=6, marked_count=1, out=str(out)))
    lines = read_lines(out)
    assert lines[0] == bench.TRACE_HEADER
    assert len(lines) == 1 + record.iterations + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == pytest.approx(1 / 64)
    for line in lines[1:]:
        assert float(line.split(",")[-1]) == pytest.approx(1.0, abs=1e-9)


def test_trace_iteration_multiplier_shows_rise_and_fall():
    record = bench.run_trace(ExperimentConfig(
        kind="trace", k_min=6, k_max=6, marked_count=1,
        iteration_multiplier=3.0))
    probs = [s.success_prob for s in record.trace]
    assert record.iterations == 18
    peak = max(range(len(probs)), key=probs.__getitem__)
    assert 0 < peak < len(probs) - 1
    assert probs[peak + 1] < probs[peak]


def test_trace_explicit_iterations_override():
    record = bench.run_trace(ExperimentConfig(
        kind="trace", k_min=4, k_max=4, marked_count=1, iterations=2))
    assert record.iterations == 2


# ---------------------------------------------------------------------------
# repeat until all found


def test_repeat_all_matches_coupon_collector_scale():
    res = bench.run_repeat_all(ExperimentConfig(
        kind="repeat_until_all_found", k_min=6, k_max=6, marked_count=4,
        repetitions=60, seed=2))
    assert res.coupon_collector_expectation == pytest.approx(25 / 3)
    assert len(res.repetition_counts) == 60
    assert all(c >= 4 for c in res.repetition_counts)
    assert 5 < res.mean_repetitions < 14


def test_repeat_all_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
    cfg = dict(kind="repeat_until_all_found", k_min=5, k_max=5,
               marked_count=3, repetitions=20, seed=7)
    a = bench.run_repeat_all(ExperimentConfig(out=str(out_a), **cfg))
    b = bench.run_repeat_all(ExperimentConfig(out=str(out_b), **cfg))
    assert a == b
    assert read_lines(out_a) == read_lines(out_b)
    assert read_lines(out_a)[0] == bench.REPEAT_ALL_HEADER


def reference_repeat_all_csv(seed, k, count, experiments):
    """One full Grover run per repetition, a fresh manager per experiment."""
    marked = bench._marked_for(seed, k, count)
    target = set(marked)
    lines = [bench.REPEAT_ALL_HEADER]
    for exp in range(experiments):
        m = QuiddManager()
        orc = compile_marked_set(m, k, marked)
        seen, reps = set(), 0
        while seen != target:
            rec = grover.run(m, orc, grover.GroverParams(
                k=k, seed=bench._derive(seed, exp, reps), shots=1))
            reps += 1
            if rec.measurements[0] in target:
                seen.add(rec.measurements[0])
        lines.append(f"{exp},{reps}")
    return lines


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_repeat_all_csv_equals_one_run_per_repetition(tmp_path, seed):
    out = tmp_path / "r.csv"
    bench.run_repeat_all(ExperimentConfig(
        kind="repeat_until_all_found", k_min=6, k_max=6, marked_count=4,
        repetitions=20, seed=seed, out=str(out)))
    assert read_lines(out) == reference_repeat_all_csv(seed, 6, 4, 20)


# ---------------------------------------------------------------------------
# CLI


def test_cli_help_for_every_subcommand(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    for sub in bench.EXPERIMENTS:
        assert cli.main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert ("--seed" in out) == (sub != "crossover")


# The flags each run_* function reads, and nothing else.
CLI_FLAGS = {
    "scaling": ["--k-min", "--k-max", "--m", "--reps", "--seed", "--out"],
    "oracle_stats": ["--k-min", "--k-max", "--m", "--marked", "--cnf",
                     "--seed", "--out"],
    "crossover": ["--k-min", "--k-max", "--m", "--out"],
    "trace": ["--k-min", "--m", "--marked", "--cnf", "--iterations",
              "--iter-mult", "--seed", "--out"],
    "repeat_until_all_found": ["--k-min", "--m", "--reps", "--seed", "--out"],
}


def test_cli_help_lists_exactly_the_flags_each_experiment_reads(capsys):
    assert sum(map(len, CLI_FLAGS.values())) == 30
    for sub, flags in CLI_FLAGS.items():
        assert cli.main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^  (--[\w-]+)", out, re.M) == flags


@pytest.fixture
def input_files(tmp_path):
    marked = tmp_path / "marked.txt"
    marked.write_text("1\n2\n")
    formula = tmp_path / "f.cnf"
    formula.write_text("p cnf 4 1\n1 -2 0\n")
    return {"MARKED": str(marked), "CNF": str(formula)}


@pytest.mark.parametrize("argv", [
    # flags the experiment does not read
    ["scaling", "--k-min", "4", "--k-max", "8", "--marked", "MARKED"],
    ["scaling", "--k-min", "4", "--k-max", "8", "--cnf", "CNF"],
    ["oracle_stats", "--reps", "2"],
    ["crossover", "--marked", "MARKED"],
    ["crossover", "--cnf", "CNF"],
    ["crossover", "--reps", "2"],
    ["crossover", "--seed", "1"],
    ["trace", "--k-max", "8"],
    ["trace", "--reps", "2"],
    ["repeat_until_all_found", "--k-max", "8"],
    ["repeat_until_all_found", "--marked", "MARKED"],
    ["repeat_until_all_found", "--cnf", "CNF"],
    # flags that exclude each other
    ["oracle_stats", "--m", "2", "--marked", "MARKED"],
    ["oracle_stats", "--m", "2", "--cnf", "CNF"],
    ["oracle_stats", "--marked", "MARKED", "--cnf", "CNF"],
    ["trace", "--m", "2", "--marked", "MARKED"],
    ["trace", "--m", "2", "--cnf", "CNF"],
    ["trace", "--marked", "MARKED", "--cnf", "CNF"],
    ["trace", "--iterations", "3", "--iter-mult", "2"],
    # size flags an input file leaves unread
    ["oracle_stats", "--k-min", "12", "--k-max", "14", "--cnf", "CNF"],
    ["oracle_stats", "--k-min", "4", "--cnf", "CNF"],
    ["oracle_stats", "--k-max", "14", "--cnf", "CNF"],
    ["oracle_stats", "--k-min", "4", "--k-max", "9", "--marked", "MARKED"],
    ["trace", "--k-min", "4", "--cnf", "CNF"],
])
def test_cli_rejects_unread_and_conflicting_flags(capsys, input_files, argv):
    rc, _, err = run_cli(capsys, [input_files.get(a, a) for a in argv])
    assert rc == 1
    # argparse's diagnostic, printed after a usage line, before any run
    assert err.startswith("usage: bench") and "error:" in err


@pytest.mark.parametrize("argv", [
    ["trace", "--k-min", "8"],
    ["repeat_until_all_found", "--k-min", "8", "--reps", "3"],
])
def test_cli_single_size_experiments_take_any_k_min(capsys, argv):
    rc, _, err = run_cli(capsys, argv)
    assert rc == 0, err


@pytest.mark.parametrize("argv", [
    ["oracle_stats", "--cnf", "CNF"],
    ["oracle_stats", "--k-min", "4", "--marked", "MARKED"],
])
def test_cli_oracle_stats_compiles_one_oracle_from_a_file(
        tmp_path, capsys, input_files, argv):
    out = tmp_path / "o.csv"
    rc, _, err = run_cli(capsys, [input_files.get(a, a) for a in argv]
                         + ["--out", str(out)])
    assert rc == 0, err
    rows = read_lines(out)[1:]
    assert len(rows) == 1 and rows[0].startswith("4,")


def test_cli_trace_takes_k_from_the_cnf_header(tmp_path, capsys, input_files):
    # The file has 4 variables; --k-min's default of 6 must not be used.
    out = tmp_path / "t.csv"
    rc, _, err = run_cli(capsys, ["trace", "--cnf", input_files["CNF"],
                                  "--out", str(out)])
    assert rc == 0, err
    assert "trace: k=4 M=12 " in err
    assert read_lines(out)[0] == bench.TRACE_HEADER


# A formula in the layout of SATLIB's uniform random 3-SAT files (uf20-91
# and the rest): comment header, clause lines with a leading blank, and a
# '%' line followed by a lone 0 at the end.
UF_LAYOUT = ("c This Formular is generated by mcnf\nc\nc    horn? no\n"
             "p cnf  5  3\n 1 -2 3 0\n-1 4 -5 0\n 2 -3 5 0\n%\n0\n\n")
PLAIN = "p cnf 5 3\n1 -2 3 0\n-1 4 -5 0\n2 -3 5 0\n"


@pytest.mark.parametrize("kind", ["trace", "oracle_stats"])
def test_cli_reads_a_cnf_file_in_the_satlib_layout(tmp_path, capsys, kind):
    outs = []
    for name, text in (("uf", UF_LAYOUT), ("plain", PLAIN)):
        path = tmp_path / f"{name}.cnf"
        path.write_text(text)
        outs.append(tmp_path / f"{name}.csv")
        rc, _, err = run_cli(capsys, [kind, "--cnf", str(path),
                                      "--out", str(outs[-1])])
        assert rc == 0, err
    assert _untimed_rows(outs[0]) == _untimed_rows(outs[1])
    assert len(read_lines(outs[0])) > 1


@pytest.mark.parametrize("fields", [
    dict(kind="scaling", k_min=10.5, k_max=11),
    dict(kind="scaling", k_min=10, k_max=10.0),
    dict(kind="scaling", marked_count=True),
    dict(kind="scaling", repetitions="3"),
    dict(kind="oracle_stats", seed=1.0),
    dict(kind="trace", seed="x"),
    dict(kind="trace", iterations=2.0),
    dict(kind="repeat_until_all_found", k_min=False),
])
def test_config_rejects_a_non_int_count(fields):
    # As GroverParams does: when the config is made, not in the runner.
    with pytest.raises(TypeError, match="must be an int"):
        ExperimentConfig(**fields)


@pytest.mark.parametrize("fields", [
    dict(marked_path="m.txt", cnf_path="f.cnf"),
    dict(marked_count=2, marked_path="m.txt"),
    dict(marked_count=2, cnf_path="f.cnf"),
    dict(iterations=3, iteration_multiplier=2.0),
])
def test_config_rejects_contradictory_inputs(fields):
    with pytest.raises(ValueError, match="not both|conflicts"):
        ExperimentConfig(kind="trace", k_min=4, k_max=4, **fields)


@pytest.mark.parametrize("fields", [
    dict(iterations=-3),
    dict(iterations=-1),
    dict(iteration_multiplier=-0.5),
    dict(iteration_multiplier=math.nan),
    dict(iteration_multiplier=math.inf),
    dict(iteration_multiplier=-math.inf),
])
def test_config_rejects_a_negative_or_non_finite_iteration_setting(fields):
    # Checked before any oracle is compiled: a NaN multiplier used to fail
    # only when rounded, and a negative count was accepted.
    with pytest.raises(ValueError, match="iteration"):
        ExperimentConfig(kind="trace", k_min=4, k_max=4, **fields)


def test_config_takes_zero_iterations_and_a_zero_multiplier():
    for fields in (dict(iterations=0), dict(iteration_multiplier=0.0)):
        record = bench.run_trace(ExperimentConfig(kind="trace", k_min=4,
                                                  **fields))
        assert record.iterations == 0 and len(record.trace) == 1


# One value per settable field; each is valid beside every default.
SAMPLE_FIELDS = dict(k_min=5, k_max=30, marked_count=2,
                     marked_path="m.txt", cnf_path="f.cnf", repetitions=2,
                     seed=1, out="o.csv", iterations=3,
                     iteration_multiplier=2.0)

# The shapes perfbench/workloads.py and the tests above build.
BUILT_SHAPES = {
    "scaling": dict(k_min=20, k_max=24, marked_count=1, repetitions=1,
                    seed=7),
    "oracle_stats": dict(k_min=4, k_max=10, marked_count=3, seed=8),
    "crossover": dict(k_min=8, k_max=12, marked_count=2),
    "trace": dict(k_min=6, k_max=6, marked_count=1, iteration_multiplier=3.0),
    "repeat_until_all_found": dict(k_min=6, k_max=6, marked_count=4,
                                   repetitions=50, seed=7),
}


@pytest.mark.parametrize("kind", bench.EXPERIMENTS)
def test_config_takes_only_the_fields_its_kind_reads(kind):
    reads = bench.EXPERIMENTS[kind].reads
    with pytest.raises(ValueError, match="does not read"):
        ExperimentConfig(kind="crossover", seed=3, repetitions=9,
                         cnf_path="/nonexistent")
    for name, value in SAMPLE_FIELDS.items():
        if name in reads:
            assert getattr(ExperimentConfig(kind, **{name: value}),
                           name) == value
        else:
            with pytest.raises(ValueError, match=f"{kind} does not read"):
                ExperimentConfig(kind, **{name: value})
    files = [f for f in ("marked_path", "cnf_path") if f in reads]
    for f in files:
        with pytest.raises(ValueError, match="k_max conflicts"):
            ExperimentConfig(kind, k_max=6, **{f: "x"})
    if "cnf_path" in reads:
        for sizes in (dict(k_min=5), dict(k_min=5, k_max=5)):
            with pytest.raises(ValueError, match="k_min conflicts"):
                ExperimentConfig(kind, cnf_path="f.cnf", **sizes)
        cfg = ExperimentConfig(kind, cnf_path="f.cnf")
        assert (cfg.k_min, cfg.k_max, cfg.marked_count) == (None, None, None)
    if "marked_path" in reads:
        with pytest.raises(ValueError, match="k_max conflicts"):
            ExperimentConfig(kind, k_min=5, k_max=6, marked_path="m.txt")
        cfg = ExperimentConfig(kind, k_min=5, k_max=5, marked_path="m.txt")
        assert (cfg.k_min, cfg.k_max, cfg.marked_count) == (5, 5, None)
    configs = [ExperimentConfig(kind),
               ExperimentConfig(kind, **BUILT_SHAPES[kind])]
    configs += [ExperimentConfig(kind, **{f: "x"}) for f in files]
    for cfg in configs:
        rebuilt = dataclasses.replace(cfg, out="x.csv")
        assert vars(rebuilt) == {**vars(cfg), "out": "x.csv"}


@pytest.mark.parametrize("kind, run", [
    ("oracle_stats", bench.run_oracle_stats),
    ("crossover", bench.run_crossover),
    ("trace", bench.run_trace),
    ("repeat_until_all_found", bench.run_repeat_all),
])
def test_library_and_cli_share_defaults(tmp_path, capsys, kind, run):
    lib, cli_out = tmp_path / "lib.csv", tmp_path / "cli.csv"
    run(ExperimentConfig(kind=kind, out=str(lib)))
    rc, _, err = run_cli(capsys, [kind, "--out", str(cli_out)])
    assert rc == 0, err
    assert _untimed_rows(lib) == _untimed_rows(cli_out)


def test_cli_rejects_unknown_flags(capsys):
    rc, _, err = run_cli(capsys, ["crossover", "--sideways"])
    assert rc == 1
    assert "error:" in err


def test_cli_reports_missing_input_file(capsys):
    rc, _, err = run_cli(capsys, ["oracle_stats", "--cnf", "/nonexistent.cnf"])
    assert rc == 1
    assert "bench: error:" in err


def test_cli_reports_bad_k_range(capsys):
    rc, _, err = run_cli(capsys, ["crossover", "--k-min", "9", "--k-max", "4"])
    assert rc == 1
    assert "bench: error:" in err


def test_cli_crossover_writes_file_and_summarizes(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc, _, err = run_cli(capsys, ["crossover", "--k-min", "4", "--k-max", "6",
                                  "--out", str(out)])
    assert rc == 0
    assert "crossover: 3 rows" in err
    assert read_lines(out)[0] == bench.CROSSOVER_HEADER


def test_cli_trace_with_multiplier(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc, _, err = run_cli(capsys, ["trace", "--k-min", "6", "--iter-mult", "3",
                                  "--out", str(out)])
    assert rc == 0
    assert "iterations=18" in err
    assert len(read_lines(out)) == 20


def test_cli_repeat_until_all_found_summary(capsys):
    rc, _, err = run_cli(capsys, ["repeat_until_all_found", "--reps", "30",
                                  "--seed", "2"])
    assert rc == 0
    assert "mean repetitions" in err
    assert "8.3333" in err


def test_cli_oracle_stats_roundtrip(tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc, _, err = run_cli(capsys, ["oracle_stats", "--k-min", "4", "--k-max",
                                  "8", "--out", str(out)])
    assert rc == 0
    assert "5 oracles" in err
    ks = [int(line.split(",")[0]) for line in read_lines(out)[1:]]
    assert ks == [4, 5, 6, 7, 8]


# ---------------------------------------------------------------------------
# scripts/run_all.py


RUN_ALL = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"
# The header of each experiment's CSV, for the experiments whose schema
# is pinned; run_all.py writes one CSV per row of bench.EXPERIMENTS.
RUN_ALL_HEADERS = {
    "scaling": bench.SCALING_HEADER,
    "oracle_stats": bench.ORACLE_STATS_HEADER,
    "crossover": bench.CROSSOVER_HEADER,
    "trace": bench.TRACE_HEADER,
    "repeat_until_all_found": bench.REPEAT_ALL_HEADER,
}


def _untimed_rows(path):
    """CSV lines with the wall-clock columns (wall_ns, compile_ns) dropped."""
    lines = read_lines(path)
    header = lines[0].split(",")
    keep = [i for i, col in enumerate(header)
            if col not in ("wall_ns", "compile_ns")]
    return [[line.split(",")[i] for i in keep] for line in lines]


def test_run_all_quick_writes_every_csv_deterministically(tmp_path):
    src = str(Path(quiddsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, str(RUN_ALL), "--quick", "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(out)
    assert sorted(p.stem for p in runs[0].glob("*.csv")) == \
        sorted(bench.EXPERIMENTS)
    for kind in bench.EXPERIMENTS:
        fname = f"{kind}.csv"
        assert _untimed_rows(runs[0] / fname) == _untimed_rows(runs[1] / fname)
    for kind, header in RUN_ALL_HEADERS.items():
        assert read_lines(runs[0] / f"{kind}.csv")[0] == header


def test_a_new_table_row_is_an_experiment_of_the_cli_and_run_all(
        tmp_path, capsys, monkeypatch):
    # One row and its runner, and nothing else: the CLI builds the
    # subcommand from the row's fields, runs it and prints its summary,
    # and run_all.py writes its CSV (passing no --seed, which it does
    # not read).
    def run_probe(cfg):
        bench._write_csv(cfg.out, "k", [(cfg.k_min,)])
        return cfg.k_min

    monkeypatch.setitem(bench.EXPERIMENTS, "probe", bench.Experiment(
        {"k_min": 3, "out": None}, run_probe, "write the register size",
        lambda k: f"probe: k={k}"))
    rc, out, _ = run_cli(capsys, ["probe", "--help"])
    assert rc == 0
    assert re.findall(r"^  (--[\w-]+)", out, re.M) == ["--k-min", "--out"]
    assert "(default 3)" in out
    rc, _, err = run_cli(capsys, ["probe", "--k-min", "5",
                                  "--out", str(tmp_path / "p.csv")])
    assert (rc, err) == (0, "probe: k=5\n")
    assert read_lines(tmp_path / "p.csv") == ["k", "5"]
    assert run_cli(capsys, ["--help"])[1].count("write the register size") == 1
    run_all = runpy.run_path(str(RUN_ALL))
    assert run_all["main"](["--quick", "--seed", "4",
                            "--out-dir", str(tmp_path / "all")]) == 0
    stdout = capsys.readouterr().out
    assert f"== bench probe --out {tmp_path / 'all' / 'probe.csv'}\n" in stdout
    assert read_lines(tmp_path / "all" / "probe.csv") == ["k", "3"]
    assert sorted(p.stem for p in (tmp_path / "all").glob("*.csv")) == \
        sorted(bench.EXPERIMENTS)
