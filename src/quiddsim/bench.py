"""Experiment drivers emitting deterministic CSV tables.

Five experiments: ``scaling`` (wall time of the Grover loop against k),
``oracle_stats`` (diagram sizes of compiled oracles), ``crossover``
(analytic query counts per strategy), ``trace`` (per-iteration profile
of one run) and ``repeat_until_all_found`` (repetitions until every marked item has
been observed; one simulation per call, whose final state every
repetition samples with its own seed).  All CSV content is reproducible
from the seed except the wall-clock columns (``wall_ns``,
``compile_ns``).  Floats are serialized with 12 significant digits.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import astuple, dataclass

from . import grover
from .baselines import coupon_collector_mean, crossover_table
from .cnf import parse_dimacs, parse_marked_file
from .oracle import Oracle, compile_cnf, compile_marked_set
from .quidd import QuiddManager

# The ExperimentConfig fields each experiment reads, in the order of
# its command-line flags, with their defaults.
READS = {
    "scaling": {"k_min": 10, "k_max": 20, "marked_count": 1,
                "repetitions": 3, "seed": 0, "out": None},
    "oracle_stats": {"k_min": 4, "k_max": 24, "marked_count": 1,
                     "marked_path": None, "cnf_path": None, "seed": 0,
                     "out": None},
    "crossover": {"k_min": 10, "k_max": 20, "marked_count": 1, "out": None},
    "trace": {"k_min": 6, "marked_count": 1, "marked_path": None,
              "cnf_path": None, "iterations": None,
              "iteration_multiplier": None, "seed": 0, "out": None},
    "repeat_until_all_found": {"k_min": 6, "marked_count": 4,
                               "repetitions": 1000, "seed": 0, "out": None},
}

SCALING_HEADER = "k,iterations,wall_ns,peak_internal_nodes,seed"
ORACLE_STATS_HEADER = "k,M,internal_nodes,terminal_nodes,compile_ns"
CROSSOVER_HEADER = ("k,n,m,grover_queries,deterministic_mean_queries,"
                    "randomized_without_replacement_mean,"
                    "randomized_with_replacement_mean,schoening_flips_estimate")
TRACE_HEADER = ("t,success_prob,marked_amp_re,marked_amp_im,"
                "unmarked_amp_re,unmarked_amp_im,live_internal_nodes,norm_sq")
REPEAT_ALL_HEADER = "experiment,repetitions"


@dataclass
class ExperimentConfig:
    """Settings of one experiment; each kind reads only some of them.

    A field the kind does not read is an error, except a ``k_max`` equal
    to ``k_min``.  A field it reads that is left unset takes its default
    from ``READS``, and a kind without ``k_max`` runs at the one size
    ``k_min``.  A marked-set file (``marked_path``) and a CNF file
    (``cnf_path``) each give one oracle and its marked set, so at most
    one of them may be given; beside either, ``marked_count`` stays
    unset and ``k_max`` equals ``k_min``.  A CNF header gives k, so
    beside a CNF file ``k_min`` and ``k_max`` stay unset.
    ``iterations`` and ``iteration_multiplier`` exclude each other;
    neither may be negative, and the multiplier must be finite.
    """

    kind: str
    k_min: int | None = None
    k_max: int | None = None
    marked_count: int | None = None
    marked_path: str | None = None
    cnf_path: str | None = None
    repetitions: int | None = None
    seed: int | None = None
    out: str | None = None
    iterations: int | None = None
    iteration_multiplier: float | None = None

    def __post_init__(self):
        if self.kind not in READS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        if self.marked_path is not None and self.cnf_path is not None:
            raise ValueError("give a marked-set file or a CNF file, not both")
        if self.iterations is not None and self.iteration_multiplier is not None:
            raise ValueError("give an iteration count or a multiplier, "
                             "not both")
        reads = READS[self.kind]
        fixed = {}      # field an input file sets -> why it may not be given
        if "cnf_path" in reads and (self.marked_path is not None
                                    or self.cnf_path is not None):
            fixed = {"marked_count": "a marked count conflicts with an input "
                                     "file, which fixes the marked set",
                     "k_max": "k_max conflicts with an input file, which "
                              "gives one oracle"}
            if self.cnf_path is not None:
                fixed["k_min"] = ("k_min conflicts with a CNF file, whose "
                                  "header gives k")
        for name, value in vars(self).items():
            if value is None or name == "kind" or (name == "k_max"
                                                   and value == self.k_min):
                continue
            if name in fixed or name not in reads:
                raise ValueError(fixed.get(name, f"{self.kind} does not read "
                                                 f"{name}"))
        for name, default in reads.items():
            if getattr(self, name) is None and name not in fixed:
                setattr(self, name, default)
        if self.k_max is None:
            self.k_max = self.k_min
        if self.k_min is not None and (self.k_min < 1
                                       or self.k_max < self.k_min):
            raise ValueError(f"bad k range {self.k_min}..{self.k_max}")
        if self.repetitions is not None and self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.marked_count is not None and self.marked_count < 0:
            raise ValueError("marked count must be >= 0")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.iteration_multiplier is not None and not (
                0 <= self.iteration_multiplier < math.inf):
            raise ValueError("iteration multiplier must be finite and >= 0, "
                             f"got {self.iteration_multiplier!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(path: str | None, header: str, rows) -> list[str]:
    lines = [header] + [",".join(_fmt(x) for x in row) for row in rows]
    if path is not None:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return lines


def _derive(*parts: int) -> int:
    # Order-sensitive integer mix; stable across processes, unlike hash().
    h = 0x243F6A88
    for p in parts:
        h = (h * 0x100000001B3 + p) % (1 << 61)
    return h


def _marked_for(seed: int, k: int, count: int) -> list[int]:
    rng = random.Random(_derive(seed, k, count))
    n = 1 << k
    if count > n:
        raise ValueError(f"marked count {count} exceeds N=2^{k}")
    if count > n // 2:
        return sorted(rng.sample(range(n), count))
    out: set[int] = set()
    while len(out) < count:
        out.add(rng.randrange(n))
    return sorted(out)


def _oracle_from_config(m: QuiddManager, cfg: ExperimentConfig, k: int) -> Oracle:
    if cfg.cnf_path is not None:
        with open(cfg.cnf_path) as fh:
            formula = parse_dimacs(fh.read())
        return compile_cnf(m, formula)
    if cfg.marked_path is not None:
        with open(cfg.marked_path) as fh:
            indices = parse_marked_file(fh.read())
        return compile_marked_set(m, k, indices)
    return compile_marked_set(m, k, _marked_for(cfg.seed, k, cfg.marked_count))


# ----------------------------------------------------------------------
# scaling

@dataclass(frozen=True)
class ScalingSample:
    k: int
    iterations: int
    wall_ns: tuple[int, ...]
    median_wall_ns: float
    peak_internal_nodes: int


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log2(median loop time / k) against k.

    ``growth_base`` is the per-qubit multiplier (2**slope) and
    ``constant_ns`` the prefactor, so time ~= constant_ns * k *
    growth_base**k.  Requires at least 5 distinct k, and every sample
    must have run an iteration (a run with none times only the timer).
    """

    samples: tuple[ScalingSample, ...]
    growth_base: float
    constant_ns: float
    residuals: tuple[float, ...]
    peak_node_correlation: float


def fit_scaling(samples) -> ScalingFit:
    samples = tuple(samples)
    if len(set(s.k for s in samples)) < 5:
        raise ValueError("scaling fit needs at least 5 distinct k")
    idle = [s.k for s in samples if s.iterations == 0]
    if idle:
        raise ValueError("scaling fit needs runs with at least one "
                         "iteration; zero iterations at k="
                         + ", ".join(map(str, idle)))
    ks = [float(s.k) for s in samples]
    ys = [math.log2(s.median_wall_ns / k) for s, k in zip(samples, ks)]
    slope, intercept = statistics.linear_regression(ks, ys)
    residuals = tuple(y - (slope * k + intercept) for k, y in zip(ks, ys))
    peaks = [float(s.peak_internal_nodes) for s in samples]
    # Constant peaks have no correlation (nan); statistics would raise.
    corr = (statistics.correlation(ks, peaks) if len(set(peaks)) > 1
            else math.nan)
    return ScalingFit(samples, 2.0 ** slope, 2.0 ** intercept, residuals,
                      corr)


def run_scaling(cfg: ExperimentConfig) -> ScalingFit:
    """Time the Grover loop for one single-marked oracle per k.

    ``wall_ns`` is the iteration loop only; oracle compilation and gate
    construction are excluded.  The median over repetitions feeds the
    fit.  The runs keep no per-iteration trace, which nothing here
    reads, so the loop time is the simulation's and the final state's
    statistics.
    """
    rows = []
    samples = []
    for k in range(cfg.k_min, cfg.k_max + 1):
        walls = []
        peak = 0
        iterations = 0
        for rep in range(cfg.repetitions):
            rep_seed = _derive(cfg.seed, k, rep)
            m = QuiddManager()
            marked = _marked_for(rep_seed, k, cfg.marked_count)
            oracle = compile_marked_set(m, k, marked)
            record = grover.run(m, oracle,
                                grover.GroverParams(k=k, seed=rep_seed),
                                trace=False)
            walls.append(record.loop_ns)
            peak = max(peak, record.peak_live_internal_nodes)
            iterations = record.iterations
            rows.append((k, record.iterations, record.loop_ns,
                         record.peak_live_internal_nodes, rep_seed))
        samples.append(ScalingSample(k, iterations, tuple(walls),
                                     float(statistics.median(walls)), peak))
    _write_csv(cfg.out, SCALING_HEADER, rows)
    return fit_scaling(samples)


# ----------------------------------------------------------------------
# oracle stats

def run_oracle_stats(cfg: ExperimentConfig) -> list[tuple]:
    """Compile oracles across the k range and report diagram sizes; an
    input file gives one oracle, at k_min for a marked-set file and at
    the header's variable count for a CNF file."""
    rows = []
    ks = ([cfg.k_min] if cfg.cnf_path is not None
          else range(cfg.k_min, cfg.k_max + 1))
    for k in ks:
        m = QuiddManager()
        t0 = time.perf_counter_ns()
        oracle = _oracle_from_config(m, cfg, k)
        compile_ns = time.perf_counter_ns() - t0
        rows.append((oracle.k, oracle.marked_count,
                     *m.count_nodes(oracle.phase_vector), compile_ns))
    _write_csv(cfg.out, ORACLE_STATS_HEADER, rows)
    return rows


# ----------------------------------------------------------------------
# crossover

def run_crossover(cfg: ExperimentConfig) -> list[tuple]:
    ks = range(cfg.k_min, cfg.k_max + 1)
    rows = [astuple(r) for r in crossover_table(ks, cfg.marked_count)]
    _write_csv(cfg.out, CROSSOVER_HEADER, rows)
    return rows


# ----------------------------------------------------------------------
# trace

def run_trace(cfg: ExperimentConfig) -> grover.GroverRun:
    """One fully traced run at k = k_min, or at the variable count of a
    CNF file; iteration count may be forced or scaled (e.g. 3x the
    ideal) to expose the periodic success curve."""
    m = QuiddManager()
    oracle = _oracle_from_config(m, cfg, cfg.k_min)
    k = oracle.k
    iterations = cfg.iterations
    if cfg.iteration_multiplier is not None:
        if oracle.marked_count == 0:
            raise ValueError("iteration multiplier needs a solvable oracle")
        base = grover.optimal_iterations(1 << k, oracle.marked_count)
        iterations = round(base * cfg.iteration_multiplier)
    record = grover.run(m, oracle, grover.GroverParams(
        k=k, iterations=iterations, seed=cfg.seed))
    rows = []
    for s in record.trace:
        ma = s.marked_amp if s.marked_amp is not None else complex("nan")
        ua = s.unmarked_amp if s.unmarked_amp is not None else complex("nan")
        rows.append((s.t, s.success_prob, ma.real, ma.imag, ua.real, ua.imag,
                     s.live_internal_nodes, s.norm_sq))
    _write_csv(cfg.out, TRACE_HEADER, rows)
    return record


# ----------------------------------------------------------------------
# repeat until all marked items found

@dataclass(frozen=True)
class RepeatAllResult:
    repetition_counts: tuple[int, ...]
    mean_repetitions: float
    coupon_collector_expectation: float


_REPEAT_CAP = 100_000


def run_repeat_all(cfg: ExperimentConfig) -> RepeatAllResult:
    """Repeat Grover runs, measuring once per run, until every marked
    item has been observed; ``repetitions`` is the experiment count.
    Valid as a coupon-collector probe because a run at the ideal
    iteration count succeeds with probability near one and the final
    state weights all marked items equally.

    One simulation feeds every repetition.  The final state is a pure
    function of the oracle, and a fresh manager per experiment would
    rebuild the same diagram bit for bit, so only the measurement
    differs between repetitions: repetition ``reps`` of experiment
    ``exp`` draws once from the shared sampler with
    ``random.Random(_derive(seed, exp, reps))``, exactly the draw a full
    run seeded that way would make.  The simulation keeps no
    per-iteration trace, since only its final state is read."""
    k, count = cfg.k_min, cfg.marked_count
    if count < 1:
        raise ValueError("repeat_until_all_found needs at least one marked item")
    marked = _marked_for(cfg.seed, k, count)
    target = set(marked)
    m = QuiddManager()
    oracle = compile_marked_set(m, k, marked)
    record = grover.run(m, oracle, grover.GroverParams(k=k, shots=0),
                        trace=False)
    draw = grover.sampler(m, record.final_state, k)
    rows = []
    counts = []
    for exp in range(cfg.repetitions):
        seen: set[int] = set()
        reps = 0
        while seen != target and reps < _REPEAT_CAP:
            outcome = draw(random.Random(_derive(cfg.seed, exp, reps)))
            reps += 1
            if outcome in target:
                seen.add(outcome)
        counts.append(reps)
        rows.append((exp, reps))
    _write_csv(cfg.out, REPEAT_ALL_HEADER, rows)
    return RepeatAllResult(tuple(counts),
                           sum(counts) / len(counts),
                           coupon_collector_mean(count))
