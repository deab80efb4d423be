"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Every workload drives quiddsim through its public API and checks what
comes back.  Checks are counted, never raised, so a wrong result shows
as a failed check in the run's totals instead of ending the run.

* ``grover_deep``: ``bench.run_scaling`` over single-marked search at
  k = 20..24, one repetition per k.  Kernel-bound: the diffusion
  ``matvec``, the oracle ``apply`` and the per-iteration trace
  statistics, with node allocation in the hundreds of thousands.
* ``repeat_all``: ``bench.run_repeat_all`` at k = 6, M = 4, 1000
  experiments in all, as ``scripts/run_all.py`` runs it, but spread over
  twenty marked sets of 50 experiments each.  Thousands of short runs,
  so per-run set-up (diffusion, initial state, indicator vector,
  measurement) dominates and the deep kernel is bypassed.
* ``sat_search``: the same 3-SAT formulas given to Grover search on the
  compiled CNF oracle and to the Schoening walk.  The only workload that
  exercises ``cnf`` and ``baselines``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import statistics
import time
import weakref
from pathlib import Path

from tracer import OWN, patched

from quiddsim import baselines, bench, cnf, gates, grover, oracle
from quiddsim.quidd import QuiddManager

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_repeat_all.json"

# run_repeat_all at scripts/run_all.py's k, M and 1000 experiments, over
# several marked sets: run_repeat_all keeps one marked set, drawn from its
# seed, for all its experiments, and the diagrams (peak live nodes 39 to
# 66 per run over the 64 seeds below) and so the time of a pass follow
# that set.  Twenty sets per pass keep that from swinging pass time from
# one benchmark seed to the next.
REPEAT_K, REPEAT_M = 6, 4
REPEAT_SETS, REPEAT_EXPERIMENTS = 20, 50
# Each CSV is checked byte for byte against the SHA-256 goldens that
# record_golden.py wrote; they exist for this many run_repeat_all seeds,
# and the benchmark seed picks REPEAT_SETS of them.
REPEAT_GOLDEN_SEEDS = 64

DEEP_K = (20, 24)

PARITY_N = range(16, 21)
PLANTED_N = range(16, 19)
PLANTED_RATIO = 4.2
SAT_SHOTS = 32
# Walks run round-robin over the formulas until this many flips are
# spent.  A fixed flip total keeps the walking time of a pass (about a
# second) the same from seed to seed, although the flips a single walk
# needs are geometrically distributed.
WALK_FLIPS = 150_000
WALK_MAX_RESTARTS = 10 ** 6

# The host-speed reference: dict inserts per sample (about 10 ms), the
# least time between samples within a pass, and the sample time of the
# host that the *_ref_s metrics are rescaled to.
REFERENCE_ITEMS = 25_000
REFERENCE_EVERY_NS = 200_000_000
REFERENCE_HOST_NS = 10_000_000

# Kept before any wrapper is installed, so counters can size diagrams
# without opening a span.
_count_nodes = QuiddManager.count_nodes


def derive(seed: int, *labels) -> int:
    """A 63-bit stream seed for (seed, labels); streams with different
    labels are independent of each other."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Checks:
    """Counts output checks; keeps the first few failures for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def reference_ns() -> int:
    """Nanoseconds the host takes for a fixed pure-Python job.

    The job (inserting tuples into a dict) is the benchmark's own code,
    so no change to quiddsim moves it; only the host's speed does.
    """
    table = {}
    t0 = time.perf_counter_ns()
    for i in range(REFERENCE_ITEMS):
        table[(i * 7919) % 100_003, i & 7] = (i, float(i))
    return time.perf_counter_ns() - t0


class PassClock:
    """Times a pass, leaving out what ``untimed`` covers.

    With ``sample`` set it also times :func:`reference_ns` at the start
    and at checkpoints spaced at least :data:`REFERENCE_EVERY_NS` apart,
    leaving those out too, so the pass and the reference see the same
    spells of a shared host running fast or slow.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.references: list[int] = []
        self.untimed_ns = 0
        if sample:
            self._reference()
        self._start = time.perf_counter_ns()

    def _reference(self) -> None:
        self.references.append(reference_ns())
        self._last = time.perf_counter_ns()

    def untimed(self, fn) -> None:
        t0 = time.perf_counter_ns()
        fn()
        self.untimed_ns += time.perf_counter_ns() - t0

    def checkpoint(self) -> None:
        if (self.sample and time.perf_counter_ns() - self._last
                >= REFERENCE_EVERY_NS):
            self.untimed(self._reference)

    def elapsed_ns(self) -> int:
        return time.perf_counter_ns() - self._start - self.untimed_ns


class RunSink:
    """Sees every ``GroverRun`` of a pass: checks it, sums its loop time,
    lets the clock sample the host and, when ``digest`` is given, folds
    its comparable fields in."""

    def __init__(self, checks: Checks, clock: PassClock, digest=None):
        self.checks = checks
        self.clock = clock
        self.digest = digest
        self.loop_ns = 0

    def observe(self, rec: grover.GroverRun) -> None:
        self.loop_ns += rec.loop_ns
        self.clock.checkpoint()
        if self.digest is not None:
            self.digest.update(repr(rec.comparable()).encode())
        c = self.checks
        n_items = 1 << rec.k
        tag = f"k={rec.k} M={rec.marked_count} seed={rec.params.seed}"
        if rec.no_solution:
            c.check(False, f"{tag}: oracle marks nothing")
            return
        want = grover.optimal_iterations(n_items, rec.marked_count)
        c.check(rec.queries == rec.iterations == want,
                f"{tag}: queries {rec.queries}, iterations {rec.iterations},"
                f" optimal {want}")
        final = rec.trace[-1]
        ideal = grover.ideal_success_probability(rec.iterations, n_items,
                                                 rec.marked_count)
        c.check(abs(final.success_prob - ideal) <= 1e-9,
                f"{tag}: success {final.success_prob!r} vs ideal {ideal!r}")
        c.check(abs(final.norm_sq - 1.0) <= 1e-9,
                f"{tag}: norm_sq {final.norm_sq!r}")


@dataclasses.dataclass
class Pass:
    """What one pass measured.  ``reference_ns`` is the median of the
    pass's :func:`reference_ns` samples, 0 when it took none."""

    wall_ns: int = 0
    loop_ns: int = 0
    reference_ns: float = 0
    walk_ns: int = 0
    walk_flips: int = 0

    def at_reference_speed(self, ns: int) -> float:
        """``ns`` of this pass rescaled to a host on which
        :func:`reference_ns` takes :data:`REFERENCE_HOST_NS`."""
        return ns * REFERENCE_HOST_NS / self.reference_ns


def _csv_without_wall(path: Path) -> bytes:
    """CSV bytes without the wall-clock column, the only one that varies."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    wall = rows[0].index("wall_ns")
    return "\n".join(",".join(r[:wall] + r[wall + 1:]) for r in rows).encode()


# ----------------------------------------------------------------------
# grover_deep

def deep_config(seed: int) -> bench.ExperimentConfig:
    return bench.ExperimentConfig(kind="scaling", k_min=DEEP_K[0],
                                  k_max=DEEP_K[1], marked_count=1,
                                  repetitions=1, seed=derive(seed, "deep"))


def deep_pass(cfg, checks: Checks, out_dir: Path, digest) -> None:
    out = out_dir / "scaling.csv"
    cfg = dataclasses.replace(cfg, out=str(out))
    bench.run_scaling(cfg)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    ks = list(range(cfg.k_min, cfg.k_max + 1))
    checks.check([int(r[0]) for r in rows] == ks, f"scaling rows {rows!r}")
    checks.check([int(r[1]) for r in rows]
                 == [grover.optimal_iterations(1 << k, 1) for k in ks],
                 "scaling CSV iteration column")
    if digest is not None:
        digest.update(_csv_without_wall(out))


# ----------------------------------------------------------------------
# repeat_all

def repeat_config(golden_seed: int) -> bench.ExperimentConfig:
    return bench.ExperimentConfig(kind="repeat_until_all_found",
                                  k_min=REPEAT_K, k_max=REPEAT_K,
                                  marked_count=REPEAT_M,
                                  repetitions=REPEAT_EXPERIMENTS,
                                  seed=golden_seed)


def repeat_configs(seed: int) -> list[bench.ExperimentConfig]:
    """REPEAT_SETS distinct run_repeat_all seeds, drawn from ``seed``."""
    picks = random.Random(derive(seed, "repeat")).sample(
        range(REPEAT_GOLDEN_SEEDS), REPEAT_SETS)
    return [repeat_config(s) for s in picks]


def load_goldens() -> list[str]:
    data = json.loads(GOLDEN_PATH.read_text())
    return data["csv_sha256"]


def repeat_pass(configs, checks: Checks, out_dir: Path, digest,
                goldens) -> None:
    out = out_dir / "repeat.csv"
    for cfg in configs:
        cfg = dataclasses.replace(cfg, out=str(out))
        res = bench.run_repeat_all(cfg)
        data = out.read_bytes()
        checks.check(hashlib.sha256(data).hexdigest() == goldens[cfg.seed],
                     f"repeat_all CSV for seed {cfg.seed} differs from the"
                     " recorded golden")
        checks.check(len(res.repetition_counts) == cfg.repetitions
                     and min(res.repetition_counts) >= REPEAT_M,
                     "repeat_all repetition counts")
        if digest is not None:
            digest.update(data)


# ----------------------------------------------------------------------
# sat_search

def sat_inputs(seed: int) -> list[dict]:
    """Parity 3-CNF (one model) and planted 3-CNF (ratio 4.2) as DIMACS."""
    out = []
    for kind, sizes in (("parity", PARITY_N), ("planted", PLANTED_N)):
        for n in sizes:
            s = derive(seed, kind, n)
            inst = (cnf.parity_3cnf(n, seed=s) if kind == "parity"
                    else cnf.planted_3cnf(n, ratio=PLANTED_RATIO, seed=s))
            out.append({"kind": kind, "n": n,
                        "dimacs": cnf.to_dimacs(inst.formula),
                        "hidden": inst.hidden_index,
                        "shots_seed": derive(seed, "shots", kind, n)})
    return out


def walk_seed(seed: int, walk: int) -> int:
    # Its own stream: seeding the walk like the generator would start it
    # on the planted model.
    return derive(seed, "walk", walk)


def sat_pass(inputs: dict, checks: Checks, result: Pass, clock: PassClock,
             digest) -> None:
    formulas = []
    for inst in inputs["instances"]:
        # Each formula is its own search problem, as one CLI run per file
        # would be: free the last formula's diagrams, which reference
        # cycles keep alive, before building the next.  Not timed.
        clock.untimed(gc.collect)
        n = inst["n"]
        tag = f"{inst['kind']} n={n}"
        formula = cnf.parse_dimacs(inst["dimacs"])
        checks.check(formula.num_vars == n
                     and cnf.evaluate_index(formula, inst["hidden"]),
                     f"{tag}: parsed formula misses its hidden model")
        m = QuiddManager()
        orc = oracle.compile_cnf(m, formula)
        if inst["kind"] == "parity":
            checks.check(orc.marked_count == 1,
                         f"{tag}: {orc.marked_count} models, expected 1")
        grover.run(m, orc, grover.GroverParams(k=n, seed=inst["shots_seed"],
                                               shots=SAT_SHOTS))
        formulas.append((tag, formula))
        if digest is not None:
            digest.update(f"{tag} M={orc.marked_count}".encode())
    walk = 0
    while result.walk_flips < WALK_FLIPS:
        tag, formula = formulas[walk % len(formulas)]
        cfg = baselines.WalkConfig(formula, max_restarts=WALK_MAX_RESTARTS,
                                   seed=walk_seed(inputs["seed"], walk))
        t0 = time.perf_counter_ns()
        res = baselines.schoening_walk(cfg)
        result.walk_ns += time.perf_counter_ns() - t0
        result.walk_flips += res.total_flips
        clock.checkpoint()
        checks.check(res.satisfied and res.assignment is not None
                     and cnf.evaluate_bits(formula, res.assignment),
                     f"{tag}: walk {walk} returned no verified model")
        checks.check(res.total_flips > 0,
                     f"{tag}: walk {walk} solved with zero flips")
        if digest is not None:
            digest.update(repr((res.assignment, res.restarts_used,
                                res.total_flips)).encode())
        walk += 1


# ----------------------------------------------------------------------

WORKLOADS = ("grover_deep", "repeat_all", "sat_search")


def setup(name: str, seed: int) -> dict:
    """The workload's inputs; all of them derive from ``seed``."""
    if name == "grover_deep":
        return {"seed": seed, "config": deep_config(seed)}
    if name == "repeat_all":
        return {"seed": seed, "configs": repeat_configs(seed),
                "goldens": load_goldens()}
    if name == "sat_search":
        return {"seed": seed, "instances": sat_inputs(seed)}
    raise ValueError(f"unknown workload {name!r}")


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(repr(sorted(inputs.items())).encode()).hexdigest()


def run_pass(name: str, inputs: dict, checks: Checks, out_dir: Path,
             digest=None, tracer=None) -> Pass:
    """One timed pass over the workload's inputs, traced if ``tracer``.

    Every ``grover.run`` of the pass goes through a :class:`RunSink`,
    installed where callers look the function up; under a tracer its
    work is its own span, :data:`tracer.OWN`.  Untraced passes sample
    the host's speed with :func:`reference_ns`; traced ones do not, so
    their spans cover only the program and the checks.
    """
    # Start every pass from a collected heap: dead diagrams that reference
    # cycles keep alive would otherwise carry over into the next pass.
    gc.collect()
    result = Pass()
    clock = PassClock(sample=tracer is None)
    sink = RunSink(checks, clock, digest)
    observe = sink.observe if tracer is None else tracer.wrap(sink.observe, OWN)
    traced = traced_replacements(tracer) if tracer is not None else []
    with patched(traced):
        run_fn = grover.run

        def checked_run(*args, **kwargs):
            record = run_fn(*args, **kwargs)
            observe(record)
            return record

        with patched([(grover, "run", checked_run)]):
            if name == "grover_deep":
                deep_pass(inputs["config"], checks, out_dir, digest)
            elif name == "repeat_all":
                repeat_pass(inputs["configs"], checks, out_dir, digest,
                            inputs["goldens"])
            else:
                sat_pass(inputs, checks, result, clock, digest)
            result.wall_ns = clock.elapsed_ns()
    result.loop_ns = sink.loop_ns
    if clock.references:
        result.reference_ns = statistics.median(clock.references)
    return result


# ----------------------------------------------------------------------
# traced runs

SPANS = (
    "quidd.matvec", "quidd.apply", "quidd.inner_product", "quidd.count_nodes",
    "quidd.entry_at", "gates.diffusion", "grover.run",
    "grover.initialize_state", "grover.measure", "oracle.apply_oracle",
    "oracle.indicator_vector", "oracle.find_index",
    "oracle.compile_marked_set", "oracle.compile_cnf", "cnf.parse_dimacs",
    "baselines.schoening_walk", "bench.run_scaling", "bench.run_repeat_all",
    OWN,
)
# Trace statistics: the diagram calls grover.run makes itself, outside
# the oracle and diffusion steps.
STATS_SPANS = ("quidd.count_nodes", "quidd.inner_product", "quidd.entry_at",
               "quidd.apply")


def traced_replacements(tracer) -> list:
    """Wrappers for every traced name, placed where callers look it up."""
    counters = tracer.counters
    seen_nodes = weakref.WeakKeyDictionary()

    def after_run(args, rec):
        m, orc = args[0], args[1]
        now = m.nodes_created
        counters["nodes_created"] += now - seen_nodes.get(m, 0)
        seen_nodes[m] = now
        counters["peak_live"] += rec.peak_live_internal_nodes
        counters["shots"] += len(rec.measurements)
        prov = orc.provenance
        counters["hits"] += sum(
            1 for x in rec.measurements
            if (x in prov.marked if prov.marked is not None
                else cnf.evaluate_index(prov.formula, x)))

    def after_compile(args, orc):
        counters["oracles"] += 1
        counters["oracle_internal"] += _count_nodes(
            args[0], orc.phase_vector).internal

    def after_walk(args, res):
        counters["walks"] += 1
        counters["walks_solved"] += res.satisfied
        counters["walk_restarts"] += res.restarts_used
        counters["walk_flips"] += res.total_flips

    wrap = tracer.wrap
    reps = [(QuiddManager, meth, wrap(QuiddManager.__dict__[meth],
                                      f"quidd.{meth}"))
            for meth in ("matvec", "apply", "inner_product", "count_nodes",
                         "entry_at")]
    reps += [
        (gates, "diffusion", wrap(gates.diffusion, "gates.diffusion")),
        (grover, "run", wrap(grover.run, "grover.run", after_run)),
        (grover, "initialize_state",
         wrap(grover.initialize_state, "grover.initialize_state")),
        (grover, "measure", wrap(grover.measure, "grover.measure")),
        # grover.py imports these from oracle by name.
        (grover, "apply_oracle",
         wrap(grover.apply_oracle, "oracle.apply_oracle")),
        (grover, "indicator_vector",
         wrap(grover.indicator_vector, "oracle.indicator_vector")),
        (grover, "any_marked_index",
         wrap(grover.any_marked_index, "oracle.find_index")),
        (grover, "any_unmarked_index",
         wrap(grover.any_unmarked_index, "oracle.find_index")),
        (bench, "compile_marked_set",
         wrap(bench.compile_marked_set, "oracle.compile_marked_set",
              after_compile)),
        (oracle, "compile_cnf",
         wrap(oracle.compile_cnf, "oracle.compile_cnf", after_compile)),
        (cnf, "parse_dimacs", wrap(cnf.parse_dimacs, "cnf.parse_dimacs")),
        (baselines, "schoening_walk",
         wrap(baselines.schoening_walk, "baselines.schoening_walk",
              after_walk)),
        (bench, "run_scaling", wrap(bench.run_scaling, "bench.run_scaling")),
        (bench, "run_repeat_all",
         wrap(bench.run_repeat_all, "bench.run_repeat_all")),
    ]
    return reps


def layer_metrics(tracer, traced_ns: list[int], untraced_ns: list[int]) -> dict:
    """Per-layer metrics per traced pass, as {name: (value, unit)}.

    Self times of all spans plus ``trace.uncovered_ms`` add up to
    ``trace.wall_s``; ``trace.overhead_s`` is the traced minus the
    untraced pass time.
    """
    passes = len(traced_ns)
    c = tracer.counters

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{name}.self_ms": (per_pass(tracer.self_ns(name)) / 1e6, "ms")
           for name in SPANS}
    for name in ("quidd.matvec", "quidd.apply"):
        out[f"{name}.calls"] = (per_pass(tracer.calls(name)), "count")
    run_ns = tracer.total_ns("grover.run")
    stats_ns = sum(tracer.total_ns(name, parent="grover.run")
                   for name in STATS_SPANS)
    walk_ns = tracer.total_ns("baselines.schoening_walk")
    out.update({
        "quidd.nodes_created": (per_pass(c["nodes_created"]), "count"),
        "quidd.alloc_per_live": (ratio(c["nodes_created"], c["peak_live"]),
                                 "ratio"),
        "grover.runs": (per_pass(tracer.calls("grover.run")), "count"),
        "grover.measure.us_per_shot": (
            ratio(tracer.total_ns("grover.measure"),
                  tracer.calls("grover.measure")) / 1e3, "us"),
        "grover.stats_share": (ratio(stats_ns, run_ns), "ratio"),
        "grover.hit_rate": (ratio(c["hits"], c["shots"]), "ratio"),
        "oracle.internal_nodes": (ratio(c["oracle_internal"], c["oracles"]),
                                  "count"),
        "baselines.walk.restarts": (per_pass(c["walk_restarts"]), "count"),
        "baselines.walk.flips": (per_pass(c["walk_flips"]), "count"),
        "baselines.walk.solved_ratio": (ratio(c["walks_solved"], c["walks"]),
                                        "ratio"),
        "baselines.walk.flips_per_s": (ratio(c["walk_flips"], walk_ns / 1e9),
                                       "1/s"),
        "trace.wall_s": (per_pass(sum(traced_ns)) / 1e9, "s"),
        "trace.uncovered_ms": (
            per_pass(sum(traced_ns) - tracer.covered_ns()) / 1e6, "ms"),
        "trace.overhead_s": ((per_pass(sum(traced_ns))
                              - sum(untraced_ns) / len(untraced_ns)) / 1e9,
                             "s"),
    })
    return out
