#!/usr/bin/env python3
"""quiddsim benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload grover_deep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it benchmarks the ``quiddsim`` under
``src/`` there.  Workloads: ``grover_deep``, ``repeat_all`` and
``sat_search`` (see ``workloads.py``).  All inputs derive from
``--seed``.  The run repeats passes over the same inputs for about
``--seconds`` seconds and checks every output.

``--trace 0`` runs each pass in a fresh interpreter, one after another,
as a user runs the command line once per experiment: a pass in a process
that has already run passes takes longer, by an amount that changes from
process to process.  It reports the end-to-end metrics: ``setup_s``
(median over those interpreters of start-up, imports and input
generation), ``wall_ref_s`` and ``grover_loop_ref_s`` (medians over
passes of the pass time and of its summed ``GroverRun.loop_ns``, each
rescaled to a host of fixed speed, see below) and ``peak_rss_mb``
(median over the interpreters of their peak resident set).
``--trace 1`` alternates untraced and traced passes in one process,
checks that both produce identical outputs and reports the per-layer
metrics from the traced ones.

A shared host runs the same pure-Python code up to twice as fast in one
minute as in another.  Each untraced pass therefore also times a fixed
job of the benchmark's own (``workloads.reference_ns``, left out of the
pass time) at its start and between Grover runs and walks, and the
``*_ref_s`` metrics scale the pass to a host on which that job takes
``workloads.REFERENCE_HOST_NS``.  No change to quiddsim moves the job,
so the scaling keeps the program's cost and removes most of the host's
swings (not all: code of another kind slows by other amounts).

Progress goes to stderr.  Stdout lists every metric by name and unit,
together with the unscaled medians ``wall_s`` and ``grover_loop_s``,
``reference_ms``, ``error_rate`` (failed over attempted output checks)
and, on ``sat_search``, ``walk_flips_per_s``; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
The exit status is 0 when the run completed, whether or not its checks
passed, and 2 when the program under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Fewest passes, each in its own interpreter, a --trace 0 run makes.
MIN_PASSES = 5
# Seconds one of them may take.
PASS_TIMEOUT = 150


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_workloads():
    """Import quiddsim from this checkout's ``src/`` and the workloads."""
    package = SRC / "quiddsim"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no quiddsim package at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import quiddsim
    if Path(quiddsim.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported quiddsim from {quiddsim.__file__}, "
                          f"not from {package}")
    import workloads
    return workloads


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_pass(wl, args, inputs, digest, ready: float) -> None:
    """``--one-pass``: run one untraced pass and print it as JSON."""
    checks = wl.Checks()
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as tmp:
        p = wl.run_pass(args.workload, inputs, checks, Path(tmp))
    print(json.dumps({"ready": ready, "inputs": digest,
                      "pass": dataclasses.asdict(p),
                      "peak_rss_mb": peak_rss_mb(),
                      "attempted": checks.attempted, "failed": checks.failed,
                      "failures": checks.failures}))


def fresh_pass(wl, args, checks, digest):
    """One pass in a fresh interpreter: (set-up seconds, Pass, peak RSS)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--one-pass",
           "--workload", args.workload, "--seed", str(args.seed)]
    # perf_counter is CLOCK_MONOTONIC on Linux, one clock for every
    # process, so the child's "inputs ready" instant compares with ours.
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"a pass exited with status {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    checks.attempted += out["attempted"]
    checks.failed += out["failed"]
    checks.failures += out["failures"]
    checks.check(out["inputs"] == digest, "a fresh interpreter built other "
                 "inputs from the seed")
    return out["ready"] - t0, wl.Pass(**out["pass"]), out["peak_rss_mb"]


def keep_going(passes_ns: list[int], start: float, seconds: float,
               minimum: int) -> bool:
    """Start another pass while one more fits in the time budget."""
    if len(passes_ns) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(passes_ns) / 1e9 <= seconds


def end_to_end(wl, args, checks, digest):
    passes, setup_runs, rss = [], [], []

    def median_s(values):
        return statistics.median(values) / 1e9

    start = time.perf_counter()
    while keep_going([p.wall_ns for p in passes], start, args.seconds,
                     MIN_PASSES):
        setup, p, peak = fresh_pass(wl, args, checks, digest)
        passes.append(p)
        setup_runs.append(setup)
        rss.append(peak)
        log(f"pass {len(passes)}: set-up {setup:.3f} s, wall "
            f"{p.wall_ns / 1e9:.3f} s, grover loop {p.loop_ns / 1e9:.3f} s, "
            f"reference {p.reference_ns / 1e6:.2f} ms, peak rss {peak:.1f} MB")
    metrics = {
        "setup_s": (statistics.median(setup_runs), "s"),
        "wall_ref_s": (median_s(p.at_reference_speed(p.wall_ns)
                                for p in passes), "s"),
        "grover_loop_ref_s": (median_s(p.at_reference_speed(p.loop_ns)
                                       for p in passes), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    walk_ns = sum(p.walk_ns for p in passes)
    # Shown with the others but not gated: the unscaled times follow the
    # host, and only sat_search walks.
    extra = {"passes": (len(passes), "count"),
             "wall_s": (median_s(p.wall_ns for p in passes), "s"),
             "grover_loop_s": (median_s(p.loop_ns for p in passes), "s"),
             "reference_ms": (statistics.median(p.reference_ns
                                                for p in passes) / 1e6, "ms"),
             "walk_flips_per_s": (sum(p.walk_flips for p in passes)
                                  / (walk_ns / 1e9) if walk_ns else 0.0,
                                  "1/s")}
    return metrics, extra


def traced(wl, args, inputs, checks, out_dir):
    from tracer import Tracer
    tracer = Tracer()
    plain, spanned, digests = [], [], set()
    start = time.perf_counter()
    while keep_going([a.wall_ns + b.wall_ns for a, b in zip(plain, spanned)],
                     start, args.seconds, 1):
        for runs, tr in ((plain, None), (spanned, tracer)):
            digest = hashlib.sha256()
            runs.append(wl.run_pass(args.workload, inputs, checks, out_dir,
                                    digest, tr))
            digests.add(digest.hexdigest())
        log(f"pair {len(plain)}: untraced {plain[-1].wall_ns / 1e9:.3f} s, "
            f"traced {spanned[-1].wall_ns / 1e9:.3f} s")
    checks.check(len(digests) == 1,
                 "traced passes produced other outputs than untraced ones")
    unknown = set(tracer.names()) - set(wl.SPANS)
    checks.check(not unknown, f"spans outside the reported set: {unknown}")
    metrics = wl.layer_metrics(tracer, [p.wall_ns for p in spanned],
                               [p.wall_ns for p in plain])
    for name in sorted(tracer.names()):
        log(f"  {name:28s} calls {tracer.calls(name):>9d}  "
            f"self {tracer.self_ns(name) / 1e6 / len(spanned):10.1f} ms/pass")
    return metrics, {"pairs": (len(plain), "count")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--one-pass", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        wl = import_workloads()
    except ImportError as exc:
        log(f"perfbench: cannot import the program: {exc}")
        return 2
    if args.workload not in wl.WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(wl.WORKLOADS)}")
        return 2
    inputs = wl.setup(args.workload, args.seed)
    digest = wl.inputs_digest(inputs)
    if args.one_pass:
        one_pass(wl, args, inputs, digest, time.perf_counter())
        return 0

    checks = wl.Checks()
    if args.trace:
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as tmp:
            metrics, extra = traced(wl, args, inputs, checks, Path(tmp))
    else:
        metrics, extra = end_to_end(wl, args, checks, digest)

    error_rate = checks.failed / checks.attempted
    for failure in checks.failures:
        log(f"FAILED: {failure}")
    for name, (value, unit) in {**metrics, **extra,
                                "error_rate": (error_rate, "ratio")}.items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
