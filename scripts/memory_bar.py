#!/usr/bin/env python3
"""Check that a full Grover run's peak memory stays flat in the iteration count.

It runs one full single-marked search (marked index 2^k - 3, the ideal
iteration count, one shot) in a fresh interpreter that does nothing
else, and reads that interpreter's peak resident set size
(``ru_maxrss``): at k = 26 and k = 34 with the per-iteration trace, and
at k = 38 without it (``grover.run(..., trace=False)``), as the
experiments that read no trace run.  The k=34 and k=38 runs make 16 and
64 times as many iterations as the k=26 run.  The trace's columns grow
with the iteration count, 56 bytes per iteration (23 MB at k=38), so
the k=38 run shows what the rest of the run holds.  The script prints
every peak and the ratio of each larger run's to k=26's, and exits 1
when a ratio is above 1.5.  The three runs take about 100 s in all
(2 vCPU, Python 3.11.7), most of it the k=38 run.  Usage::

    PYTHONPATH=src python scripts/memory_bar.py
"""

import subprocess
import sys

# (k, whether the run keeps its trace); the first run is the baseline.
RUNS = ((26, True), (34, True), (38, False))
BAR = 1.5

# One run in a fresh interpreter: prints iterations, success probability,
# the closed form, whether the shot hit, and ru_maxrss in KiB (Linux).
CHILD = """
import resource, sys
from quiddsim import grover, oracle
from quiddsim.quidd import QuiddManager
k, trace = int(sys.argv[1]), sys.argv[2] == "True"
index = (1 << k) - 3
m = QuiddManager()
rec = grover.run(m, oracle.compile_marked_set(m, k, [index]),
                 grover.GroverParams(k=k), trace=trace)
print(rec.iterations, rec.trace[-1].success_prob,
      grover.ideal_success_probability(rec.iterations, 1 << k, 1),
      rec.measurements == (index,),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_mb(k: int, trace: bool) -> float:
    out = subprocess.run([sys.executable, "-c", CHILD, str(k), str(trace)],
                         check=True, capture_output=True,
                         text=True).stdout.split()
    iterations, success, ideal, hit, rss_kib = out
    mb = int(rss_kib) / 1024
    print(f"k={k} ({'with' if trace else 'without'} the trace):"
          f" {iterations} iterations, success {float(success):.12f}"
          f" (closed form {float(ideal):.12f}), hit {hit},"
          f" ru_maxrss {mb:.2f} MB", flush=True)
    return mb


def main() -> int:
    (base_k, base_trace), *larger = RUNS
    base = peak_mb(base_k, base_trace)
    met = True
    for k, trace in larger:
        ratio = peak_mb(k, trace) / base
        within = ratio <= BAR
        met &= within
        print(f"k={k} / k={base_k} peak: {ratio:.3f}"
              f" ({'within' if within else 'above'} the bar of {BAR}x)",
              flush=True)
    return 0 if met else 1


if __name__ == "__main__":
    raise SystemExit(main())
