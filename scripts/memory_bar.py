#!/usr/bin/env python3
"""Check that a full Grover run's peak memory stays flat in the iteration count.

For k = 26 and k = 34 it runs one full single-marked search (marked
index 2^k - 3, the ideal iteration count, one shot) in a fresh
interpreter that does nothing else, and reads that interpreter's peak
resident set size (``ru_maxrss``).  The k=34 run makes 16 times as many
iterations as the k=26 run; the script prints both peaks and their
ratio, and exits 1 when the ratio is above 1.5.  The k=34 run takes
about a minute.  Usage::

    PYTHONPATH=src python scripts/memory_bar.py
"""

import subprocess
import sys

KS = (26, 34)
BAR = 1.5

# One run in a fresh interpreter: prints iterations, success probability,
# the closed form, whether the shot hit, and ru_maxrss in KiB (Linux).
CHILD = """
import resource, sys
from quiddsim import grover, oracle
from quiddsim.quidd import QuiddManager
k = int(sys.argv[1])
index = (1 << k) - 3
m = QuiddManager()
rec = grover.run(m, oracle.compile_marked_set(m, k, [index]),
                 grover.GroverParams(k=k))
print(rec.iterations, rec.trace[-1].success_prob,
      grover.ideal_success_probability(rec.iterations, 1 << k, 1),
      rec.measurements == (index,),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_mb(k: int) -> float:
    out = subprocess.run([sys.executable, "-c", CHILD, str(k)], check=True,
                         capture_output=True, text=True).stdout.split()
    iterations, success, ideal, hit, rss_kib = out
    mb = int(rss_kib) / 1024
    print(f"k={k}: {iterations} iterations, success {float(success):.12f}"
          f" (closed form {float(ideal):.12f}), hit {hit},"
          f" ru_maxrss {mb:.2f} MB", flush=True)
    return mb


def main() -> int:
    low, high = (peak_mb(k) for k in KS)
    ratio = high / low
    met = ratio <= BAR
    print(f"k={KS[1]} / k={KS[0]} peak: {ratio:.3f}"
          f" ({'within' if met else 'above'} the bar of {BAR}x)")
    return 0 if met else 1


if __name__ == "__main__":
    raise SystemExit(main())
