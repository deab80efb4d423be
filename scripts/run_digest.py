#!/usr/bin/env python3
"""Print SHA-256 digests of a fixed set of Grover runs.

The set is 44 runs: single-marked-set searches at k = 12..18 with
M in {1, 3, 17} marked items, each at the ideal and at three times the
ideal iteration count, plus planted 3-CNF searches at n = 14 and 16.
Every run takes 5 shots on a fresh manager.

For each collection setting (the default ``COLLECT_EVERY`` and 64) it
prints two digests: one over every run's ``comparable()`` record, one
over every manager's whole node store after its run, as
:meth:`QuiddManager.dump` lists it (each node's id, variable and
children, each terminal's value), and the total of every manager's
``nodes_created``: a count of the work done that no timing moves.
Equal digests on two versions of the code mean bit-identical results
and the same node store, numbering included.  A run ends with a
collection, so the digests and the count must also be equal at the two
settings; the script exits 1 when they are not.
Usage::

    PYTHONPATH=src python scripts/run_digest.py
"""

import hashlib

from quiddsim import cnf, grover, oracle
from quiddsim.quidd import QuiddManager

SHOTS = 5


def _spread_marked(k, count):
    # An odd stride modulo 2^k never repeats within 2^k steps.
    return [(i * 2654435761 + 7 * k) % (1 << k) for i in range(count)]


def runs():
    """Yield (manager, record) for every run of the set, in a fixed order."""
    for k in range(12, 19):
        for count in (1, 3, 17):
            ideal = grover.optimal_iterations(1 << k, count)
            for its in (ideal, 3 * ideal):
                m = QuiddManager()
                orc = oracle.compile_marked_set(m, k, _spread_marked(k, count))
                yield m, grover.run(m, orc, grover.GroverParams(
                    k=k, iterations=its, shots=SHOTS))
    for n in (14, 16):
        m = QuiddManager()
        orc = oracle.compile_cnf(m, cnf.planted_3cnf(n, seed=n).formula)
        yield m, grover.run(m, orc, grover.GroverParams(k=n, shots=SHOTS))


def digests():
    records = hashlib.sha256()
    nodes = hashlib.sha256()
    count = created = 0
    for m, rec in runs():
        records.update(repr(rec.comparable()).encode())
        nodes.update(m.dump(*range(m.size)).encode())
        created += m.nodes_created
        count += 1
    return count, records.hexdigest(), nodes.hexdigest(), created


def main() -> int:
    default = grover.COLLECT_EVERY
    seen = set()
    for every in (default, 64):
        grover.COLLECT_EVERY = every
        try:
            count, records, nodes, created = digests()
        finally:
            grover.COLLECT_EVERY = default
        print(f"COLLECT_EVERY={every}: {count} runs")
        print(f"  comparable()          {records}")
        print(f"  node store            {nodes}")
        print(f"  nodes created         {created}", flush=True)
        seen.add((records, nodes, created))
    if len(seen) > 1:
        print("digests or counts differ between the collection settings")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
