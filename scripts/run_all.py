#!/usr/bin/env python3
"""Run every benchmark experiment and collect the CSVs in one directory.

Each experiment goes through the public ``bench`` command line, so this
doubles as an end-to-end exercise of the installed entry point.  The
full run takes the command line's defaults (``bench.READS``), which
reproduce the headline numbers; ``--quick`` shrinks them to a smoke test
that finishes in a few seconds.
"""

import argparse
import sys
import time
from pathlib import Path

from quiddsim import cli


def experiment_args(quick: bool, seed: int):
    """(experiment, flags) pairs.  A full run takes each experiment's
    default sizes and counts, and ``quick`` lowers them.  The trace runs
    three times the ideal iteration count, to show the periodic success
    curve; crossover is analytic and takes no seed."""
    seeded = ["--seed", str(seed)]

    def sizes(*flags):
        return list(flags) if quick else []

    return [
        ("scaling", [*sizes("--k-max", "14", "--reps", "1"), *seeded]),
        ("oracle_stats", [*sizes("--k-max", "12"), *seeded]),
        ("crossover", sizes("--k-max", "14")),
        ("trace", ["--iter-mult", "3", *seeded]),
        ("repeat_until_all_found", [*sizes("--reps", "200"), *seeded]),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results", metavar="DIR",
                    help="directory for the output CSVs (default: results)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smaller ranges for a fast smoke run")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, extra in experiment_args(args.quick, args.seed):
        out = out_dir / f"{name}.csv"
        argv_exp = [name, *extra, "--out", str(out)]
        print(f"== bench {' '.join(argv_exp)}", flush=True)
        start = time.perf_counter()
        rc = cli.main(argv_exp)
        if rc != 0:
            print(f"experiment {name} failed with exit code {rc}",
                  file=sys.stderr)
            return rc
        print(f"   wrote {out} in {time.perf_counter() - start:.1f}s",
              flush=True)
    print(f"all experiments finished; CSVs in {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
