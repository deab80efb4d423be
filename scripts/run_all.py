#!/usr/bin/env python3
"""Run every benchmark experiment and collect the CSVs in one directory.

Each experiment goes through the public ``bench`` command line, so this
doubles as an end-to-end exercise of the installed entry point.  The
default ranges reproduce the headline numbers; ``--quick`` shrinks them
to a smoke test that finishes in a few seconds.
"""

import argparse
import sys
import time
from pathlib import Path

from quiddsim import cli


def experiment_args(quick: bool, seed: int):
    """(experiment, flags) pairs; crossover is analytic and takes no seed."""
    scaling_max = "14" if quick else "20"
    reps = "1" if quick else "3"
    oracle_max = "12" if quick else "24"
    cross = ("10", "14") if quick else ("10", "20")
    repeat_reps = "200" if quick else "1000"
    seeded = ["--seed", str(seed)]
    return [
        ("scaling", ["--k-min", "10", "--k-max", scaling_max,
                     "--reps", reps, *seeded]),
        ("oracle_stats", ["--k-min", "4", "--k-max", oracle_max, *seeded]),
        ("crossover", ["--k-min", cross[0], "--k-max", cross[1]]),
        ("trace", ["--k-min", "6", "--iter-mult", "3", *seeded]),
        ("repeat_until_all_found", ["--k-min", "6", "--m", "4",
                                    "--reps", repeat_reps, *seeded]),
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
