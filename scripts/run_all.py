#!/usr/bin/env python3
"""Run every benchmark experiment and collect the CSVs in one directory.

The experiments are the rows of ``bench.EXPERIMENTS``, run in table
order.  Each goes through the public ``bench`` command line, so this
doubles as an end-to-end exercise of the installed entry point.  The
full run takes each row's defaults, which reproduce the headline
numbers; ``--quick`` shrinks them to a smoke test that finishes in a
few seconds.  ``--seed`` goes to every experiment that reads a seed.
"""

import argparse
import sys
import time
from pathlib import Path

from quiddsim import bench, cli

# Flags added to an experiment's defaults.  The trace always runs three
# times the ideal iteration count, to show the periodic success curve;
# --quick lowers the sizes and counts of the others.
ALWAYS = {"trace": ["--iter-mult", "3"]}
QUICK = {
    "scaling": ["--k-max", "14", "--reps", "1"],
    "oracle_stats": ["--k-max", "12"],
    "crossover": ["--k-max", "14"],
    "repeat_until_all_found": ["--reps", "200"],
}


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
    for name, row in bench.EXPERIMENTS.items():
        quick = QUICK.get(name, []) if args.quick else []
        seeded = ["--seed", str(args.seed)] if "seed" in row.reads else []
        out = out_dir / f"{name}.csv"
        argv_exp = [name, *quick, *ALWAYS.get(name, []), *seeded,
                    "--out", str(out)]
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
