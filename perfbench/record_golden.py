#!/usr/bin/env python3
"""Record golden_repeat_all.json: the SHA-256 of the repeat_all CSV that
``bench.run_repeat_all`` writes for each input seed.

The goldens pin the CSV bytes of the commit they were recorded at; the
benchmark checks every later commit against them.  Run it from the root
of a checkout (takes well under a second per seed on one core):

    python3 perfbench/record_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from quiddsim import bench  # noqa: E402


def main() -> int:
    hashes = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as tmp:
        out = Path(tmp) / "repeat.csv"
        for seed in range(workloads.REPEAT_GOLDEN_SEEDS):
            cfg = workloads.repeat_config(seed)
            cfg.out = str(out)
            bench.run_repeat_all(cfg)
            hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
            print(f"seed {seed}: {hashes[-1]}", file=sys.stderr, flush=True)
    doc = {"experiment": "repeat_until_all_found",
           "k": workloads.REPEAT_K, "m": workloads.REPEAT_M,
           "experiments": workloads.REPEAT_EXPERIMENTS,
           "csv_sha256": hashes}
    workloads.GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
