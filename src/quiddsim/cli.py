"""bench: command-line driver for the experiment battery.

Usage::

    bench scaling      [--k-min N] [--k-max N] [--m N] [--reps N]
                       [--seed N] [--out PATH]
    bench oracle_stats [--k-min N] [--k-max N] [--m N] [--marked FILE]
                       [--cnf FILE] [--seed N] [--out PATH]
    bench crossover    [--k-min N] [--k-max N] [--m N] [--out PATH]
    bench trace        [--k-min N] [--m N] [--marked FILE] [--cnf FILE]
                       [--iterations N] [--iter-mult X]
                       [--seed N] [--out PATH]
    bench repeat_until_all_found [--k-min N] [--m N] [--reps N]
                                 [--seed N] [--out PATH]

Each experiment takes only the flags of the fields that ``bench.READS``
lists for it, and a flag left out takes the default that
``bench.ExperimentConfig`` fills from the same table.  A flag the
experiment does not read is an error.  The config, not this driver,
rejects two flags that exclude each other and a size flag that an
input file fixes (--k-min and --k-max beside --cnf, whose header gives
k; a --k-max other than --k-min beside --marked, which gives one
oracle); its reason follows a usage line.  CSV goes to --out (or stays
in memory); summaries go to stderr.  Exit status is 0 on success and 1
with a diagnostic line on any error.
"""

from __future__ import annotations

import argparse
import sys

from . import bench

# Each ExperimentConfig field's flag: (flag, type, metavar, help).  A
# help text ends with the field's default from bench.READS, if it has one.
_FLAGS = {
    "k_min": ("--k-min", int, "N",
              "register size in qubits; with --k-max, the smallest"),
    "k_max": ("--k-max", int, "N", "largest register size in qubits"),
    "marked_count": ("--m", int, "N", "marked-set size"),
    "marked_path": ("--marked", str, "FILE",
                    "marked-set file: one decimal index per line, '#' "
                    "starts a comment; uses --k-min as k"),
    "cnf_path": ("--cnf", str, "FILE",
                 "DIMACS CNF file; the register size comes from its header"),
    "repetitions": ("--reps", int, "N",
                    "timed runs per k, or experiments that each repeat "
                    "until all are found"),
    "iterations": ("--iterations", int, "N",
                   "explicit iteration count (default: ideal)"),
    "iteration_multiplier": ("--iter-mult", float, "X",
                             "run this multiple of the ideal iteration count"),
    "seed": ("--seed", int, "N",
             "base seed; derived streams make output reproducible"),
    "out": ("--out", str, "PATH",
            "write the CSV table here (default: no file)"),
}

_SUMMARIES = {
    "scaling": "time the Grover loop per k and fit c*k*b^k",
    "oracle_stats": "compile oracles and report diagram sizes",
    "crossover": "analytic query counts of every strategy per k",
    "trace": "per-iteration profile of one run at k = --k-min",
    "repeat_until_all_found": "repeat runs until every marked item was "
                              "observed",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark experiments for the compressed Grover simulator.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind, reads in bench.READS.items():
        p = sub.add_parser(kind, help=_SUMMARIES[kind])
        # Every flag parses to None when left out, so ExperimentConfig
        # fills the default and can tell a given flag from one left out.
        for field, default in reads.items():
            flag, type_, metavar, text = _FLAGS[field]
            if default is not None:
                text += f" (default {default})"
            p.add_argument(flag, type=type_, metavar=metavar, dest=field,
                           help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        fields = vars(parser.parse_args(argv))
        kind = fields.pop("experiment")
        try:
            cfg = bench.ExperimentConfig(kind=kind, **fields)
        except ValueError as exc:
            parser.error(f"{kind}: {exc}")
    except SystemExit as exc:
        # argparse has already written help or a diagnostic; fold its
        # exit status into the documented 0-or-1 contract.
        return 0 if not exc.code else 1
    try:
        if cfg.kind == "scaling":
            fit = bench.run_scaling(cfg)
            print(f"scaling fit: time ~ {fit.constant_ns:.4g} ns * k * "
                  f"{fit.growth_base:.4f}^k over {len(fit.samples)} sizes; "
                  f"peak-node/k correlation {fit.peak_node_correlation:.4f}",
                  file=sys.stderr)
        elif cfg.kind == "oracle_stats":
            rows = bench.run_oracle_stats(cfg)
            print(f"oracle_stats: {len(rows)} oracles compiled", file=sys.stderr)
        elif cfg.kind == "crossover":
            rows = bench.run_crossover(cfg)
            print(f"crossover: {len(rows)} rows", file=sys.stderr)
        elif cfg.kind == "trace":
            record = bench.run_trace(cfg)
            print(f"trace: k={record.k} M={record.marked_count} "
                  f"iterations={record.iterations} "
                  f"final success {record.trace[-1].success_prob:.6f}",
                  file=sys.stderr)
        else:
            result = bench.run_repeat_all(cfg)
            print(f"repeat_until_all_found: mean repetitions {result.mean_repetitions:.4f} "
                  f"(coupon-collector expectation "
                  f"{result.coupon_collector_expectation:.4f})",
                  file=sys.stderr)
    except Exception as exc:      # surface everything as a diagnostic line
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
