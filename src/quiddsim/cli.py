"""bench: command-line driver for the experiment battery.

Usage::

    bench <experiment> [flags]

``bench --help`` lists the experiments and ``bench <experiment> --help``
the flags of one.  Each experiment is a row of ``bench.EXPERIMENTS``,
which gives its help line, the fields it reads with their defaults, its
runner and the one-line summary of the runner's result; the command line
builds one subcommand per row.  An experiment takes only the flags of
the fields its row reads, and a flag left out takes the default that
``bench.ExperimentConfig`` fills from the same row.  A flag the
experiment does not read is an error.  The config, not this driver,
rejects two flags that exclude each other and a size flag that an
input file fixes (--k-min and --k-max beside --cnf, whose header gives
k; a --k-max other than --k-min beside --marked, which gives one
oracle); its reason follows a usage line.  CSV goes to --out (no file
is written without it); summaries go to stderr.  Exit status is 0 on
success and 1 with a diagnostic line on any error.

A new field is one ``_FLAGS`` entry here, beside the config field and
the rows that read it.
"""

from __future__ import annotations

import argparse
import sys

from . import bench

# Each ExperimentConfig field's flag: (flag, type, metavar, help).  A
# help text ends with the field's default from its experiment's row in
# bench.EXPERIMENTS, if it has one.
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark experiments for the compressed Grover simulator.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind, row in bench.EXPERIMENTS.items():
        p = sub.add_parser(kind, help=row.help)
        # Every flag parses to None when left out, so ExperimentConfig
        # fills the default and can tell a given flag from one left out.
        for field, default in row.reads.items():
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
        row = bench.EXPERIMENTS[cfg.kind]
        print(row.summary(row.run(cfg)), file=sys.stderr)
    except Exception as exc:      # surface everything as a diagnostic line
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
