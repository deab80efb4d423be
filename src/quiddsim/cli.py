"""bench: command-line driver for the experiment battery.

Usage::

    bench scaling      [--k-min N] [--k-max N] [--m N] [--reps N]
                       [--seed N] [--out PATH]
    bench oracle_stats [--k-min N] [--k-max N]
                       [--m N | --marked FILE | --cnf FILE]
                       [--seed N] [--out PATH]
    bench crossover    [--k-min N] [--k-max N] [--m N] [--out PATH]
    bench trace        [--k-min N] [--m N | --marked FILE | --cnf FILE]
                       [--iterations N | --iter-mult X]
                       [--seed N] [--out PATH]
    bench repeat_until_all_found [--k-min N] [--m N] [--reps N]
                                 [--seed N] [--out PATH]

Each experiment takes only the flags its ``bench.run_*`` function
reads; a flag it does not read, or two flags that exclude each other,
is an error.  An input file fixes what the size flags would set: with
--cnf the header gives k, so --k-min and --k-max are errors, and with
--marked, oracle_stats compiles the one set at --k-min, so --k-max is.
CSV goes to --out (or stays in memory); summaries go to stderr.  Exit
status is 0 on success and 1 with a diagnostic line on any error.
"""

from __future__ import annotations

import argparse
import sys

from . import bench


def _add_k(p: argparse.ArgumentParser, k_min: int,
           k_max: int | None = None) -> None:
    """--k-min, and --k-max when the experiment sweeps a range of sizes.

    Both parse to None when left out and _config_from fills in the
    defaults, so a size given beside an input file that fixes it can be
    told apart from one not given.
    """
    p.set_defaults(k_defaults=(k_min, k_max))
    if k_max is None:
        p.add_argument("--k-min", type=int, metavar="N",
                       help=f"register size in qubits (default {k_min})")
        return
    p.add_argument("--k-min", type=int, metavar="N",
                   help=f"smallest register size in qubits (default {k_min})")
    p.add_argument("--k-max", type=int, metavar="N",
                   help=f"largest register size in qubits (default {k_max})")


def _add_marked(p: argparse.ArgumentParser, m_default: int,
                files: bool = False) -> None:
    """--m, plus --marked and --cnf when the experiment compiles an oracle
    that a file can describe; the three exclude each other."""
    group = p.add_mutually_exclusive_group() if files else p
    group.add_argument("--m", type=int, metavar="N", dest="marked_count",
                       help=f"marked-set size (default {m_default})")
    if files:
        group.add_argument("--marked", metavar="FILE", dest="marked_path",
                           help="marked-set file: one decimal index per line, "
                                "'#' starts a comment; uses --k-min as k")
        group.add_argument("--cnf", metavar="FILE", dest="cnf_path",
                           help="DIMACS CNF file; the register size comes "
                                "from its header")


def _add_reps(p: argparse.ArgumentParser, default: int, what: str) -> None:
    p.add_argument("--reps", type=int, default=default, metavar="N",
                   dest="repetitions", help=f"{what} (default {default})")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="base seed; derived streams make output reproducible "
                        "(default 0)")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH",
                   help="write the CSV table here (default: no file)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark experiments for the compressed Grover simulator.")
    sub = parser.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("scaling",
                       help="time the Grover loop per k and fit c*k*b^k")
    _add_k(p, 10, 20)
    _add_marked(p, 1)
    _add_reps(p, 3, "timed runs per k")
    _add_seed(p)
    _add_out(p)

    p = sub.add_parser("oracle_stats",
                       help="compile oracles and report diagram sizes")
    _add_k(p, 4, 24)
    _add_marked(p, 1, files=True)
    _add_seed(p)
    _add_out(p)

    p = sub.add_parser("crossover",
                       help="analytic query counts of every strategy per k")
    _add_k(p, 10, 20)
    _add_marked(p, 1)
    _add_out(p)

    p = sub.add_parser("trace",
                       help="per-iteration profile of one run at k = --k-min")
    _add_k(p, 6)
    _add_marked(p, 1, files=True)
    iterations = p.add_mutually_exclusive_group()
    iterations.add_argument("--iterations", type=int, metavar="N",
                            help="explicit iteration count (default: ideal)")
    iterations.add_argument("--iter-mult", type=float, metavar="X",
                            dest="iteration_multiplier",
                            help="run this multiple of the ideal iteration "
                                 "count")
    _add_seed(p)
    _add_out(p)

    p = sub.add_parser("repeat_until_all_found",
                       help="repeat runs until every marked item was observed")
    _add_k(p, 6)
    _add_marked(p, 4)
    _add_reps(p, 1000, "experiments, each repeating until all are found")
    _add_seed(p)
    _add_out(p)
    return parser


def _unread_size_flag(args: argparse.Namespace) -> str | None:
    """The argparse-style complaint about a size flag that an input file
    leaves unread: a CNF header fixes the register size, and a file
    gives one oracle, so there is no range to sweep."""
    cnf = getattr(args, "cnf_path", None)
    marked = getattr(args, "marked_path", None)
    if cnf is not None and args.k_min is not None:
        return "argument --k-min: not allowed with argument --cnf"
    if getattr(args, "k_max", None) is not None and (cnf is not None
                                                       or marked is not None):
        other = "--cnf" if cnf is not None else "--marked"
        return f"argument --k-max: not allowed with argument {other}"
    return None


def _config_from(args: argparse.Namespace) -> bench.ExperimentConfig:
    # Every flag's dest is an ExperimentConfig field, and k_defaults
    # holds the sizes left out; a single-size experiment has no --k-max,
    # so its range is the one size.
    fields = dict(vars(args))
    fields["kind"] = fields.pop("experiment")
    k_min, k_max = fields.pop("k_defaults")
    if fields["k_min"] is None:
        fields["k_min"] = k_min
    if fields.get("k_max") is None:
        fields["k_max"] = k_max if k_max is not None else fields["k_min"]
    return bench.ExperimentConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        unread = _unread_size_flag(args)
        if unread is not None:
            parser.error(f"{args.experiment}: {unread}")
    except SystemExit as exc:
        # argparse has already written help or a diagnostic; fold its
        # exit status into the documented 0-or-1 contract.
        return 0 if not exc.code else 1
    try:
        cfg = _config_from(args)
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
