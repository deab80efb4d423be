"""The package runs in an interpreter that cannot import numpy.

quiddsim has no runtime dependency: with ``import numpy`` made to fail,
a fresh interpreter must run every experiment, the Grover engine and
the classical baselines.  The dense reference lives with the tests, so
``quiddsim.dense`` is gone.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import quiddsim

SCRIPT = textwrap.dedent("""
    import contextlib
    import io
    import runpy
    import sys
    import tempfile
    from pathlib import Path

    sys.modules["numpy"] = None         # every import of numpy now fails

    from quiddsim import baselines, bench, cli, cnf, grover, oracle
    from quiddsim.quidd import QuiddManager

    run_all = runpy.run_path(str(Path(sys.argv[1], "scripts", "run_all.py")))
    inst = cnf.planted_3cnf(8, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "f.cnf").write_text(cnf.to_dimacs(inst.formula))
        (tmp / "marked.txt").write_text("3\\n17\\n")
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            assert run_all["main"](["--quick", "--out-dir",
                                    str(tmp / "results")]) == 0
            assert cli.main(["oracle_stats", "--cnf", str(tmp / "f.cnf"),
                             "--out", str(tmp / "stats.csv")]) == 0
            assert cli.main(["trace", "--k-min", "6", "--marked",
                             str(tmp / "marked.txt"),
                             "--out", str(tmp / "trace.csv")]) == 0
        assert sorted(p.stem for p in (tmp / "results").glob("*.csv")) \\
            == sorted(bench.EXPERIMENTS)
        assert (tmp / "stats.csv").read_text().count("\\n") == 2
        assert (tmp / "trace.csv").read_text().count("\\n") > 2

    m = QuiddManager()
    rec = grover.run(m, oracle.compile_cnf(m, inst.formula),
                     grover.GroverParams(k=8, shots=4))
    assert rec.iterations > 0 and len(rec.measurements) == 4
    walk = baselines.schoening_walk(baselines.WalkConfig(
        inst.formula, seed=bench._derive(1, 8)))
    assert walk.satisfied
    pred = frozenset([5, 40]).__contains__
    ledger = baselines.deterministic_scan(pred, 1 << 13)
    assert (ledger.queries, ledger.found, ledger.index) == (6, True, 5)
    for mode in (baselines.WITH_REPLACEMENT, baselines.WITHOUT_REPLACEMENT):
        assert baselines.randomized_search(pred, 64, mode, seed=2).found

    try:
        import quiddsim.dense
    except ModuleNotFoundError as exc:
        assert exc.name == "quiddsim.dense", exc
    else:
        raise AssertionError("quiddsim.dense still imports")
    print("ok")
""")


def test_runs_and_experiments_without_numpy():
    src = Path(quiddsim.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(src.parent)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
