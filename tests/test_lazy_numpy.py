"""numpy loads only where a dense array is built or read.

The Grover, CNF, walk and ``bench`` paths work on diagrams and Python
numbers, so a fresh interpreter that runs them must never import numpy;
dense conversion and the vectorised scan still do, on first use.
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
    import sys

    from quiddsim import baselines, bench, cli, cnf, grover, oracle
    from quiddsim.quidd import QuiddManager, vector_space

    bench.run_scaling(bench.ExperimentConfig(kind="scaling", k_min=4,
                                             k_max=8, repetitions=1))
    bench.run_repeat_all(bench.ExperimentConfig(
        kind="repeat_until_all_found", k_min=4, repetitions=3))
    inst = cnf.planted_3cnf(8, seed=1)
    formula = cnf.parse_dimacs(cnf.to_dimacs(inst.formula))
    m = QuiddManager()
    rec = grover.run(m, oracle.compile_cnf(m, formula),
                     grover.GroverParams(k=8, shots=4))
    assert rec.iterations > 0
    walk = baselines.schoening_walk(baselines.WalkConfig(
        formula, seed=bench._derive(1, 8)))
    assert walk.satisfied
    assert len(baselines.crossover_table(range(4, 13))) == 9
    pred = baselines.MarkedSetPredicate([5, 40])
    for mode in (baselines.WITH_REPLACEMENT, baselines.WITHOUT_REPLACEMENT):
        assert baselines.randomized_search(pred, 64, mode, seed=2).found
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["crossover", "--k-min", "4", "--k-max", "12"]) == 0
    assert "numpy" not in sys.modules, "a numpy-free path imported numpy"

    ledger = baselines.deterministic_scan(pred, 1 << 13)
    assert (ledger.queries, ledger.found, ledger.index) == (6, True, 5)
    m = QuiddManager()
    v = m.from_dense([1.0, 2.0, 3.0, 4.0], vector_space(2))
    assert list(m.to_dense(v, vector_space(2))) == [1, 2, 3, 4]
    assert "numpy" in sys.modules
    print("ok")
""")


def test_numpy_free_paths_in_a_fresh_interpreter():
    src = str(Path(quiddsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
