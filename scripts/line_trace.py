#!/usr/bin/env python3
"""List the statements of ``src/quiddsim`` that no traced job runs.

It records ``sys.settrace`` line events in the files under
``src/quiddsim`` over four jobs:

* ``scripts/run_all.py --quick --seed 1``;
* ``scripts/run_digest.py``;
* one ``workloads.setup`` and ``workloads.run_pass`` per perfbench
  workload (grover_deep, repeat_all, sat_search), with seed 1.

A statement is every ``ast.stmt`` apart from ``raise`` statements and
docstrings.  It counts as run when a line event hits one of its header
lines: a simple statement's own lines, a compound statement's lines up
to its body (its decorators included).  For each file the script prints
every statement no job ran, as ``line: source``, then the totals.  The
CSVs and the benchmark's output go to a temporary directory that is
removed at the end, so nothing is written inside the checkout.  Standard
library only; it is not part of the test suite.

It takes about 1.5 minutes on a 2-vCPU Xeon under Python 3.11.7.
Usage::

    python scripts/line_trace.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quiddsim"
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"
SEED = 1


def statements(path: Path) -> list[tuple[ast.stmt, range]]:
    """Every non-raise, non-docstring statement of a file with its header
    lines."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, ast.Raise)
                or node in docstrings):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        inner = [c.lineno for field in ("body", "handlers", "orelse",
                                        "finalbody")
                 for c in getattr(node, field, ())]
        last = min(inner) - 1 if inner else node.end_lineno
        out.append((node, range(first, max(last, node.lineno) + 1)))
    return out


def tracer(hits: dict[str, set[int]]):
    """A global trace function recording line events in package files."""
    prefix = str(PACKAGE) + "/"
    lines_of: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        lines = lines_of.get(name, False)
        if lines is False:
            real = str(Path(name).resolve())
            lines = lines_of[name] = (hits.setdefault(real, set())
                                      if real.startswith(prefix) else None)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local
    return trace


def run_script(name: str, *argv: str) -> None:
    path = SCRIPTS / name
    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as e:
        if e.code not in (0, None):
            raise RuntimeError(f"{name} exited with {e.code}") from None
    finally:
        sys.argv = saved


def jobs(tmp: Path):
    """(label, job) pairs; each job runs with the tracer on."""
    def perfbench_pass(name):
        def job():
            import workloads
            checks = workloads.Checks()
            out = tmp / name
            out.mkdir()
            workloads.run_pass(name, workloads.setup(name, SEED), checks, out)
            if checks.failed:
                raise RuntimeError(f"{name}: {checks.failed} failed checks")
        return job

    yield "run_all.py --quick", lambda: run_script(
        "run_all.py", "--quick", "--seed", str(SEED),
        "--out-dir", str(tmp / "results"))
    yield "run_digest.py", lambda: run_script("run_digest.py")
    for name in ("grover_deep", "repeat_all", "sat_search"):
        yield f"perfbench {name}", perfbench_pass(name)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    hits: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as d:
        for label, job in jobs(Path(d)):
            print(f"tracing {label}", file=sys.stderr, flush=True)
            quiet = io.StringIO()
            sys.settrace(tracer(hits))
            try:
                with (contextlib.redirect_stdout(quiet),
                      contextlib.redirect_stderr(quiet)):
                    job()
            finally:
                sys.settrace(None)
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = hits.get(str(path), set())
        found = statements(path)
        missed = sorted((node.lineno for node, header in found
                         if not lines.intersection(header)))
        total += len(found)
        unrun += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} unrun")
        for lineno in missed:
            print(f"  {lineno}: {source[lineno - 1].strip()}")
    print(f"{unrun} of {total} statements unrun")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
