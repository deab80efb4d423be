"""Result digests of scripts/run_digest.py, pinned.

The script hashes every ``comparable()`` record and every manager's
whole node store (``dump`` of every ref) over a fixed set of 44 Grover
runs, and sums the nodes each manager created.  A change to either
digest means results or the node store moved, node numbering and
terminal values included; such a change must be deliberate, and this
test then states the new digests.  The count moves with any change to
how many nodes the kernels build, and a change to it is stated the same
way.
"""

import dataclasses
import functools
import importlib.util
from pathlib import Path

import pytest

from quiddsim import grover

RUN_DIGEST = Path(__file__).resolve().parents[1] / "scripts" / "run_digest.py"

RECORDS = "1eef2d0ed7ef73e2a70bdb1f0dff2abc966a2348d302638721c1f905efc8972e"
# 631cf6e9... until the row-sum table held numbers and the zero terminal
# became ref 0: each store starts with the zero, and the sweeps now free
# the terminals the row-sum table's nodes used to keep.  Earlier,
# 47167f94... until the sweep read its candidates from the terminal table.
NODES = "733ab701d3c6ad73a8844fee8aa1c21250798ee86aea5ecde52afcd5debc0e5f"
# 758,909 until a block's offset difference between two internal halves
# stayed deferred: the copy of the high half built with it, which the
# next offset above copied again, is no longer made.
CREATED = 496_125


def load_script():
    spec = importlib.util.spec_from_file_location("run_digest", RUN_DIGEST)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_digest_at_the_default_collection_setting():
    script = load_script()
    assert grover.COLLECT_EVERY == 4096
    assert script.digests() == (44, RECORDS, NODES, CREATED)


def outcomes(script):
    """Each digest run's record, final state and node count."""
    return [(rec, m.dump(rec.final_state), m.nodes_created)
            for m, rec in script.runs()]


@pytest.mark.parametrize("every", [4096, 64])
def test_runs_without_the_trace_keep_every_other_result(monkeypatch, every):
    script = load_script()
    monkeypatch.setattr(grover, "COLLECT_EVERY", every)
    traced = outcomes(script)
    monkeypatch.setattr(grover, "run",
                        functools.partial(grover.run, trace=False))
    untraced = outcomes(script)
    assert len(untraced) == len(traced) == 44
    for (want, want_dump, want_created), (rec, dump, created) in zip(
            traced, untraced):
        assert rec.trace == (want.trace[-1],)
        assert rec.trace[-1].t == rec.iterations
        assert rec.measurements == want.measurements
        assert rec.peak_live_internal_nodes == want.peak_live_internal_nodes
        assert dump == want_dump
        assert created == want_created
        assert (dataclasses.replace(rec, trace=want.trace).comparable()
                == want.comparable())
