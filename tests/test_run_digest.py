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

import importlib.util
from pathlib import Path

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


def test_run_digest_at_the_default_collection_setting():
    spec = importlib.util.spec_from_file_location("run_digest", RUN_DIGEST)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert grover.COLLECT_EVERY == 4096
    assert script.digests() == (44, RECORDS, NODES, CREATED)
