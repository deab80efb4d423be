"""Result digests of scripts/run_digest.py, pinned.

The script hashes every ``comparable()`` record and every manager's
``(nodes_created, size)`` over a fixed set of 44 Grover runs.  A change
to either digest means results or node numbering moved; such a change
must be deliberate, and this test then states the new digests.
"""

import importlib.util
from pathlib import Path

from quiddsim import grover

RUN_DIGEST = Path(__file__).resolve().parents[1] / "scripts" / "run_digest.py"

RECORDS = "1eef2d0ed7ef73e2a70bdb1f0dff2abc966a2348d302638721c1f905efc8972e"
NODES = "65c3da11f3e55c8866bcc6953cb9d2e1a8f074438bed73da4a04f68d0722a205"


def test_run_digest_at_the_default_collection_setting():
    spec = importlib.util.spec_from_file_location("run_digest", RUN_DIGEST)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert grover.COLLECT_EVERY == 4096
    assert script.digests() == (44, RECORDS, NODES)
