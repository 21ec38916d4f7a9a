"""The explore document is pinned byte for byte.

``python -m repro.explore run --schedules 4 --seed 0x5EED --json`` prints
every strict *and* engine-only digest of 8 workloads x 4 engine variants
x (baseline + 4 schedules).  Every PR since the ready sets has compared
that output with its parent's by hand; this is the same gate as a test.

A PR that *means* to move an engine-only digest regenerates
``golden_5eed.sha256`` and says why in CHANGES.md.  To find the path
that moved, diff the documents themselves::

    PYTHONPATH=src python -m repro.explore run --schedules 4 --seed 0x5EED --json > new.json
    (same command on the parent commit)                                      > old.json
    diff old.json new.json
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.explore.__main__ import main

GOLDEN = Path(__file__).with_name("golden_5eed.sha256")


def test_explore_document_is_byte_identical_to_the_golden(capsys):
    assert main(["run", "--schedules", "4", "--seed", "0x5EED", "--json"]) == 0
    document = capsys.readouterr().out
    assert hashlib.sha256(document.encode()).hexdigest() == GOLDEN.read_text().strip(), (
        f"the explore document moved ({len(document)} bytes); see this "
        f"module's docstring for how to find the digest path that did"
    )
