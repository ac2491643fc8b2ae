"""The golden digest: every output group hashes as ``golden_digest.json`` records.

See ``tests/_digest.py`` for the groups and for how to regenerate the file
when a change moves outputs on purpose.
"""

from __future__ import annotations

import json

import numpy as np

from _digest import GOLDEN, build, moved, platform_name


def test_outputs_match_golden_digest():
    recorded = json.loads(GOLDEN.read_text())
    lines = moved(recorded["groups"], build())
    assert not lines, "\n".join(
        [
            f"outputs differ from {GOLDEN.name}",
            f"recorded on numpy {recorded['numpy']}, {recorded['platform']}",
            f"computed on numpy {np.__version__}, {platform_name()}",
            *lines,
            "A change that moves outputs on purpose runs `python tests/_digest.py`"
            " and lists these groups in CHANGES.md.",
        ]
    )
