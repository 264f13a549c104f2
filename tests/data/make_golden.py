#!/usr/bin/env python3
"""Regenerate the star golden snapshots (see test_golden_single_host.py):
golden_single_host.json and golden_star_two_receivers.json.

Only run this after an *intentional* change to simulation behaviour —
the whole point of the golden files is that accidental changes fail CI.

    PYTHONPATH=src python tests/data/make_golden.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden_single_host import (  # noqa: E402
    GOLDEN,
    GOLDEN_TWO_RECEIVERS,
    golden_run,
)

if __name__ == "__main__":
    for path, receivers in ((GOLDEN, 1), (GOLDEN_TWO_RECEIVERS, 2)):
        path.write_text(json.dumps(golden_run(receivers), indent=1,
                                   sort_keys=True) + "\n")
        print(f"wrote {path}")
