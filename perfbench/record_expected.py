"""Record the verify reports that the ``exhaustive`` and ``sampling`` checks
compare against, from the code under ``src/``.

Usage (from the repository root): ``python3 perfbench/record_expected.py``.
Re-record only when a report is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import EXHAUSTIVE_TARGETS, GRID_TARGETS, HERE, SRC

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import algconn

    expected = {
        name: algconn.verify(name, **params).to_json_dict()
        for name, params in EXHAUSTIVE_TARGETS + GRID_TARGETS
    }
    Path(HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
