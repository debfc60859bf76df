"""Golden reports: every verify target at its acceptance parameters, byte for byte.

``golden_reports.jsonl`` holds one ``to_json()`` line per entry of
:data:`GOLDEN`, in order.  A refactor must leave every line unchanged; a
change that moves an output on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py

and names each changed line and its cause in CHANGES.md.
"""

from pathlib import Path

import pytest

from algconn import verify
from algconn.verification import TARGETS

GOLDEN_FILE = Path(__file__).with_name("golden_reports.jsonl")

GOLDEN = (
    [("thm31", {"n": n}) for n in range(4, 10)]
    + [(t, {"n": n}) for n in range(3, 8) for t in ("thm32", "cor33")]
    + [("lem23", {"n": n}) for n in range(4, 10)]
    + [(t, {}) for t in ("lem24", "lem24alt", "lem25", "chain33", "lem34")]
    + [(t, {"n": n}) for n in range(3, 8) for t in ("bound35", "bound36")]
    + [(t, {"n": n}) for n in range(3, 8) for t in ("lem26", "cor27", "gallai")]
    + [("fiedler21", {"n": n}) for n in range(2, 10)]
    + [("lem22", {"seed": 0, "count": 1000})]
)


def _id(entry):
    target, params = entry
    return "-".join([target, *(f"{k}={v}" for k, v in params.items())])


def test_golden_file_covers_every_target():
    lines = GOLDEN_FILE.read_text().splitlines()
    assert len(lines) == len(GOLDEN)
    assert {t for t, _ in GOLDEN} == set(TARGETS)


@pytest.mark.parametrize(
    "index, entry", list(enumerate(GOLDEN)), ids=[_id(e) for e in GOLDEN]
)
def test_report_matches_golden(index, entry):
    target, params = entry
    expected = GOLDEN_FILE.read_text().splitlines()[index]
    assert verify(target, **params).to_json() == expected


if __name__ == "__main__":
    GOLDEN_FILE.write_text(
        "".join(verify(t, **p).to_json() + "\n" for t, p in GOLDEN)
    )
