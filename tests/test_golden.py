"""Golden reports: every verify target at its acceptance parameters, byte for byte.

``golden_reports.jsonl`` holds one ``to_json()`` line per entry of
:data:`GOLDEN`, in order.  ``golden_failures.jsonl`` does the same for
:data:`FAILURES`: each target run with a tolerance or a predicate of
``algconn.verification`` patched so that the claim fails, which pins the
failure branches and the witnesses they emit.  A refactor must leave every
line of both files unchanged; a change that moves an output on purpose
re-records them with

    PYTHONPATH=src python tests/test_golden.py

and names each changed line and its cause in CHANGES.md.
"""

from pathlib import Path
from unittest import mock

import pytest

from algconn import verification, verify
from algconn.errors import ClassificationInconsistent
from algconn.matching import matching_number
from algconn.spectral import classify_fiedler
from algconn.verification import TARGETS

GOLDEN_FILE = Path(__file__).with_name("golden_reports.jsonl")
FAILURES_FILE = Path(__file__).with_name("golden_failures.jsonl")

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


def _classify_all_but_stars(t, data):
    if max(t.degree_sequence()) < t.n - 1:
        raise ClassificationInconsistent("forced")
    return classify_fiedler(t, data)


#: Names patched in ``algconn.verification`` for each failure group.
PATCHES = {
    "strict": {"GAP_TOL": 10.0},
    "slack": {"GAP_TOL": -10.0},
    "builders": {
        "spanning_tree_preserving_matching": lambda g: g,
        "spanning_unicyclic_preserving_matching": lambda g: g,
    },
    "cover": {"edge_cover_number": lambda g: g.n},
    "classify": {"classify_fiedler": _classify_all_but_stars},
    "not_isomorphic": {"is_isomorphic": lambda a, b: False},
    "empty_class": {"with_cover": lambda stream, gamma: []},
    "beta_mismatch": {
        "_beta_of": lambda g: 0 if g.n == 7 else matching_number(g)
    },
    "no_hypothesis": {"_qualifying_fiedler": lambda *args: None},
}

FAILURES = (
    [("strict", "thm31", {"n": 7})]
    + [("strict", t, {"n": 5}) for t in ("thm32", "cor33")]
    + [("strict", "lem23", {"n": 7})]
    + [("strict", t, {}) for t in ("lem24", "lem24alt")]
    + [("strict", "lem25", {"n_min": 6, "n_max": 8})]
    + [("strict", "chain33", {"n_min": 5, "n_max": 7})]
    + [("slack", t, {"n": 5}) for t in ("bound35", "bound36")]
    + [("slack", "lem34", {"k_max": 2, "l_max": 2, "dm1_max": 3})]
    + [("slack", "lem22", {"seed": 0, "count": 20})]
    + [("builders", t, {"n": 5}) for t in ("lem26", "cor27")]
    + [("cover", "gallai", {"n": 5})]
    + [("classify", "fiedler21", {"n": 5})]
    + [("not_isomorphic", t, {"n": 6}) for t in ("thm31", "lem23")]
    + [("empty_class", "cor33", {"n": 5})]
    + [("beta_mismatch", "lem25", {"n_min": 6, "n_max": 8})]
    + [("no_hypothesis", "lem22", {"seed": 0, "count": 5})]
)


def _failing_report(patch, target, params):
    with mock.patch.multiple(verification, **PATCHES[patch]):
        return verify(target, **params)


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


def test_failure_file_fails_every_target():
    lines = FAILURES_FILE.read_text().splitlines()
    assert len(lines) == len(FAILURES)
    assert {t for _, t, _ in FAILURES} == set(TARGETS)


@pytest.mark.parametrize(
    "index, entry",
    list(enumerate(FAILURES)),
    ids=[f"{p}-{_id(e)}" for p, *e in FAILURES],
)
def test_failing_report_matches_golden(index, entry):
    expected = FAILURES_FILE.read_text().splitlines()[index]
    report = _failing_report(*entry)
    assert report.passed is False
    assert report.to_json() == expected


if __name__ == "__main__":
    GOLDEN_FILE.write_text(
        "".join(verify(t, **p).to_json() + "\n" for t, p in GOLDEN)
    )
    FAILURES_FILE.write_text(
        "".join(_failing_report(*e).to_json() + "\n" for e in FAILURES)
    )
