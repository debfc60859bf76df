"""Golden outputs: every verify report and CLI run, byte for byte.

``golden_reports.jsonl`` holds one ``to_json()`` line per entry of
:data:`GOLDEN`, in order.  ``golden_failures.jsonl`` does the same for
:data:`FAILURES`: each target run with a tolerance or a predicate of
``algconn.verification`` patched so that the claim fails, which pins the
failure branches and the witnesses they emit.  ``golden_cli.jsonl`` holds
one line per entry of :data:`CLI_RUNS`: the argv, the stdin text, the exit
code, the sha256 and byte length of stdout, and stderr.  The stdin text is
stored in the file, so replaying a run does not depend on the enumerator.

A refactor must leave every line of all three files unchanged; a change that
moves an output on purpose re-records all three with

    PYTHONPATH=src python tests/test_golden.py

and names each changed line and its cause in CHANGES.md.
"""

import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from algconn import verification, verify
from algconn.cli import main
from algconn.enumeration import all_connected_graphs, all_trees
from algconn.errors import ClassificationInconsistent
from algconn.graph import Graph, encode_graph6
from algconn.matching import matching_number
from algconn.spectral import classify_fiedler
from algconn.verification import TARGETS

GOLDEN_FILE = Path(__file__).with_name("golden_reports.jsonl")
FAILURES_FILE = Path(__file__).with_name("golden_failures.jsonl")
CLI_FILE = Path(__file__).with_name("golden_cli.jsonl")

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


# ---------------------------------------------------------------------------
# CLI runs
# ---------------------------------------------------------------------------


def _seeded_connected() -> list[Graph]:
    """Two random connected graphs of each order 12-18: a random spanning
    tree plus random extra edges, ``n`` and ``2n - 1`` edges in all."""
    rng = random.Random(2014)
    graphs = []
    for n in range(12, 19):
        for m in (n, 2 * n - 1):
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            while len(edges) < m:
                u, v = sorted(rng.sample(range(n), 2))
                edges.add((u, v))
            graphs.append(Graph(n, frozenset(edges)))
    return graphs


def _seeded_trees() -> list[Graph]:
    """One random recursive tree of each order 50-62 (order 62 is the last
    short-form graph6 order, and its code has 5 padding bits)."""
    rng = random.Random(2014)
    return [
        Graph(n, frozenset((rng.randrange(v), v) for v in range(1, n)))
        for n in range(50, 63)
    ]


#: Named stdin texts.  Building them needs the enumerator; replaying a
#: recorded run reads the text back from ``golden_cli.jsonl`` instead.
CLI_INPUTS = {
    "trees": lambda: [t for n in range(2, 10) for t in all_trees(n)],
    "connected": lambda: [g for n in range(2, 7) for g in all_connected_graphs(n)],
    "random": _seeded_connected,
    "big_trees": _seeded_trees,
    "order0": lambda: "?\n",
    "order1": lambda: "@\n",
    "order2": lambda: "A?\n",
    # 2K2 (disconnected: gamma but no diameter), K2 + K1 (isolated: no gamma)
    "disconnected": lambda: "C`\nB_\n",
    "edgelist": lambda: "7 6\n0 1\n1 2\n2 3\n1 4\n4 5\n4 6\n",
    "padding": lambda: "B~\n",
    "illegal": lambda: "Bw#\n",
    "empty": lambda: "",
}

_GRAPH6_INPUTS = ("trees", "connected", "random", "big_trees", "order0", "order1", "order2")

#: The subcommands that read graphs, each with every ``--output`` value.
_READERS = [
    (cmd, out)
    for cmd, outputs in (
        ("alpha", ("json", "csv")),
        ("invariants", ("json", "csv")),
        ("classify", ("json", "dot")),
    )
    for out in outputs
]

#: (argv, name of the stdin text) for every pinned CLI run.
CLI_RUNS = (
    [([cmd, "--output", out], name) for cmd, out in _READERS for name in _GRAPH6_INPUTS]
    + [
        ([cmd, "--format", "edgelist", "--output", out], "edgelist")
        for cmd, out in _READERS
    ]
    + [
        (["construct", *family, "--output", out], "empty")
        for family in (
            ["broom", "--k", "2", "--l", "3", "--d", "4"],
            ["balanced", "--n", "9", "--d", "4"],
            ["extremal", "--n", "10", "--beta", "3"],
        )
        for out in ("graph6", "json", "dot")
    ]
    + [
        (["enumerate", kind, "--n", n, *extra, "--output", out], "empty")
        for kind, n, extra in (
            ("trees", "9", []),
            ("trees", "9", ["--beta", "3"]),
            ("trees", "9", ["--gamma", "6"]),
            ("trees", "9", ["--gamma", "4"]),
            ("trees", "9", ["--beta", "5"]),
            ("connected", "6", []),
            ("connected", "6", ["--beta", "3"]),
            ("connected", "6", ["--gamma", "4"]),
        )
        for out in ("graph6", "json")
    ]
    + [
        (["verify", *args, "--output", out], "empty")
        for args in (
            ["thm31", "--n", "6"],
            ["lem23", "--n", "7", "--d", "3"],
            ["lem24"],
            ["lem24alt"],
            ["lem34"],
            ["lem25", "--n-min", "6", "--n-max", "8"],
            ["lem22", "--seed", "1", "--count", "30"],
            ["cor33", "--n", "5"],
        )
        for out in ("json", "csv")
    ]
    + [(["verify", "--help"], "empty")]
    + [
        (["bounds", "--n", n, "--beta", beta, "--output", out], "empty")
        for n, beta in (("9", "3"), ("6", "1"))
        for out in ("json", "csv")
    ]
    + [
        (["alpha"], "padding"),
        (["invariants"], "illegal"),
        (["alpha"], "empty"),
        (["enumerate", "trees", "--n", "5", "--beta", "2", "--gamma", "3"], "empty"),
        (["verify", "nosuch"], "empty"),
    ]
    + [(["invariants", "--output", out], "disconnected") for out in ("json", "csv")]
)


def _stdin_text(name: str) -> str:
    made = CLI_INPUTS[name]()
    return made if isinstance(made, str) else "".join(encode_graph6(g) + "\n" for g in made)


def _run_cli(argv: list[str], stdin: str) -> dict:
    """One ``cli.main`` call with ``stdin`` as standard input and an
    80-column terminal, recorded as one ``golden_cli.jsonl`` line."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        mock.patch.object(sys, "stdin", io.StringIO(stdin)),
        redirect_stdout(out),
        redirect_stderr(err),
    ):
        code = main(list(argv))
    stdout = out.getvalue().encode()
    return {
        "argv": list(argv),
        "stdin": stdin,
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_bytes": len(stdout),
        "stderr": err.getvalue(),
    }


def _recorded_cli_runs() -> list[dict]:
    return [json.loads(line) for line in CLI_FILE.read_text().splitlines()]


def test_cli_file_covers_every_run():
    assert [r["argv"] for r in _recorded_cli_runs()] == [argv for argv, _ in CLI_RUNS]


@pytest.mark.parametrize(
    "index", range(len(CLI_RUNS)), ids=["_".join([name, *argv]) for argv, name in CLI_RUNS]
)
def test_cli_run_matches_golden(index):
    expected = _recorded_cli_runs()[index]
    assert _run_cli(expected["argv"], expected["stdin"]) == expected


if __name__ == "__main__":
    GOLDEN_FILE.write_text(
        "".join(verify(t, **p).to_json() + "\n" for t, p in GOLDEN)
    )
    FAILURES_FILE.write_text(
        "".join(_failing_report(*e).to_json() + "\n" for e in FAILURES)
    )
    CLI_FILE.write_text(
        "".join(
            json.dumps(_run_cli(argv, _stdin_text(name))) + "\n"
            for argv, name in CLI_RUNS
        )
    )
