"""Tests of the benchmark itself: the checks catch tampered outputs, seeded
inputs repeat, and the exact counts repeat across runs of one seed.

Run from the repository root: ``python3 -m pytest perfbench -q`` (~5 min;
the count test makes two traced runs of every workload).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import calibrate
import checks
import inputs
import run

sys.path.insert(0, str(run.SRC))
import algconn  # noqa: E402
import algconn.cli  # noqa: E402


def _cli_output(subcommand: str, graphs) -> str:
    text = "".join(inputs.encode_graph6(n, e) + "\n" for n, e in graphs)
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            assert algconn.cli.main([subcommand, "-"]) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def _tamper(text: str, key: str, change) -> str:
    lines = text.splitlines()
    rec = json.loads(lines[0])
    rec[key] = change(rec[key])
    lines[0] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.per_layer_units().items()
    )
    assert [w["name"] for w in spec["workloads"]] == ["exhaustive", "sampling", "stream"]


def test_scaling_weighs_host_states_by_time_and_drops_outliers():
    # half the time fast (slowness 1), half slow (slowness 2): the mean, not
    # a median that snaps to one state
    assert calibrate.scaled(3.0, [1.0, 2.0] * 10) == pytest.approx(2.0)
    # one preempted loop and one freak fast one are trimmed away
    assert calibrate.scaled(3.0, [1.0, 2.0] * 10 + [40.0, 0.01]) == pytest.approx(2.0)


def test_sampler_covers_the_pass_and_reports_its_own_time():
    sampler = calibrate.Sampler("stream")
    sampler.start()
    try:
        end = time.perf_counter() + 5 * calibrate.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(x > 0 for x in sampler.samples)
    assert 0 < sampler.spent < 5 * calibrate.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_stream_inputs_follow_the_seed():
    def encoded(seed):
        trees, nontrees = inputs.stream_inputs(seed)
        return [inputs.encode_graph6(n, e) for n, e in trees + nontrees]

    assert encoded(3) == encoded(3)
    assert encoded(3) != encoded(4)
    trees, nontrees = inputs.stream_inputs(3)
    for n, edges in trees + nontrees:
        g = algconn.parse_graph6(inputs.encode_graph6(n, edges))
        assert g.edges == frozenset((min(u, v), max(u, v)) for u, v in edges)
        assert algconn.is_connected(g)
    assert all(algconn.is_tree(algconn.Graph(n, frozenset(e))) for n, e in trees)
    assert not any(len(e) == n - 1 for n, e in nontrees)


def test_tampered_stream_outputs_are_failures():
    trees, nontrees = inputs.stream_inputs(0)
    graphs = trees[:2] + nontrees[:3]
    refs = [checks.oracle(n, e, tree=i < 2) for i, (n, e) in enumerate(graphs)]

    alpha = _cli_output("alpha", graphs)
    assert checks.check_cli_output("alpha", alpha, refs) == 0
    assert checks.check_cli_output("alpha", _tamper(alpha, "alpha", lambda a: a + 1e-6), refs) == 1
    flipped = _tamper(alpha, "vector", lambda x: [-v for v in x])
    assert checks.check_cli_output("alpha", flipped, refs) == 0  # sign is not compared
    assert checks.check_cli_output("alpha", "\n".join(alpha.splitlines()[1:]), refs) == len(refs)

    inv = _cli_output("invariants", graphs)
    assert checks.check_cli_output("invariants", inv, refs) == 0
    assert checks.check_cli_output("invariants", _tamper(inv, "beta", lambda b: b + 1), refs) == 1
    assert checks.check_cli_output("invariants", _tamper(inv, "diameter", lambda d: d - 1), refs) == 1

    cls = _cli_output("classify", graphs[:2])
    assert checks.check_cli_output("classify", cls, refs[:2]) == 0
    rec = json.loads(cls.splitlines()[0])
    if rec["kind"] == "II":
        reversed_edge = _tamper(cls, "characteristic_edge", lambda e: e[::-1])
        assert checks.check_cli_output("classify", reversed_edge, refs[:2]) == 0
        assert checks.check_cli_output("classify", _tamper(cls, "kind", lambda k: "I"), refs[:2]) == 1


def test_tampered_reports_are_failures():
    report = algconn.verify("lem22", seed=0, count=5).to_json_dict()
    assert checks.lem22_ok(report, 5)
    witness = {"graph6": "Bw", "alpha": 3.0, "beta": 1}
    assert not checks.lem22_ok({**report, "witnesses": [witness]}, 5)
    assert not checks.lem22_ok({**report, "checked": 4}, 5)
    assert not checks.lem22_ok(None, 5)

    with open(run.HERE / "expected.json") as f:
        expected = json.load(f)["lem25"]
    report = algconn.verify("lem25").to_json_dict()
    assert checks.report_matches(report, expected)
    assert checks.report_matches({**report, "min_gap": report["min_gap"] + 1e-12}, expected)
    assert not checks.report_matches({**report, "min_gap": report["min_gap"] + 1e-6}, expected)
    assert not checks.report_matches({**report, "passed": False}, expected)
    assert not checks.report_matches({**report, "witnesses": [witness]}, expected)


@pytest.mark.parametrize("workload", ["sampling", "stream"])
def test_two_seeds_give_different_inputs_that_pass(workload, tmp_path):
    passes = []
    for seed in (3, 4):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        result = run.Bench(workload, seed, workdir).run_pass(trace=False)
        assert result["failed"] == 0
        passes.append(result)
    if workload == "stream":
        assert (tmp_path / "3" / "all.g6").read_bytes() != (tmp_path / "4" / "all.g6").read_bytes()
    else:
        skipped = [p["result"]["reports"][0]["report"]["skipped"] for p in passes]
        assert skipped[0] != skipped[1]


def _is_count(name: str) -> bool:
    return name.endswith(
        (".calls", ".checked", ".skipped", ".stdout_bytes", "work_n3", "order_max", "dp_states")
    ) or name == "enumeration.graphs"


def _traced_metrics(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["exhaustive", "sampling", "stream"])
def test_counts_repeat_exactly(workload):
    first, second = _traced_metrics(workload), _traced_metrics(workload)
    counts = [name for name in first if _is_count(name)]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert any(first[k] for k in counts)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
