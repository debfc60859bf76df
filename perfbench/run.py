"""Outside-in benchmark of algconn: three workloads, each pass in fresh
processes, with outputs checked against independent oracles.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exhaustive|sampling|stream \\
        --seed N --seconds S --trace 0|1

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it describes the machine and the samples taken.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``items_per_s``, ``peak_rss_mb``), medians over as many passes as fit in
``--seconds``, with times scaled to the reference host of
``calibrate.py``.  With ``--trace 1`` one untraced and one traced pass give
the per-layer metrics.  ``BENCHMARK.json`` records why each workload exists
and ``README.md`` which layer metric should move which end-to-end metric.

Workloads:

* ``exhaustive`` - the ten enumeration-scanning verify targets at their
  acceptance orders in one cold process; enumeration does the work.  It has
  no random input and ignores ``--seed``.
* ``sampling`` - ``lem22`` seeded with ``--seed`` plus the five broom grids;
  thousands of small eigensolves.
* ``stream`` - a seeded graph6 file piped through ``algconn alpha``,
  ``invariants`` and ``classify`` processes; few large eigensolves and the
  2ⁿ matching DP.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import calibrate
from checks import check_cli_output, lem22_ok, oracle, report_matches
from inputs import encode_graph6, stream_inputs
from tracer import SPAN_NAMES, aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EXHAUSTIVE_TARGETS = [
    ["thm31", {"n": 9}],
    ["lem23", {"n": 9}],
    ["fiedler21", {"n": 9}],
    ["thm32", {"n": 7}],
    ["cor33", {"n": 7}],
    ["bound35", {"n": 7}],
    ["bound36", {"n": 7}],
    ["lem26", {"n": 7}],
    ["cor27", {"n": 7}],
    ["gallai", {"n": 7}],
]
GRID_TARGETS = [["lem24", {}], ["lem24alt", {}], ["lem25", {}], ["chain33", {}], ["lem34", {}]]
ALL_TARGETS = [t for t, _ in EXHAUSTIVE_TARGETS] + ["lem22"] + [t for t, _ in GRID_TARGETS]

#: Qualifying relocations per ``lem22`` run: ~6 900 draws.  Every draw costs
#: an eigensolve and the draw count follows the seed; at 300 it varied by
#: 5.5% (one standard deviation over ten seeds), which alone spread
#: ``wall_s`` past a third of its bound.
LEM22_COUNT = 600

#: ``(subcommand, input slice)`` per CLI process of a ``stream`` pass.
STREAM_RUNS = (
    ("alpha", "all"),
    ("invariants", "trees"),
    ("invariants", "nontrees"),
    ("classify", "trees"),
)
CLI_SUBCOMMANDS = ("alpha", "invariants", "classify")

#: Set-up probes before each pass and after the last.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every ``--trace 1`` metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["enumeration.graphs"] = "count"
    units["spectral.eigen_symmetric.work_n3"] = "count"
    units["spectral.eigen_symmetric.order_max"] = "count"
    units["matching.dp_states"] = "count"
    for target in ALL_TARGETS:
        units[f"verification.{target}.verdict_s"] = "s"
        units[f"verification.{target}.checked"] = "count"
        units[f"verification.{target}.skipped"] = "count"
    units["verification.lem22.accept_ratio"] = "ratio"
    units["verification.alpha_cache.hit_ratio"] = "ratio"
    units["verification.beta_cache.hit_ratio"] = "ratio"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.wall_s"] = "s"
        units[f"cli.{sub}.stdout_bytes"] = "bytes"
    units["cli.invariants.nontree_matching_share"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["fail_ratio"] = "ratio"
    return units


class Bench:
    """One benchmark run: its scratch directory, child environment, inputs
    and reference values."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self._serial = 0
        with open(HERE / "expected.json") as f:
            self.expected = json.load(f)
        if workload == "stream":
            self._make_stream_inputs()

    # -- processes ---------------------------------------------------------

    def _path(self, stem: str) -> Path:
        self._serial += 1
        return self.workdir / f"{self._serial:04d}-{stem}"

    def spawn(self, argv: list[str], stdin: Path | None = None, stdout: Path | None = None):
        """Run one child to completion, one at a time: ``(exit code, wall s
        from spawn to exit, peak RSS in MB from the child's own rusage)``."""
        err_path = self._path("stderr")
        with open(stdin or os.devnull, "rb") as fin, open(
            stdout or os.devnull, "wb"
        ) as fout, open(err_path, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=fin, stdout=fout, stderr=ferr
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(f"child {argv[1:]} exited {proc.returncode}:\n")
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def worker(
        self, spec: dict, stdin: Path | None = None, stdout: Path | None = None
    ) -> tuple[int, float, float, dict | None]:
        spec_path, result_path = self._path("spec.json"), self._path("result.json")
        spec_path.write_text(json.dumps(spec))
        code, wall, rss = self.spawn(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            stdin=stdin,
            stdout=stdout,
        )
        result = json.loads(result_path.read_text()) if code == 0 else None
        return code, wall, rss, result

    def setup_seconds(self, probes: int) -> list[float]:
        """Seconds of fresh interpreters until ``import algconn`` and the CLI
        parser are ready, each scaled by samples of the ``setup`` mix taken
        just before and just after it."""
        argv = [sys.executable, "-c", "import algconn.cli as c; c._build_parser()"]
        times = []
        before = calibrate.samples("setup")
        for _ in range(probes):
            code, wall, _ = self.spawn(argv)
            if code != 0:
                raise RuntimeError("algconn does not import")
            after = calibrate.samples("setup")
            times.append(calibrate.scaled(wall, before + after))
            before = after
        return times

    # -- stream inputs -----------------------------------------------------

    def _make_stream_inputs(self) -> None:
        trees, nontrees = stream_inputs(self.seed)
        tree_refs = [oracle(n, e, tree=True) for n, e in trees]
        nontree_refs = [oracle(n, e, tree=False) for n, e in nontrees]
        self.refs = {
            "trees": tree_refs,
            "nontrees": nontree_refs,
            "all": tree_refs + nontree_refs,
        }
        lines = {
            "trees": [encode_graph6(n, e) for n, e in trees],
            "nontrees": [encode_graph6(n, e) for n, e in nontrees],
        }
        lines["all"] = lines["trees"] + lines["nontrees"]
        self.inputs = {}
        for name, text in lines.items():
            path = self.workdir / f"{name}.g6"
            path.write_text("".join(line + "\n" for line in text))
            self.inputs[name] = path

    # -- passes ------------------------------------------------------------

    def run_pass(self, trace: bool) -> dict:
        if self.workload == "stream":
            return self._stream_pass(trace)
        if self.workload == "exhaustive":
            targets = EXHAUSTIVE_TARGETS
        else:
            targets = [["lem22", {"seed": self.seed, "count": LEM22_COUNT}]] + GRID_TARGETS
        return self._targets_pass(targets, trace)

    def _targets_pass(self, targets: list, trace: bool) -> dict:
        mix = None if trace else self.workload
        code, wall, rss, result = self.worker(
            {"mode": "targets", "targets": targets, "trace": trace, "calibrate": mix}
        )
        out = {"attempted": len(targets), "failed": len(targets), "rss_mb": rss}
        if result is None:
            out.update(wall_s=wall, scaled_s=wall, items=0)
            return out
        failed = items = 0
        for entry in result["reports"]:
            report = entry["report"]
            if entry["error"]:
                sys.stderr.write(f"{entry['target']} raised:\n{entry['error']}")
            if entry["target"] == "lem22":
                ok = lem22_ok(report, LEM22_COUNT)
            else:
                ok = report_matches(report, self.expected[entry["target"]])
            failed += not ok
            if report is not None:
                items += report["checked"] + report["skipped"]
        out.update(
            failed=failed,
            wall_s=result["wall_s"],
            scaled_s=calibrate.scaled(result["wall_s"], result["samples"]) if mix else 0.0,
            items=items,
            result=result,
        )
        return out

    def _stream_pass(self, trace: bool) -> dict:
        out = {"attempted": 0, "failed": 0, "wall_s": 0.0, "scaled_s": 0.0, "items": 0}
        out["rss_mb"] = 0.0
        out["cli"] = {sub: {"wall_s": 0.0, "stdout_bytes": 0} for sub in CLI_SUBCOMMANDS}
        out["children"] = []
        mix = None if trace else self.workload
        before = calibrate.samples(mix) if mix else []
        for sub, part in STREAM_RUNS:
            stdout = self._path(f"{sub}-{part}.out")
            spec = {"mode": "cli", "argv": [sub, "-"], "trace": trace, "calibrate": mix}
            code, wall, rss, result = self.worker(spec, stdin=self.inputs[part], stdout=stdout)
            after = calibrate.samples(mix) if mix else []
            samples = before + after
            if result is not None:
                code = result["exit"]
                wall -= result["spent_s"]
                samples += result["samples"]
            before = after
            text = stdout.read_text() if stdout.exists() else ""
            refs = self.refs[part]
            out["attempted"] += len(refs) + 1
            out["failed"] += (code != 0) + check_cli_output(sub, text, refs)
            out["items"] += len(refs)
            out["wall_s"] += wall
            out["scaled_s"] += calibrate.scaled(wall, samples) if mix else 0.0
            out["rss_mb"] = max(out["rss_mb"], rss)
            out["cli"][sub]["wall_s"] += wall
            out["cli"][sub]["stdout_bytes"] += len(text.encode())
            out["children"].append({"run": (sub, part), "wall_s": wall, "result": result})
        return out


def _end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict, list[dict]]:
    """Passes until ``seconds`` would run out.  Set-up probes run before
    every pass and after the last, so both medians sample the same stretch
    of a machine whose speed drifts over minutes.  Every time is scaled to
    the reference host of ``calibrate.py``."""
    bench.setup_seconds(1)  # writes the bytecode caches
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        setup += bench.setup_seconds(SETUP_PROBES)
        passes.append(bench.run_pass(trace=False))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setup += bench.setup_seconds(SETUP_PROBES)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["scaled_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["scaled_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    samples = {
        "setup_s": setup,
        "wall_s": [p["scaled_s"] for p in passes],
        "unscaled_wall_s": [p["wall_s"] for p in passes],
        "slowness": [p["wall_s"] / p["scaled_s"] for p in passes],
        "items": [p["items"] for p in passes],
    }
    return metrics, samples, passes


def _trace_metrics(bench: Bench, plain: dict, traced: dict) -> dict:
    """Per-layer metrics from one untraced and one traced pass: spans and
    counts come from the traced pass, user-visible times from the untraced."""
    units = per_layer_units()
    m = {name: 0 for name in units}
    if bench.workload == "stream":
        children = [c for c in traced["children"] if c["result"]]
        span_lists = [c["result"]["spans"] for c in children]
        counts_list = [c["result"]["counts"] for c in children]
        for c in children:
            if c["run"] == ("invariants", "nontrees"):
                rows = aggregate([c["result"]["spans"]])
                in_matching = sum(r["self_s"] for k, r in rows.items() if k.startswith("matching."))
                m["cli.invariants.nontree_matching_share"] = in_matching / c["wall_s"]
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.{sub}.wall_s"] = plain["cli"][sub]["wall_s"]
            m[f"cli.{sub}.stdout_bytes"] = plain["cli"][sub]["stdout_bytes"]
    else:
        span_lists = [traced["result"]["spans"]] if "result" in traced else []
        counts_list = [traced["result"]["counts"]] if "result" in traced else []
        if "result" in plain:
            for entry in plain["result"]["reports"]:
                target = entry["target"]
                m[f"verification.{target}.verdict_s"] = entry["verdict_s"]
                if entry["report"] is not None:
                    m[f"verification.{target}.checked"] = entry["report"]["checked"]
                    m[f"verification.{target}.skipped"] = entry["report"]["skipped"]
            for cache in ("alpha", "beta"):
                info = plain["result"]["cache"][cache]
                lookups = info["hits"] + info["misses"]
                m[f"verification.{cache}_cache.hit_ratio"] = info["hits"] / lookups if lookups else 0
        draws = m["verification.lem22.checked"] + m["verification.lem22.skipped"]
        if draws:
            m["verification.lem22.accept_ratio"] = m["verification.lem22.checked"] / draws
    for name, row in aggregate(span_lists).items():
        for key, value in row.items():
            m[f"{name}.{key}"] = value
    for counts in counts_list:
        for key, value in counts.items():
            m[key] = max(m[key], value) if key.endswith("order_max") else m[key] + value
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    m["fail_ratio"] = (plain["failed"] + traced["failed"]) / (
        plain["attempted"] + traced["attempted"]
    )
    return {name: {"value": m[name], "unit": unit} for name, unit in units.items()}


def machine_block(env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "slowness": {mix: statistics.median(calibrate.samples(mix)) for mix in calibrate.MIX},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exhaustive", "sampling", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "algconn" / "__init__.py").is_file():
        print(f"error: no algconn sources under {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        info = {"workload": args.workload, "seed": args.seed, "machine": machine_block(bench.env)}
        if args.workload == "exhaustive":
            info["note"] = "exhaustive has no random input: --seed is ignored"
        if args.trace:
            plain = bench.run_pass(trace=False)
            traced = bench.run_pass(trace=True)
            runs = [plain, traced]
            metrics = _trace_metrics(bench, plain, traced)
        else:
            values, samples, runs = _end_to_end(bench, args.seconds)
            info["samples"] = samples
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(info))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
