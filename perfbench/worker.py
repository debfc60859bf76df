"""One pass of a benchmark workload in a fresh interpreter.

Usage: ``python3 worker.py SPEC.json RESULT.json``

``SPEC.json`` holds ``{"mode": "targets", "targets": [[name, params], ...],
"trace": bool, "calibrate": mix | null}`` to run ``algconn.verify`` targets in
order, or ``{"mode": "cli", "argv": [...], "trace": bool, "calibrate":
mix | null}`` to run ``algconn.cli.main(argv)`` on the process's own stdin and
stdout (the wrappers only exist inside this process, so a traced CLI run
cannot be a plain ``-m algconn.cli``).  The run writes its reports,
timings, reference-loop samples and, when traced, its spans to
``RESULT.json``.  In ``targets`` mode ``algconn`` is imported before the
clock starts: import time is the benchmark's ``setup_s``, not part of a
pass.

With ``calibrate`` set to one of ``calibrate.MIX``, the reference loops
of that mix are timed every ``INTERVAL_S`` seconds from a signal handler;
the seconds the handler takes are left out of ``wall_s`` and ``verdict_s``
and reported as ``spent_s``.
A traced run never calibrates, so no span contains a reference loop.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

from calibrate import Sampler
from tracer import Tracer


def _run_targets(spec: dict, result: dict, sampler: Sampler) -> None:
    import algconn
    from algconn import verification

    reports = []
    start, spent = time.perf_counter(), sampler.spent
    for name, params in spec["targets"]:
        t0, s0 = time.perf_counter(), sampler.spent
        try:
            report = algconn.verify(name, **params).to_json_dict()
            error = None
        except Exception:  # reported as a failed operation
            report, error = None, traceback.format_exc()
        reports.append(
            {
                "target": name,
                "verdict_s": time.perf_counter() - t0 - (sampler.spent - s0),
                "report": report,
                "error": error,
            }
        )
    result["wall_s"] = time.perf_counter() - start - (sampler.spent - spent)
    result["reports"] = reports
    result["cache"] = {
        "alpha": verification._alpha_of.cache_info()._asdict(),
        "beta": verification._beta_of.cache_info()._asdict(),
    }


def _run_cli(spec: dict, result: dict) -> None:
    import algconn.cli

    try:
        result["exit"] = algconn.cli.main(spec["argv"])
    finally:
        sys.stdout.flush()


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    sampler = Sampler(spec["calibrate"])
    if spec["calibrate"]:
        sampler.start()
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    result: dict = {}
    try:
        if spec["mode"] == "targets":
            _run_targets(spec, result, sampler)
        else:
            _run_cli(spec, result)
    finally:
        sampler.stop()
    result["samples"] = sampler.samples
    result["spent_s"] = sampler.spent
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
