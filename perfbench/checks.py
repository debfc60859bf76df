"""Output checks with independent oracles, tolerant of rounding noise.

A check fails on a wrong answer, not on a different rounding of the right
one, so swapping the eigensolver does not count as failures:

* α is compared with ``numpy.linalg.eigvalsh`` within :data:`ALPHA_TOL`;
* a Fiedler vector must be unit-norm, orthogonal to the all-ones vector and
  an α-eigenvector (‖Lx − αx‖∞), never compared by sign or bytes;
* a Type II characteristic edge is compared as an unordered pair;
* β, γ and the diameter are exact integers (β from the rank of a random
  Tutte matrix modulo a prime, the diameter by breadth-first search);
* verify reports match the reports recorded in ``expected.json`` from
  the code the benchmark was introduced with, in ``passed``, ``checked`` and witness graph6, with
  ``min_gap`` within :data:`GAP_TOL`.
"""

from __future__ import annotations

import json
import random
from collections import deque

import numpy as np

ALPHA_TOL = 1e-9
VECTOR_TOL = 1e-8
GAP_TOL = 1e-9

#: Entries within this fraction of the largest count as zero, as in
#: algconn's Fiedler classification.
ZERO_REL_TOL = 1e-7

_PRIME = (1 << 61) - 1


def laplacian(n: int, edges) -> np.ndarray:
    L = np.zeros((n, n))
    for u, v in edges:
        L[u, v] = L[v, u] = -1.0
        L[u, u] += 1.0
        L[v, v] += 1.0
    return L


def matching_number(n: int, edges) -> int:
    """β as half the rank of the Tutte matrix with random entries mod a
    prime (Lovász); the rank never exceeds 2β and falls short with
    probability at most n / 2⁶¹."""
    rng = random.Random(f"tutte-{n}-{sorted(edges)}")
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        x = rng.randrange(1, _PRIME)
        rows[u][v] = x
        rows[v][u] = _PRIME - x
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], _PRIME - 2, _PRIME)
        for r in range(rank + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv % _PRIME
                rows[r] = [(a - f * b) % _PRIME for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank // 2


def diameter(n: int, edges) -> int:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        best = max(best, max(dist))
    return best


def fiedler_class(n: int, edges) -> dict:
    """Characteristic vertex (Type I) or edge (Type II) of a tree from a
    LAPACK Fiedler vector.  Both are the same for every Fiedler vector of a
    tree, so the choice of eigenvector does not matter."""
    _, vecs = np.linalg.eigh(laplacian(n, edges))
    x = vecs[:, 1]
    x = np.where(np.abs(x) <= ZERO_REL_TOL * np.max(np.abs(x)), 0.0, x)
    zeros = {v for v in range(n) if x[v] == 0.0}
    if zeros:
        boundary = {
            a for u, v in edges for a, b in ((u, v), (v, u)) if a in zeros and b not in zeros
        }
        return {"kind": "I", "vertex": min(boundary) if len(boundary) == 1 else None}
    signs = [frozenset((u, v)) for u, v in edges if x[u] * x[v] < 0]
    return {"kind": "II", "edge": signs[0] if len(signs) == 1 else None}


def oracle(n: int, edges, tree: bool) -> dict:
    """Reference values for one stream graph."""
    L = laplacian(n, edges)
    out = {
        "n": n,
        "m": len(edges),
        "L": L,
        "alpha": float(np.linalg.eigvalsh(L)[1]),
        "beta": matching_number(n, edges),
        "diameter": diameter(n, edges),
    }
    if tree:
        out["class"] = fiedler_class(n, edges)
    return out


def _alpha_ok(value, ref: dict) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref["alpha"]) <= ALPHA_TOL


def check_alpha(rec: dict, ref: dict) -> bool:
    x = np.asarray(rec.get("vector", []), dtype=float)
    if not _alpha_ok(rec.get("alpha"), ref) or x.shape != (ref["n"],):
        return False
    residual = ref["L"] @ x - rec["alpha"] * x
    return (
        abs(float(np.linalg.norm(x)) - 1.0) <= VECTOR_TOL
        and abs(float(x.sum())) <= VECTOR_TOL
        and float(np.max(np.abs(residual))) <= VECTOR_TOL
    )


def check_invariants(rec: dict, ref: dict) -> bool:
    return (
        rec.get("n") == ref["n"]
        and rec.get("m") == ref["m"]
        and rec.get("connected") is True
        and _alpha_ok(rec.get("alpha"), ref)
        and rec.get("beta") == ref["beta"]
        and rec.get("gamma") == ref["n"] - ref["beta"]
        and rec.get("diameter") == ref["diameter"]
    )


def check_classify(rec: dict, ref: dict) -> bool:
    want = ref["class"]
    if rec.get("kind") != want["kind"]:
        return False
    if want["kind"] == "I":
        return want["vertex"] is not None and rec.get("characteristic_vertex") == want["vertex"]
    edge = rec.get("characteristic_edge")
    return want["edge"] is not None and isinstance(edge, list) and frozenset(edge) == want["edge"]


CHECKERS = {"alpha": check_alpha, "invariants": check_invariants, "classify": check_classify}


def check_cli_output(subcommand: str, text: str, refs: list[dict]) -> int:
    """Failed records in one CLI run's JSON-lines stdout: a record that is
    wrong, unparsable or missing counts once, and so do surplus lines."""
    lines = text.splitlines()
    failed = max(0, len(lines) - len(refs))
    for i, ref in enumerate(refs):
        try:
            rec = json.loads(lines[i])
            ok = isinstance(rec, dict) and CHECKERS[subcommand](rec, ref)
        except (IndexError, ValueError, TypeError):
            ok = False
        failed += not ok
    return failed


def report_matches(report: dict | None, expected: dict) -> bool:
    """``passed``, ``checked`` and witness graph6 equal the recorded report;
    ``min_gap`` equal within :data:`GAP_TOL`."""
    if report is None:
        return False
    got_gap, want_gap = report.get("min_gap"), expected["min_gap"]
    if (got_gap is None) != (want_gap is None):
        return False
    if got_gap is not None and abs(got_gap - want_gap) > GAP_TOL:
        return False
    return (
        report.get("passed") == expected["passed"]
        and report.get("checked") == expected["checked"]
        and [w.get("graph6") for w in report.get("witnesses", [])]
        == [w["graph6"] for w in expected["witnesses"]]
    )


def lem22_ok(report: dict | None, count: int) -> bool:
    """A sampled relocation run: passed, exactly ``count`` instances checked
    and no witnesses.  ``skipped`` is a metric, not a check."""
    return (
        report is not None
        and report.get("passed") is True
        and report.get("checked") == count
        and report.get("witnesses") == []
    )
