"""Closed-form spectral lower bounds and the verification harness.

Every claim the library is built around — extremal-minimizer uniqueness,
broom inequality chains, matching/cover bounds, relocation monotonicity,
classification totality — is checkable here by an exhaustive scan, a grid
evaluation, or seeded sampling.  Each check returns a
:class:`VerificationReport` that serializes to JSON (and a CSV summary row)
with enough data to audit the margin behind any strict inequality.

Tolerances: a strict claim "A < B" passes iff ``B - A > GAP_TOL``; a
uniqueness claim passes iff the runner-up exceeds the minimizer by more than
``GAP_TOL``.  Eigenvalue residuals are orders of magnitude below the 1e-9
gap tolerance at these graph orders, so margins are trustworthy.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .enumeration import all_connected_graphs, all_trees, with_cover
from .errors import (
    ClassificationInconsistent,
    Infeasible,
    TooSmall,
    UnknownTarget,
)
from .families import (
    BroomParams,
    balanced_broom,
    branch_vertex_map,
    double_broom,
    extremal_tree,
    relocate_branch,
)
from .graph import Graph, diameter, encode_graph6, is_connected, is_isomorphic
from .matching import (
    _bitmask_matching,
    edge_cover_number,
    matching_number,
    spanning_tree_preserving_matching,
    spanning_unicyclic_preserving_matching,
)
from .spectral import (
    EIGENVALUE_MATCH_TOL,
    Spectrum,
    algebraic_connectivity,
    classify_fiedler,
    eigen_symmetric,
    fiedler_vector,
    laplacian,
)

#: Margin a strict inequality / uniqueness gap must clear.
GAP_TOL = 1e-9

#: |alpha(G*) - alpha(G)| below this counts as the equality case of the
#: relocation claim and triggers the equality-condition checks.
EQUALITY_WINDOW = 1e-11

#: Tolerance on the equality-case structural conditions (zero entries,
#: neighbor sum, eigen-residual of the transplanted vector).
EQUALITY_COND_TOL = 1e-5

#: Slack allowed when gating the relocation hypothesis (entries that are
#: numerically zero but stored as tiny negatives still qualify).
HYPOTHESIS_TOL = 1e-9


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def bound_matching(n: int, beta: int) -> float:
    """Lower bound on α over connected graphs of order ``n`` with matching
    number ``beta``: 8 / (−4β² + 4β(n+2) − 2n + 5).

    Raises:
        Infeasible: unless ``n >= 2`` and ``1 <= beta <= n // 2``.
    """
    if n < 2 or beta < 1 or 2 * beta > n:
        raise Infeasible(f"no connected graph of order {n} has matching number {beta}")
    return 8.0 / float(-4 * beta * beta + 4 * beta * (n + 2) - 2 * n + 5)


def bound_cover(n: int, gamma: int) -> float:
    """Lower bound on α over connected graphs of order ``n`` with edge cover
    number ``gamma``: 8 / (−4γ² + 4γ(n−2) + 6n + 5).

    Identical (exactly, not just within rounding) to
    ``bound_matching(n, n - gamma)`` — both denominators are computed in
    integer arithmetic and agree under the substitution.

    Raises:
        Infeasible: unless ``ceil(n/2) <= gamma <= n - 1``.
    """
    if n < 2 or 2 * gamma < n or gamma > n - 1:
        raise Infeasible(f"no connected graph of order {n} has edge cover number {gamma}")
    return 8.0 / float(-4 * gamma * gamma + 4 * gamma * (n - 2) + 6 * n + 5)


def kirkland_bound(k: int, l: int, dm1: int) -> float:
    """Lower bound on α(T(k, l, dm1)), the double broom whose internal path
    has ``dm1`` vertices: (nd/4 − (2n + d² − 4d − 5)/8)⁻¹ with
    n = k + l + dm1 and d = dm1 + 1.

    Raises:
        Infeasible: unless ``k >= 1``, ``l >= 1`` and ``dm1 >= 2``.
    """
    if k < 1 or l < 1 or dm1 < 2:
        raise Infeasible("bound needs k >= 1, l >= 1 and an internal path of >= 2 vertices")
    n = k + l + dm1
    d = dm1 + 1
    return 8.0 / float(2 * n * d - 2 * n - d * d + 4 * d + 5)


def path_alpha(n: int) -> float:
    """Closed-form algebraic connectivity of the path Pₙ: 2(1 − cos(π/n)).

    Raises:
        TooSmall: for ``n < 2``.
    """
    if n < 2:
        raise TooSmall("paths below order 2 have no algebraic connectivity")
    return 2.0 * (1.0 - math.cos(math.pi / n))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _sig12_str(x: float) -> str:
    """Format with 12 significant digits (report/CLI float convention)."""
    return f"{float(x):.12g}"


def _sig12(x: float) -> float:
    """Round to 12 significant digits (report/CLI float convention)."""
    return float(_sig12_str(x))


@dataclass(frozen=True)
class WitnessRecord:
    """One graph appearing in a report: its graph6 code, α, and β."""

    graph6: str
    alpha: float | None
    beta: int | None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification target.

    ``checked`` counts claim instances actually tested; ``skipped`` counts
    instances ruled out before the claim applied (hypothesis not met, no
    cycle to work with, ...).  ``min_gap`` is the smallest margin supporting
    a strict-inequality or uniqueness claim, or ``None`` when the target has
    no such margin.
    """

    target: str
    params: dict
    passed: bool
    checked: int
    skipped: int
    min_gap: float | None
    witnesses: tuple[WitnessRecord, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "params": self.params,
            "passed": self.passed,
            "checked": self.checked,
            "skipped": self.skipped,
            "min_gap": None if self.min_gap is None else _sig12(self.min_gap),
            "witnesses": [
                {
                    "graph6": w.graph6,
                    "alpha": None if w.alpha is None else _sig12(w.alpha),
                    "beta": w.beta,
                }
                for w in self.witnesses
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        """Header plus one summary row."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["target", "params", "passed", "checked", "skipped", "min_gap", "witnesses"]
        )
        writer.writerow(
            [
                self.target,
                json.dumps(self.params, separators=(",", ":")),
                self.passed,
                self.checked,
                self.skipped,
                "" if self.min_gap is None else _sig12_str(self.min_gap),
                ";".join(w.graph6 for w in self.witnesses),
            ]
        )
        return buf.getvalue()


@lru_cache(maxsize=None)
def _alpha_of(g: Graph) -> float:
    return algebraic_connectivity(g)


@lru_cache(maxsize=None)
def _beta_of(g: Graph) -> int:
    return matching_number(g)


def _witness(g: Graph, alpha: float | None = None) -> WitnessRecord:
    return WitnessRecord(encode_graph6(g), alpha if alpha is not None else _alpha_of(g), _beta_of(g))


# ---------------------------------------------------------------------------
# unique-minimizer scans
# ---------------------------------------------------------------------------


def _scan_unique_minimizers(
    classes: Iterable[tuple[list[Graph], Graph]],
) -> tuple[bool, int, float | None, list[WitnessRecord]]:
    """For each (members, expected) class, check the α-minimizer is unique
    (runner-up gap > GAP_TOL) and isomorphic to ``expected``."""
    passed = True
    checked = 0
    min_gap: float | None = None
    witnesses: list[WitnessRecord] = []
    for members, expected in classes:
        checked += len(members)
        if not members:
            passed = False
            continue
        alphas = [_alpha_of(g) for g in members]
        order = sorted(range(len(members)), key=lambda i: (alphas[i], i))
        best = members[order[0]]
        witnesses.append(_witness(best, alphas[order[0]]))
        if not is_isomorphic(best, expected):
            passed = False
        if len(order) > 1:
            gap = alphas[order[1]] - alphas[order[0]]
            min_gap = gap if min_gap is None else min(min_gap, gap)
            if gap <= GAP_TOL:
                passed = False
                witnesses.append(_witness(members[order[1]], alphas[order[1]]))
    return passed, checked, min_gap, witnesses


def _verify_thm31(n: int) -> VerificationReport:
    """Among trees of order n with matching number β, the unique α-minimizer
    is the balanced broom T_{2β−1} — for every feasible β."""
    if n < 2:
        raise TooSmall("no tree class below order 2")
    trees = list(all_trees(n))
    classes = [
        ([t for t in trees if _beta_of(t) == beta], extremal_tree(n, beta))
        for beta in range(1, n // 2 + 1)
    ]
    passed, checked, min_gap, witnesses = _scan_unique_minimizers(classes)
    return VerificationReport(
        "thm31", {"n": n}, passed, checked, 0, min_gap, tuple(witnesses)
    )


def _verify_thm32(n: int) -> VerificationReport:
    """Same uniqueness claim over all connected graphs of order n."""
    if n < 2:
        raise TooSmall("no connected-graph class below order 2")
    graphs = list(all_connected_graphs(n))
    classes = [
        ([g for g in graphs if _beta_of(g) == beta], extremal_tree(n, beta))
        for beta in range(1, n // 2 + 1)
    ]
    passed, checked, min_gap, witnesses = _scan_unique_minimizers(classes)
    return VerificationReport(
        "thm32", {"n": n}, passed, checked, 0, min_gap, tuple(witnesses)
    )


def _verify_cor33(n: int) -> VerificationReport:
    """Edge-cover flavor of the same claim: among connected graphs of order n
    with edge cover number γ, the unique α-minimizer is T_{2(n−γ)−1}."""
    if n < 2:
        raise TooSmall("no connected-graph class below order 2")
    stream = all_connected_graphs(n)
    classes = []
    for beta in range(1, n // 2 + 1):
        gamma = n - beta
        members = list(with_cover(stream, gamma))
        classes.append((members, extremal_tree(n, n - gamma)))
    passed, checked, min_gap, witnesses = _scan_unique_minimizers(classes)
    return VerificationReport(
        "cor33", {"n": n}, passed, checked, 0, min_gap, tuple(witnesses)
    )


def _verify_lem23(n: int, d: int | None = None) -> VerificationReport:
    """Among trees of order n with diameter d+1, the unique α-minimizer is
    the balanced broom T_d.  Scans every feasible d unless one is given."""
    if n < 3:
        raise TooSmall("diameter classes need order >= 3")
    if d is not None and not 1 <= d <= n - 2:
        raise Infeasible(f"order {n} admits no diameter-{d + 1} tree class")
    ds = [d] if d is not None else list(range(1, n - 1))
    trees = list(all_trees(n))
    classes = [
        ([t for t in trees if diameter(t) == dv + 1], balanced_broom(n, dv))
        for dv in ds
    ]
    passed, checked, min_gap, witnesses = _scan_unique_minimizers(classes)
    return VerificationReport(
        "lem23", {"n": n, "d": d}, passed, checked, 0, min_gap, tuple(witnesses)
    )


# ---------------------------------------------------------------------------
# broom inequality grids
# ---------------------------------------------------------------------------


def _broom_alpha(k: int, l: int, d: int) -> float:
    return _alpha_of(double_broom(BroomParams(k=k, l=l, d=d)))


def _grid_margins(
    pairs: Iterable[tuple[tuple[int, int, int], tuple[int, int, int]]],
) -> tuple[bool, int, float | None, list[WitnessRecord]]:
    """Check α(first) > α(second) for every broom-parameter pair."""
    passed = True
    checked = 0
    min_gap: float | None = None
    witnesses: list[WitnessRecord] = []
    for big, small in pairs:
        checked += 1
        a = _broom_alpha(*big)
        b = _broom_alpha(*small)
        margin = a - b
        min_gap = margin if min_gap is None else min(min_gap, margin)
        if margin <= GAP_TOL:
            passed = False
            witnesses.append(_witness(double_broom(BroomParams(*big)), a))
            witnesses.append(_witness(double_broom(BroomParams(*small)), b))
    return passed, checked, min_gap, witnesses


_LEM24_GRID = {"k": [2, 5], "l": [0, 5], "d": [2, 7]}
_LEM24_MIRROR_GRID = {"k": [0, 5], "l": [2, 5], "d": [2, 7]}


def _verify_lem24() -> VerificationReport:
    """Strict broom inequalities that trade one end leaf for one more path
    vertex, keeping the order fixed: α(T(k,l,d)) > α(T(k−1,l,d+1)) for k ≥ 2,
    and the mirrored α(T(k,l,d)) > α(T(k,l−1,d+1)) for l ≥ 2."""

    def pairs():
        for k in range(2, 6):
            for l in range(0, 6):
                for dd in range(2, 8):
                    yield (k, l, dd), (k - 1, l, dd + 1)
        for l in range(2, 6):
            for k in range(0, 6):
                for dd in range(2, 8):
                    yield (k, l, dd), (k, l - 1, dd + 1)

    passed, checked, min_gap, witnesses = _grid_margins(pairs())
    params = {
        "part1_grid": _LEM24_GRID,
        "part2_grid": _LEM24_MIRROR_GRID,
        "part2_reading": "T(k,l-1,d+1)",
    }
    return VerificationReport(
        "lem24", params, passed, checked, 0, min_gap, tuple(witnesses)
    )


def _verify_lem24alt() -> VerificationReport:
    """The other textual reading of the second broom inequality —
    α(T(k,l,d)) > α(T(k,l+1,d+1)) for l ≥ 2, which grows the total order.
    Reported for the record; the library asserts only the order-preserving
    reading (see lem24)."""

    def pairs():
        for l in range(2, 6):
            for k in range(0, 6):
                for dd in range(2, 8):
                    yield (k, l, dd), (k, l + 1, dd + 1)

    passed, checked, min_gap, witnesses = _grid_margins(pairs())
    params = {"grid": _LEM24_MIRROR_GRID, "reading": "T(k,l+1,d+1)"}
    return VerificationReport(
        "lem24alt", params, passed, checked, 0, min_gap, tuple(witnesses)
    )


def _verify_lem25(n_min: int = 6, n_max: int = 12) -> VerificationReport:
    """α(T_{2β−2}) > α(T_{2β−1}) for 2 ≤ β ≤ ⌊(n−1)/2⌋ — the two diameter
    classes a matching-β tree can minimize over, with the larger diameter
    winning.  Also sanity-checks β(T_{2β−2}) = β(T_{2β−1}) = β."""
    if n_min < 2:
        raise TooSmall("broom orders start at 2")
    if n_max < n_min:
        raise Infeasible("empty order range")
    passed = True
    checked = 0
    min_gap: float | None = None
    witnesses: list[WitnessRecord] = []
    for n in range(n_min, n_max + 1):
        for beta in range(2, (n - 1) // 2 + 1):
            checked += 1
            shorter = balanced_broom(n, 2 * beta - 2)
            longer = balanced_broom(n, 2 * beta - 1)
            if _beta_of(shorter) != beta or _beta_of(longer) != beta:
                passed = False
                witnesses.extend([_witness(shorter), _witness(longer)])
                continue
            margin = _alpha_of(shorter) - _alpha_of(longer)
            min_gap = margin if min_gap is None else min(min_gap, margin)
            if margin <= GAP_TOL:
                passed = False
                witnesses.extend([_witness(shorter), _witness(longer)])
    return VerificationReport(
        "lem25",
        {"n_min": n_min, "n_max": n_max},
        passed,
        checked,
        0,
        min_gap,
        tuple(witnesses),
    )


def _verify_chain33(n_min: int = 5, n_max: int = 12) -> VerificationReport:
    """Monotone chain across matching numbers: α(T_{2β₁−1}) > α(T_{2β₂−1})
    whenever β₁ < β₂ and both brooms of order n exist (n ≥ 2β₂ + 1)."""
    if n_min < 2:
        raise TooSmall("broom orders start at 2")
    if n_max < n_min:
        raise Infeasible("empty order range")
    passed = True
    checked = 0
    min_gap: float | None = None
    witnesses: list[WitnessRecord] = []
    for n in range(n_min, n_max + 1):
        top = (n - 1) // 2
        for beta2 in range(2, top + 1):
            for beta1 in range(1, beta2):
                checked += 1
                low = balanced_broom(n, 2 * beta1 - 1)
                high = balanced_broom(n, 2 * beta2 - 1)
                margin = _alpha_of(low) - _alpha_of(high)
                min_gap = margin if min_gap is None else min(min_gap, margin)
                if margin <= GAP_TOL:
                    passed = False
                    witnesses.extend([_witness(low), _witness(high)])
    return VerificationReport(
        "chain33",
        {"n_min": n_min, "n_max": n_max},
        passed,
        checked,
        0,
        min_gap,
        tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# bounds over exhaustive classes
# ---------------------------------------------------------------------------


def _verify_bound35(n: int) -> VerificationReport:
    """α(G) ≥ bound_matching(n, β(G)) − tol for every connected graph of
    order n.  min_gap is the smallest slack; the witness attains it."""
    if n < 2:
        raise TooSmall("bound applies from order 2")
    checked = 0
    min_slack: float | None = None
    tight: Graph | None = None
    tight_alpha = 0.0
    for g in all_connected_graphs(n):
        checked += 1
        a = _alpha_of(g)
        slack = a - bound_matching(n, _beta_of(g))
        if min_slack is None or slack < min_slack:
            min_slack, tight, tight_alpha = slack, g, a
    passed = min_slack is not None and min_slack >= -GAP_TOL
    witnesses = (_witness(tight, tight_alpha),) if tight is not None else ()
    return VerificationReport(
        "bound35", {"n": n}, passed, checked, 0, min_slack, witnesses
    )


def _verify_bound36(n: int) -> VerificationReport:
    """α(G) ≥ bound_cover(n, γ(G)) − tol for every connected graph of order n."""
    if n < 2:
        raise TooSmall("bound applies from order 2")
    checked = 0
    min_slack: float | None = None
    tight: Graph | None = None
    tight_alpha = 0.0
    for g in all_connected_graphs(n):
        checked += 1
        a = _alpha_of(g)
        slack = a - bound_cover(n, edge_cover_number(g))
        if min_slack is None or slack < min_slack:
            min_slack, tight, tight_alpha = slack, g, a
    passed = min_slack is not None and min_slack >= -GAP_TOL
    witnesses = (_witness(tight, tight_alpha),) if tight is not None else ()
    return VerificationReport(
        "bound36", {"n": n}, passed, checked, 0, min_slack, witnesses
    )


def _verify_lem34(
    k_min: int = 1,
    k_max: int = 5,
    l_min: int = 1,
    l_max: int = 5,
    dm1_min: int = 2,
    dm1_max: int = 7,
) -> VerificationReport:
    """α(T(k,l,dm1)) ≥ kirkland_bound(k,l,dm1) − tol over the grid."""
    if k_min < 1 or l_min < 1 or dm1_min < 2:
        raise Infeasible("grid must satisfy k,l >= 1 and dm1 >= 2")
    if k_max < k_min or l_max < l_min or dm1_max < dm1_min:
        raise Infeasible("empty grid")
    checked = 0
    min_slack: float | None = None
    tight: Graph | None = None
    tight_alpha = 0.0
    for k in range(k_min, k_max + 1):
        for l in range(l_min, l_max + 1):
            for dm1 in range(dm1_min, dm1_max + 1):
                checked += 1
                g = double_broom(BroomParams(k=k, l=l, d=dm1))
                a = _alpha_of(g)
                slack = a - kirkland_bound(k, l, dm1)
                if min_slack is None or slack < min_slack:
                    min_slack, tight, tight_alpha = slack, g, a
    passed = min_slack is not None and min_slack >= -GAP_TOL
    witnesses = (_witness(tight, tight_alpha),) if tight is not None else ()
    params = {
        "k": [k_min, k_max],
        "l": [l_min, l_max],
        "dm1": [dm1_min, dm1_max],
    }
    return VerificationReport("lem34", params, passed, checked, 0, min_slack, witnesses)


# ---------------------------------------------------------------------------
# matching / cover structure
# ---------------------------------------------------------------------------


def _verify_lem26(n: int) -> VerificationReport:
    """Every connected graph of order n has a spanning tree with the same
    matching number; the construction is verified against the bitmask DP."""
    if n < 1:
        raise TooSmall("need at least one vertex")
    checked = 0
    passed = True
    witnesses: list[WitnessRecord] = []
    for g in all_connected_graphs(n):
        checked += 1
        t = spanning_tree_preserving_matching(g)
        ok = (
            t.n == g.n
            and t.m == g.n - 1
            and t.edges <= g.edges
            and is_connected(t)
            and _bitmask_matching(t)[0] == _bitmask_matching(g)[0]
        )
        if not ok:
            passed = False
            witnesses.append(_witness(g))
    return VerificationReport(
        "lem26", {"n": n}, passed, checked, 0, None, tuple(witnesses)
    )


def _verify_cor27(n: int) -> VerificationReport:
    """Every connected non-tree graph of order n has a spanning unicyclic
    subgraph with the same matching number.  Trees are skipped."""
    if n < 1:
        raise TooSmall("need at least one vertex")
    checked = 0
    skipped = 0
    passed = True
    witnesses: list[WitnessRecord] = []
    for g in all_connected_graphs(n):
        if g.m < g.n:
            skipped += 1
            continue
        checked += 1
        u = spanning_unicyclic_preserving_matching(g)
        ok = (
            u.n == g.n
            and u.m == g.n
            and u.edges <= g.edges
            and is_connected(u)
            and _bitmask_matching(u)[0] == _bitmask_matching(g)[0]
        )
        if not ok:
            passed = False
            witnesses.append(_witness(g))
    return VerificationReport(
        "cor27", {"n": n}, passed, checked, skipped, None, tuple(witnesses)
    )


def _min_edge_cover_size(g: Graph) -> int:
    """Minimum number of edges covering every vertex, by subset DP on the
    still-uncovered vertex set (the lowest uncovered vertex picks an incident
    edge).  Independent of the matching machinery on purpose: this is the
    oracle the Gallai identity is checked against."""
    edges_at: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v in g.sorted_edges():
        edges_at[u].append((u, v))
        edges_at[v].append((u, v))
    memo: dict[int, int] = {0: 0}

    def cover(mask: int) -> int:
        known = memo.get(mask)
        if known is not None:
            return known
        v = (mask & -mask).bit_length() - 1
        best = g.n + 1
        for a, b in edges_at[v]:
            rest = mask & ~((1 << a) | (1 << b))
            best = min(best, 1 + cover(rest))
        memo[mask] = best
        return best

    return cover((1 << g.n) - 1)


def _verify_gallai(n: int) -> VerificationReport:
    """β(G) + γ(G) = n for every connected graph of order n, with γ computed
    by the independent subset-DP minimum edge cover."""
    if n < 2:
        raise TooSmall("edge covers need order >= 2")
    checked = 0
    passed = True
    witnesses: list[WitnessRecord] = []
    for g in all_connected_graphs(n):
        checked += 1
        direct = _min_edge_cover_size(g)
        ok = direct == n - _beta_of(g) and direct == edge_cover_number(g)
        if not ok:
            passed = False
            witnesses.append(_witness(g))
    return VerificationReport(
        "gallai", {"n": n}, passed, checked, 0, None, tuple(witnesses)
    )


# ---------------------------------------------------------------------------
# Fiedler classification totality
# ---------------------------------------------------------------------------


def _verify_fiedler21(n: int) -> VerificationReport:
    """Every tree of order n classifies as exactly one of the two Fiedler
    types, with all structural sub-conditions verified by the classifier."""
    if n < 2:
        raise TooSmall("classification needs order >= 2")
    checked = 0
    passed = True
    witnesses: list[WitnessRecord] = []
    for t in all_trees(n):
        checked += 1
        data = fiedler_vector(t)
        try:
            classify_fiedler(t, data)
        except ClassificationInconsistent:
            passed = False
            witnesses.append(_witness(t, data.alpha))
    return VerificationReport(
        "fiedler21", {"n": n}, passed, checked, 0, None, tuple(witnesses)
    )


# ---------------------------------------------------------------------------
# randomized branch relocation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _relocation_hosts() -> tuple[Graph, ...]:
    hosts: list[Graph] = []
    for order in range(2, 7):
        hosts.extend(all_trees(order))
    for order in range(3, 7):
        hosts.extend(g for g in all_connected_graphs(order) if g.m == g.n)
    return tuple(hosts)


@lru_cache(maxsize=1)
def _relocation_branches() -> tuple[Graph, ...]:
    branches: list[Graph] = []
    for order in range(2, 5):
        branches.extend(all_trees(order))
    return tuple(branches)


def _qualifying_fiedler(
    spectrum: Spectrum, v1: int, v2: int, branch_vertices: Sequence[int]
) -> np.ndarray | None:
    """A Fiedler vector with x(v1) ≥ x(v2) ≥ 0 and the branch nonnegative,
    if one exists among the computed α-eigenspace basis and its negations."""
    alpha = spectrum.values[1]
    for i in range(1, len(spectrum.values)):
        if abs(spectrum.values[i] - alpha) > EIGENVALUE_MATCH_TOL:
            break
        column = np.asarray(spectrum.vectors[:, i], dtype=float)
        for x in (column, -column):
            if x[v1] < x[v2] - HYPOTHESIS_TOL:
                continue
            if min(float(x[w]) for w in branch_vertices) < -HYPOTHESIS_TOL:
                continue
            return x
    return None


def _equality_conditions_hold(
    g1: Graph,
    g2: Graph,
    u: int,
    v1: int,
    v2: int,
    g_star: Graph,
    x: np.ndarray,
    alpha: float,
) -> bool:
    """Equality case of the relocation claim: both attachment values vanish,
    the branch-side neighbor sum vanishes, and the same vector is (within
    tolerance) an α-eigenvector of the relocated graph."""
    if abs(float(x[v1])) > EQUALITY_COND_TOL or abs(float(x[v2])) > EQUALITY_COND_TOL:
        return False
    mapping = branch_vertex_map(g1.n, g2, u)
    mapping[u] = v2
    neighbor_sum = sum(float(x[mapping[w]]) for w in g2.adjacency[u])
    if abs(neighbor_sum) > EQUALITY_COND_TOL:
        return False
    residual = laplacian(g_star) @ x - alpha * x
    return float(np.max(np.abs(residual))) <= EQUALITY_COND_TOL


def _verify_lem22(seed: int = 0, count: int = 1000) -> VerificationReport:
    """Relocating a branch toward a vertex with a larger Fiedler value never
    raises α: sample random hosts/branches/attachments, gate on the
    hypothesis, and assert α(G*) ≤ α(G) + tol on every qualifying instance.

    ``count`` is the number of hypothesis-satisfying instances required;
    draws whose Fiedler data never satisfies the hypothesis are skipped and
    tallied separately.
    """
    if count < 1:
        raise Infeasible("count must be positive")
    rng = random.Random(seed)
    hosts = _relocation_hosts()
    branches = _relocation_branches()
    checked = 0
    skipped = 0
    passed = True
    min_gap: float | None = None
    witnesses: list[WitnessRecord] = []
    max_draws = 100 * count
    draws = 0
    while checked < count and draws < max_draws:
        draws += 1
        g1 = hosts[rng.randrange(len(hosts))]
        g2 = branches[rng.randrange(len(branches))]
        v1 = rng.randrange(g1.n)
        v2 = rng.randrange(g1.n - 1)
        if v2 >= v1:
            v2 += 1
        u = rng.randrange(g2.n)
        g, g_star = relocate_branch(g1, v1, v2, g2, u)
        spectrum = eigen_symmetric(laplacian(g))
        branch_vertices = (v2, *range(g1.n, g.n))
        x = _qualifying_fiedler(spectrum, v1, v2, branch_vertices)
        if x is None:
            skipped += 1
            continue
        checked += 1
        alpha_g = float(spectrum.values[1])
        alpha_star = algebraic_connectivity(g_star)
        margin = alpha_g - alpha_star
        min_gap = margin if min_gap is None else min(min_gap, margin)
        bad = alpha_star > alpha_g + GAP_TOL
        if not bad and abs(alpha_star - alpha_g) <= EQUALITY_WINDOW:
            bad = not _equality_conditions_hold(
                g1, g2, u, v1, v2, g_star, x, alpha_g
            )
        if bad:
            passed = False
            witnesses.append(WitnessRecord(encode_graph6(g), alpha_g, _beta_of(g)))
            witnesses.append(
                WitnessRecord(encode_graph6(g_star), alpha_star, _beta_of(g_star))
            )
    if checked < count:
        passed = False
    return VerificationReport(
        "lem22",
        {"seed": seed, "count": count},
        passed,
        checked,
        skipped,
        min_gap,
        tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


_RUNNERS: dict[str, Callable[..., VerificationReport]] = {
    "thm31": _verify_thm31,
    "thm32": _verify_thm32,
    "cor33": _verify_cor33,
    "lem22": _verify_lem22,
    "lem23": _verify_lem23,
    "lem24": _verify_lem24,
    "lem24alt": _verify_lem24alt,
    "lem25": _verify_lem25,
    "chain33": _verify_chain33,
    "lem26": _verify_lem26,
    "cor27": _verify_cor27,
    "bound35": _verify_bound35,
    "bound36": _verify_bound36,
    "lem34": _verify_lem34,
    "gallai": _verify_gallai,
    "fiedler21": _verify_fiedler21,
}

#: All verification target identifiers, in documentation order.
TARGETS = tuple(_RUNNERS)


def verify(target: str, **params) -> VerificationReport:
    """Run one verification target.

    Raises:
        UnknownTarget: for an identifier not in :data:`TARGETS`.
        Infeasible: for parameters the target does not accept.
        TooLarge / TooSmall: propagated from enumeration ceilings.
    """
    runner = _RUNNERS.get(target)
    if runner is None:
        known = ", ".join(TARGETS)
        raise UnknownTarget(f"unknown verification target {target!r} (known: {known})")
    try:
        inspect.signature(runner).bind(**params)
    except TypeError as exc:
        raise Infeasible(f"bad parameters for target {target!r}: {exc}") from None
    return runner(**params)
