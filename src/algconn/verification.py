"""Closed-form spectral lower bounds and the verification harness.

Every claim the library is built around — extremal-minimizer uniqueness,
broom inequality chains, matching/cover bounds, relocation monotonicity,
classification totality — is checkable here by an exhaustive scan, a grid
evaluation, or seeded sampling.  Each check returns a
:class:`VerificationReport` that serializes to JSON (and a CSV summary row)
with enough data to audit the margin behind any strict inequality.

Every target but the relocation sampler ``lem22`` builds a stream and hands
it to one of four scan primitives, which builds the report:
``_unique_minimizers`` (graph classes and their expected minimizer),
``_margins`` (pairs that must satisfy α(big) > α(small)), ``_min_slack``
(graphs with a lower bound on α) and ``_holds_for_all`` (graphs and a
predicate).  ``lem22`` reads both graphs of each draw from a cached table
of at most 2 314 glued spectra (``_glued_spectrum``): every relocation pair
glues one of 13 rooted branches onto one of 178 host vertices.

Tolerances: a strict claim "A < B" passes iff ``B - A > GAP_TOL``; a
uniqueness claim passes iff the runner-up exceeds the minimizer by more than
``GAP_TOL``.  Eigenvalue residuals are orders of magnitude below the 1e-9
gap tolerance at these graph orders, so margins are trustworthy.
"""

from __future__ import annotations

import itertools
import inspect
import json
import math
import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .enumeration import _beta_of, all_connected_graphs, all_trees, with_cover
from .errors import (
    ClassificationInconsistent,
    Infeasible,
    TooSmall,
    UnknownTarget,
)
from .families import (
    BroomParams,
    balanced_broom,
    coalescence,
    double_broom,
    extremal_tree,
)
from .graph import Graph, diameter, encode_graph6, is_connected, is_isomorphic
from .matching import (
    _bitmask_matching,
    edge_cover_number,
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

    Computed as ``bound_matching(n, n - gamma)``: the two integer
    denominators agree under the substitution, so the values are identical.

    Raises:
        Infeasible: unless ``ceil(n/2) <= gamma <= n - 1``.
    """
    if n < 2 or 2 * gamma < n or gamma > n - 1:
        raise Infeasible(f"no connected graph of order {n} has edge cover number {gamma}")
    return bound_matching(n, n - gamma)


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


def _rounded(value):
    """``value`` with every float, in lists, tuples and dicts too, rounded by
    :func:`_sig12`; a tuple becomes a list."""
    if isinstance(value, float):
        return _sig12(value)
    if isinstance(value, (list, tuple)):
        return [_rounded(x) for x in value]
    if isinstance(value, dict):
        return {k: _rounded(x) for k, x in value.items()}
    return value


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
        """The fields as plain data, every float rounded by :func:`_sig12`."""
        return _rounded(asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


@lru_cache(maxsize=None)
def _alpha_of(g: Graph) -> float:
    return algebraic_connectivity(g)


def _witness(g: Graph) -> WitnessRecord:
    return WitnessRecord(encode_graph6(g), _alpha_of(g), _beta_of(g))


# ---------------------------------------------------------------------------
# scan primitives
# ---------------------------------------------------------------------------


def _unique_minimizers(
    target: str, params: dict, classes: Iterable[tuple[list[Graph], Graph]]
) -> VerificationReport:
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
        best, *rest = sorted(members, key=_alpha_of)  # stable: ties keep order
        witnesses.append(_witness(best))
        if not is_isomorphic(best, expected):
            passed = False
        if rest:
            gap = _alpha_of(rest[0]) - _alpha_of(best)
            min_gap = gap if min_gap is None else min(min_gap, gap)
            if gap <= GAP_TOL:
                passed = False
                witnesses.append(_witness(rest[0]))
    return VerificationReport(target, params, passed, checked, 0, min_gap, tuple(witnesses))


def _margins(
    target: str,
    params: dict,
    pairs: Iterable[tuple[Graph, Graph]],
    comparable: Callable[[Graph, Graph], bool] | None = None,
) -> VerificationReport:
    """Check α(big) − α(small) > GAP_TOL for every (big, small) pair.  A pair
    that is not ``comparable`` fails without a margin."""
    checked = 0
    min_gap: float | None = None
    witnesses: list[WitnessRecord] = []
    for big, small in pairs:
        checked += 1
        if comparable is None or comparable(big, small):
            margin = _alpha_of(big) - _alpha_of(small)
            min_gap = margin if min_gap is None else min(min_gap, margin)
            if margin > GAP_TOL:
                continue
        witnesses.extend([_witness(big), _witness(small)])
    return VerificationReport(
        target, params, not witnesses, checked, 0, min_gap, tuple(witnesses)
    )


def _min_slack(
    target: str, params: dict, bounded: Iterable[tuple[Graph, float]]
) -> VerificationReport:
    """Check α(G) ≥ bound − GAP_TOL for every (G, bound).  min_gap is the
    smallest slack; the witness attains it."""
    slacks = [(_alpha_of(g) - bound, g) for g, bound in bounded]
    min_slack, tight = min(slacks, key=lambda s: s[0], default=(None, None))
    passed = min_slack is not None and min_slack >= -GAP_TOL
    witnesses = (_witness(tight),) if tight is not None else ()
    return VerificationReport(target, params, passed, len(slacks), 0, min_slack, witnesses)


def _holds_for_all(
    target: str,
    params: dict,
    graphs: Iterable[Graph],
    predicate: Callable[[Graph], bool],
    skip: Callable[[Graph], bool] | None = None,
) -> VerificationReport:
    """Check ``predicate`` on every graph that ``skip`` does not rule out;
    each graph it fails on is a witness."""
    checked = 0
    skipped = 0
    witnesses: list[WitnessRecord] = []
    for g in graphs:
        if skip is not None and skip(g):
            skipped += 1
            continue
        checked += 1
        if not predicate(g):
            witnesses.append(_witness(g))
    return VerificationReport(
        target, params, not witnesses, checked, skipped, None, tuple(witnesses)
    )


# ---------------------------------------------------------------------------
# unique-minimizer scans
# ---------------------------------------------------------------------------


def _beta_classes(n: int, graphs: Iterable[Graph]) -> list[tuple[list[Graph], Graph]]:
    """The graphs of each feasible matching number β, with T_{2β−1}."""
    graphs = list(graphs)
    return [
        ([g for g in graphs if _beta_of(g) == beta], extremal_tree(n, beta))
        for beta in range(1, n // 2 + 1)
    ]


def _verify_thm31(n: int) -> VerificationReport:
    """Among trees of order n with matching number β, the unique α-minimizer
    is the balanced broom T_{2β−1} — for every feasible β."""
    if n < 2:
        raise TooSmall("no tree class below order 2")
    return _unique_minimizers("thm31", {"n": n}, _beta_classes(n, all_trees(n)))


def _verify_thm32(n: int) -> VerificationReport:
    """Same uniqueness claim over all connected graphs of order n."""
    if n < 2:
        raise TooSmall("no connected-graph class below order 2")
    return _unique_minimizers(
        "thm32", {"n": n}, _beta_classes(n, all_connected_graphs(n))
    )


def _verify_cor33(n: int) -> VerificationReport:
    """Edge-cover flavor of the same claim: among connected graphs of order n
    with edge cover number γ, the unique α-minimizer is T_{2(n−γ)−1}."""
    if n < 2:
        raise TooSmall("no connected-graph class below order 2")
    stream = all_connected_graphs(n)
    classes = [
        (list(with_cover(stream, n - beta)), extremal_tree(n, beta))
        for beta in range(1, n // 2 + 1)
    ]
    return _unique_minimizers("cor33", {"n": n}, classes)


def _verify_lem23(n: int, d: int | None = None) -> VerificationReport:
    """Among trees of order n with diameter d+1, the unique α-minimizer is
    the balanced broom T_d.  Scans every feasible d unless one is given."""
    if n < 3:
        raise TooSmall("diameter classes need order >= 3")
    if d is not None and not 1 <= d <= n - 2:
        raise Infeasible(f"order {n} admits no diameter-{d + 1} tree class")
    ds = [d] if d is not None else list(range(1, n - 1))
    trees = [(t, diameter(t)) for t in all_trees(n)]
    classes = [
        ([t for t, dt in trees if dt == dv + 1], balanced_broom(n, dv))
        for dv in ds
    ]
    return _unique_minimizers("lem23", {"n": n, "d": d}, classes)


# ---------------------------------------------------------------------------
# broom inequality grids
# ---------------------------------------------------------------------------


_LEM24_GRID = {"k": [2, 5], "l": [0, 5], "d": [2, 7]}
_LEM24_MIRROR_GRID = {"k": [0, 5], "l": [2, 5], "d": [2, 7]}


def _broom(k: int, l: int, d: int) -> Graph:
    return double_broom(BroomParams(k, l, d))


def _grid(spec: dict, *axes: str):
    """Every point of the inclusive ``{axis: [lo, hi]}`` grid ``spec``, as
    tuples in ``axes`` order with the last axis varying fastest."""
    return itertools.product(*(range(spec[a][0], spec[a][1] + 1) for a in axes))


def _verify_lem24() -> VerificationReport:
    """Strict broom inequalities that trade one end leaf for one more path
    vertex, keeping the order fixed: α(T(k,l,d)) > α(T(k−1,l,d+1)) for k ≥ 2,
    and the mirrored α(T(k,l,d)) > α(T(k,l−1,d+1)) for l ≥ 2."""

    def pairs():
        for k, l, d in _grid(_LEM24_GRID, "k", "l", "d"):
            yield _broom(k, l, d), _broom(k - 1, l, d + 1)
        for l, k, d in _grid(_LEM24_MIRROR_GRID, "l", "k", "d"):
            yield _broom(k, l, d), _broom(k, l - 1, d + 1)

    params = {
        "part1_grid": _LEM24_GRID,
        "part2_grid": _LEM24_MIRROR_GRID,
        "part2_reading": "T(k,l-1,d+1)",
    }
    return _margins("lem24", params, pairs())


def _verify_lem24alt() -> VerificationReport:
    """The other textual reading of the second broom inequality —
    α(T(k,l,d)) > α(T(k,l+1,d+1)) for l ≥ 2, which grows the total order.
    Reported for the record; the library asserts only the order-preserving
    reading (see lem24)."""
    pairs = (
        (_broom(k, l, d), _broom(k, l + 1, d + 1))
        for l, k, d in _grid(_LEM24_MIRROR_GRID, "l", "k", "d")
    )
    params = {"grid": _LEM24_MIRROR_GRID, "reading": "T(k,l+1,d+1)"}
    return _margins("lem24alt", params, pairs)


def _check_order_range(n_min: int, n_max: int) -> None:
    if n_min < 2:
        raise TooSmall("broom orders start at 2")
    if n_max < n_min:
        raise Infeasible("empty order range")


def _verify_lem25(n_min: int = 6, n_max: int = 12) -> VerificationReport:
    """α(T_{2β−2}) > α(T_{2β−1}) for 2 ≤ β ≤ ⌊(n−1)/2⌋ — the two diameter
    classes a matching-β tree can minimize over, with the larger diameter
    winning.  Also sanity-checks β(T_{2β−2}) = β(T_{2β−1}) = β."""
    _check_order_range(n_min, n_max)
    pairs = (
        (balanced_broom(n, 2 * beta - 2), balanced_broom(n, 2 * beta - 1))
        for n in range(n_min, n_max + 1)
        for beta in range(2, (n - 1) // 2 + 1)
    )

    def same_beta(shorter: Graph, longer: Graph) -> bool:
        # T_{2β−1} has leaves at both path ends here, so its diameter is 2β
        return _beta_of(shorter) == _beta_of(longer) == diameter(longer) // 2

    return _margins("lem25", {"n_min": n_min, "n_max": n_max}, pairs, same_beta)


def _verify_chain33(n_min: int = 5, n_max: int = 12) -> VerificationReport:
    """Monotone chain across matching numbers: α(T_{2β₁−1}) > α(T_{2β₂−1})
    whenever β₁ < β₂ and both brooms of order n exist (n ≥ 2β₂ + 1)."""
    _check_order_range(n_min, n_max)
    pairs = (
        (balanced_broom(n, 2 * beta1 - 1), balanced_broom(n, 2 * beta2 - 1))
        for n in range(n_min, n_max + 1)
        for beta2 in range(2, (n - 1) // 2 + 1)
        for beta1 in range(1, beta2)
    )
    return _margins("chain33", {"n_min": n_min, "n_max": n_max}, pairs)


# ---------------------------------------------------------------------------
# bounds over exhaustive classes
# ---------------------------------------------------------------------------


def _verify_bound35(n: int) -> VerificationReport:
    """α(G) ≥ bound_matching(n, β(G)) − tol for every connected graph of
    order n.  min_gap is the smallest slack; the witness attains it."""
    if n < 2:
        raise TooSmall("bound applies from order 2")
    bounded = (
        (g, bound_matching(n, _beta_of(g))) for g in all_connected_graphs(n)
    )
    return _min_slack("bound35", {"n": n}, bounded)


def _verify_bound36(n: int) -> VerificationReport:
    """α(G) ≥ bound_cover(n, γ(G)) − tol for every connected graph of order n,
    with γ(G) = n − β(G) by Gallai's identity."""
    if n < 2:
        raise TooSmall("bound applies from order 2")
    bounded = (
        (g, bound_cover(n, n - _beta_of(g))) for g in all_connected_graphs(n)
    )
    return _min_slack("bound36", {"n": n}, bounded)


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
    params = {"k": [k_min, k_max], "l": [l_min, l_max], "dm1": [dm1_min, dm1_max]}
    bounded = (
        (_broom(k, l, dm1), kirkland_bound(k, l, dm1))
        for k, l, dm1 in _grid(params, "k", "l", "dm1")
    )
    return _min_slack("lem34", params, bounded)


# ---------------------------------------------------------------------------
# matching / cover structure
# ---------------------------------------------------------------------------


def _preserves_matching(g: Graph, sub: Graph, m: int) -> bool:
    """``sub`` is a connected spanning subgraph of ``g`` with ``m`` edges
    and the same matching number: the bitmask DP on ``sub`` against the
    cached β of ``g``."""
    return (
        sub.n == g.n
        and sub.m == m
        and sub.edges <= g.edges
        and is_connected(sub)
        and _bitmask_matching(sub)[0] == _beta_of(g)
    )


def _verify_lem26(n: int) -> VerificationReport:
    """Every connected graph of order n has a spanning tree with the same
    matching number; the construction is verified against the bitmask DP."""
    if n < 1:
        raise TooSmall("need at least one vertex")
    return _holds_for_all(
        "lem26",
        {"n": n},
        all_connected_graphs(n),
        lambda g: _preserves_matching(g, spanning_tree_preserving_matching(g), n - 1),
    )


def _verify_cor27(n: int) -> VerificationReport:
    """Every connected non-tree graph of order n has a spanning unicyclic
    subgraph with the same matching number.  Trees are skipped."""
    if n < 1:
        raise TooSmall("need at least one vertex")
    return _holds_for_all(
        "cor27",
        {"n": n},
        all_connected_graphs(n),
        lambda g: _preserves_matching(g, spanning_unicyclic_preserving_matching(g), n),
        skip=lambda g: g.m < g.n,
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

    @lru_cache(maxsize=None)
    def cover(mask: int) -> int:
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        rests = (mask & ~((1 << a) | (1 << b)) for a, b in edges_at[v])
        return 1 + min((cover(rest) for rest in rests), default=g.n)

    return cover((1 << g.n) - 1)


def _verify_gallai(n: int) -> VerificationReport:
    """β(G) + γ(G) = n for every connected graph of order n, with γ computed
    by the independent subset-DP minimum edge cover."""
    if n < 2:
        raise TooSmall("edge covers need order >= 2")

    def gallai_holds(g: Graph) -> bool:
        direct = _min_edge_cover_size(g)
        return direct == n - _beta_of(g) and direct == edge_cover_number(g)

    return _holds_for_all("gallai", {"n": n}, all_connected_graphs(n), gallai_holds)


# ---------------------------------------------------------------------------
# Fiedler classification totality
# ---------------------------------------------------------------------------


def _classifies(t: Graph) -> bool:
    try:
        classify_fiedler(t, fiedler_vector(t))
    except ClassificationInconsistent:
        return False
    return True


def _verify_fiedler21(n: int) -> VerificationReport:
    """Every tree of order n classifies as exactly one of the two Fiedler
    types, with all structural sub-conditions verified by the classifier."""
    if n < 2:
        raise TooSmall("classification needs order >= 2")
    return _holds_for_all("fiedler21", {"n": n}, all_trees(n), _classifies)


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


@lru_cache(maxsize=None)
def _glued_spectrum(h: int, v: int, b: int, u: int) -> Spectrum:
    """Laplacian spectrum of relocation branch ``b`` glued at its vertex
    ``u`` onto vertex ``v`` of relocation host ``h``.  Every relocation pair
    is two such graphs, and the key space is finite (2 314 keys), so the
    cache is bounded by it.  The arrays are read-only: draws share them."""
    g = coalescence(_relocation_hosts()[h], v, _relocation_branches()[b], u)
    spectrum = eigen_symmetric(laplacian(g))
    spectrum.values.flags.writeable = False
    spectrum.vectors.flags.writeable = False
    return spectrum


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
    g: Graph,
    host_order: int,
    v1: int,
    v2: int,
    g_star: Graph,
    x: np.ndarray,
    alpha: float,
) -> bool:
    """Equality case of the relocation claim: both attachment values vanish,
    the branch-side neighbor sum vanishes, and the same vector is (within
    tolerance) an α-eigenvector of the relocated graph.  The branch side of
    ``v2`` in ``g`` is its neighbours numbered from ``host_order`` on."""
    if abs(float(x[v1])) > EQUALITY_COND_TOL or abs(float(x[v2])) > EQUALITY_COND_TOL:
        return False
    neighbor_sum = sum(float(x[w]) for w in g.adjacency[v2] if w >= host_order)
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
    tallied separately.  Both graphs of a draw are read from the table of
    glued spectra (:func:`_glued_spectrum`, at most 2 314 entries); the
    graphs themselves are built only in the equality window or for a
    witness.
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
        h = rng.randrange(len(hosts))
        b = rng.randrange(len(branches))
        g1, g2 = hosts[h], branches[b]
        v1 = rng.randrange(g1.n)
        v2 = rng.randrange(g1.n - 1)
        if v2 >= v1:
            v2 += 1
        u = rng.randrange(g2.n)
        spectrum = _glued_spectrum(h, v2, b, u)
        branch_vertices = (v2, *range(g1.n, g1.n + g2.n - 1))
        x = _qualifying_fiedler(spectrum, v1, v2, branch_vertices)
        if x is None:
            skipped += 1
            continue
        checked += 1
        alpha_g = float(spectrum.values[1])
        alpha_star = float(_glued_spectrum(h, v1, b, u).values[1])
        margin = alpha_g - alpha_star
        min_gap = margin if min_gap is None else min(min_gap, margin)
        bad = alpha_star > alpha_g + GAP_TOL
        if not bad and abs(alpha_star - alpha_g) > EQUALITY_WINDOW:
            continue
        g, g_star = coalescence(g1, v2, g2, u), coalescence(g1, v1, g2, u)
        if not bad:
            bad = not _equality_conditions_hold(g, g1.n, v1, v2, g_star, x, alpha_g)
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
