"""Isomorph-free enumeration of small trees and connected graphs.

Trees of order ``n`` grow from those of order ``n - 1`` by attaching a leaf
at every vertex, deduplicated by the centred tree code; each class is then
labeled by its minimal packed code (:func:`algconn.graph._min_code`, the
kernel behind ``canonical_form``).
Connected graphs come from one pass over every edge mask of the complete
graph: the smallest mask not yet reached is its class's minimal code, and
its whole relabeling orbit, summed from the relabeled weight of each set
bit under every permutation, is struck off; disconnected classes are then
dropped.  Order 7 (2^21 masks, 1 044 classes, 853 connected) takes about
0.1 s.

Streams yield graphs in a deterministic order (sorted by canonical code) and
are cached per ``(kind, n)``, so repeated scans are cheap; matching-number
filters share the verifier's cached :func:`_beta_of`.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import EmptyClassWarning, TooLarge, TooSmall
from .graph import (
    Graph,
    _min_code,
    _pair_index,
    _tree_code,
    _unpack_code,
    is_connected,
    is_tree,
)
from .matching import matching_number

#: Growing the free trees is cheap well past 9, but the minimal-code search
#: that labels them is exponential: 0.4 / 1.8 / 16 s at order 10 / 11 / 12.
TREE_CEILING = 9

#: The orbit pass keeps one flag per edge mask and one relabeled weight per
#: (bit, permutation): 2 MB and 0.8 MB at order 7, 0.09 s.  Order 8 would
#: need 2^28 flags and a 28 x 40 320 sum for each of 12 346 classes.
CONNECTED_CEILING = 7

KIND_TREES = "trees"
KIND_CONNECTED = "connected"


@lru_cache(maxsize=None)
def _beta_of(g: Graph) -> int:
    return matching_number(g)


@dataclass(frozen=True)
class GraphStream:
    """A replayable, deterministic stream over one unlabeled graph class.

    ``kind`` selects trees or connected graphs of order ``n``; ``beta``, when
    set, keeps the graphs with that matching number (an edge cover filter γ
    is stored as β = n − γ, by Gallai's identity).
    """

    n: int
    kind: str
    beta: int | None = None

    def __iter__(self) -> Iterator[Graph]:
        base = _tree_list(self.n) if self.kind == KIND_TREES else _connected_list(self.n)
        for g in base:
            if self.beta is None or _beta_of(g) == self.beta:
                yield g


def all_trees(n: int) -> GraphStream:
    """Stream of all trees of order ``n``, one per isomorphism class.

    Raises:
        TooSmall: for ``n < 1``.
        TooLarge: above :data:`TREE_CEILING`.
    """
    if n < 1:
        raise TooSmall("trees need at least one vertex")
    if n > TREE_CEILING:
        raise TooLarge(f"tree enumeration is limited to order {TREE_CEILING}")
    return GraphStream(n=n, kind=KIND_TREES)


def all_connected_graphs(n: int) -> GraphStream:
    """Stream of all connected graphs of order ``n``, one per isomorphism class.

    Raises:
        TooSmall: for ``n < 1``.
        TooLarge: above :data:`CONNECTED_CEILING`.
    """
    if n < 1:
        raise TooSmall("graphs need at least one vertex")
    if n > CONNECTED_CEILING:
        raise TooLarge(
            f"connected-graph enumeration is limited to order {CONNECTED_CEILING}"
        )
    return GraphStream(n=n, kind=KIND_CONNECTED)


def with_matching(stream: GraphStream, beta: int) -> GraphStream:
    """Restrict a stream to graphs with the given matching number.

    Emits :class:`EmptyClassWarning` (and streams nothing) when no connected
    graph of that order can have the requested value: ``1..n // 2``, or only
    0 for the edgeless K₁.
    """
    return _with_beta(stream, beta, min(1, stream.n - 1), f"matching number {beta}")


def with_cover(stream: GraphStream, gamma: int) -> GraphStream:
    """Restrict a stream to graphs with the given edge cover number.

    Emits :class:`EmptyClassWarning` (and streams nothing) when the value is
    infeasible for connected graphs of that order: ``(n + 1) // 2..n - 1``,
    so never for the edgeless K₁.
    """
    return _with_beta(stream, stream.n - gamma, 1, f"edge cover number {gamma}")


def _with_beta(stream: GraphStream, beta: int, least: int, what: str) -> GraphStream:
    """``stream`` filtered to matching number ``beta``; outside
    ``least..n // 2`` it warns and filters to -1, which no graph has."""
    if beta < least or beta > stream.n // 2:
        warnings.warn(
            f"no connected graph of order {stream.n} has {what}",
            EmptyClassWarning,
            stacklevel=3,
        )
        beta = -1
    return replace(stream, beta=beta)


# ---------------------------------------------------------------------------
# trees: leaf-attachment growth + minimal-code labeling
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tree_list(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    classes: dict[str, Graph] = {}
    for t in _tree_list(n - 1):
        for v in range(n - 1):
            grown = Graph(n, t.edges | {(v, n - 1)})
            classes.setdefault(_tree_code(grown), grown)
    return tuple(_unpack_code(n, _min_code(classes[code])) for code in sorted(classes))


# ---------------------------------------------------------------------------
# connected graphs: one orbit pass over all edge masks + connectivity filter
# ---------------------------------------------------------------------------


def _orbit_minima(n: int) -> list[int]:
    """The minimal packed code of every isomorphism class of graphs on ``n``
    vertices, connected or not, in increasing order.

    ``alive[mask]`` marks the edge masks not yet reached.  Every smaller mask
    is dead by the time the scan stops, so the smallest alive mask is its
    class's minimum; its whole relabeling orbit is then deleted at once.
    ``position[u, v]`` is the bit of pair ``{u, v}`` in the packed code
    (:func:`algconn.graph._pair_index` counted from the top bit), and
    ``weights[b, r]`` is the weight that bit ``b`` moves to under ``perms[r]``;
    a relabeling maps distinct edges to distinct edges, so the weights of a
    code's set bits never overlap and their column sums are the orbit.
    """
    pair_count = n * (n - 1) // 2
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    i, j = np.triu_indices(n, 1)
    position = np.zeros((n, n), dtype=np.int64)
    position[i, j] = position[j, i] = pair_count - 1 - _pair_index(i, j)
    bit = np.argsort(position[i, j])  # the pair behind each bit, lowest first
    weights = np.left_shift(1, position[perms[:, i[bit]], perms[:, j[bit]]].T)
    alive = np.ones(1 << pair_count, dtype=bool)
    minima: list[int] = []
    code = 0
    while True:
        code += int(alive[code:].argmax())
        if not alive[code]:
            return minima
        minima.append(code)
        alive[weights[[b for b in range(pair_count) if code >> b & 1]].sum(0)] = False


@lru_cache(maxsize=None)
def _connected_list(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    pair_count = n * (n - 1) // 2
    keyed = []
    for code in _orbit_minima(n):
        g = _unpack_code(n, code)
        if not is_connected(g):
            continue
        # canonical_form's bits: the centred code for a tree, otherwise the
        # orbit-minimal code this representative already is
        key = _tree_code(g) if is_tree(g) else format(code, f"0{pair_count}b")
        keyed.append((key, g))
    keyed.sort(key=lambda pair: pair[0])
    return tuple(g for _, g in keyed)
