"""Isomorph-free enumeration of small trees and connected graphs.

Trees of order ``n`` grow from those of order ``n - 1`` by attaching a leaf
at every vertex, deduplicated by the centred tree code; each class is then
labeled by its minimal packed code (:func:`algconn.graph._min_code`, the
kernel behind ``canonical_form``).
Connected graphs come from every edge subset of the complete graph,
filtered by connectivity, and dedup to one representative per isomorphism
class by deleting whole relabeling orbits from the sorted array of labeled
codes, so each class is its orbit's minimal code.

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
    _relabeled_codes,
    _tree_code,
    _unpack_code,
    is_tree,
)
from .matching import matching_number

#: Growing the free trees is cheap well past 9, but the minimal-code search
#: that labels them is exponential: 0.4 / 1.8 / 16 s at order 10 / 11 / 12.
TREE_CEILING = 9

#: Edge subsets of the complete graph: 2^21 masks at order 7.
CONNECTED_CEILING = 7

KIND_TREES = "trees"
KIND_CONNECTED = "connected"


@lru_cache(maxsize=None)
def _beta_of(g: Graph) -> int:
    return matching_number(g)


@dataclass(frozen=True)
class GraphStream:
    """A replayable, deterministic stream over one unlabeled graph class.

    ``kind`` selects trees or connected graphs of order ``n``; an optional
    filter restricts to a fixed matching number or edge cover number.
    """

    n: int
    kind: str
    matching_filter: int | None = None
    cover_filter: int | None = None

    def __iter__(self) -> Iterator[Graph]:
        base = _tree_list(self.n) if self.kind == KIND_TREES else _connected_list(self.n)
        want_beta: int | None = self.matching_filter
        if self.cover_filter is not None:
            want_beta = self.n - self.cover_filter
        for g in base:
            if want_beta is not None:
                if self.cover_filter is not None and any(
                    not g.adjacency[v] for v in range(g.n)
                ):
                    continue  # no edge cover exists
                if _beta_of(g) != want_beta:
                    continue
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
    graph of that order can have the requested value.
    """
    if beta < 1 or beta > stream.n // 2:
        warnings.warn(
            f"no connected graph of order {stream.n} has matching number {beta}",
            EmptyClassWarning,
            stacklevel=2,
        )
    return replace(stream, matching_filter=beta, cover_filter=None)


def with_cover(stream: GraphStream, gamma: int) -> GraphStream:
    """Restrict a stream to graphs with the given edge cover number.

    Emits :class:`EmptyClassWarning` (and streams nothing) when the value is
    infeasible for connected graphs of that order.
    """
    if gamma < (stream.n + 1) // 2 or gamma > stream.n - 1:
        warnings.warn(
            f"no connected graph of order {stream.n} has edge cover number {gamma}",
            EmptyClassWarning,
            stacklevel=2,
        )
    return replace(stream, cover_filter=gamma, matching_filter=None)


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
# connected graphs: all edge subsets + connectivity filter + orbit dedup
# ---------------------------------------------------------------------------


def _connected_codes(n: int) -> np.ndarray:
    """Sorted packed codes of every connected labeled graph on ``n`` vertices."""
    pair_count = n * (n - 1) // 2
    masks = np.arange(1 << pair_count, dtype=np.int64)
    rows_bits = np.zeros((n, masks.shape[0]), dtype=np.uint8)
    for j in range(1, n):
        for i in range(j):
            pos = pair_count - 1 - (j * (j - 1) // 2 + i)
            bit = ((masks >> pos) & 1).astype(np.uint8)
            rows_bits[i] |= bit << j
            rows_bits[j] |= bit << i
    reach = np.ones(masks.shape[0], dtype=np.uint8)
    for _ in range(n - 1):
        for v in range(n):
            has = (reach >> v) & 1
            reach |= rows_bits[v] * has
    connected = reach == (1 << n) - 1
    return masks[connected].astype(np.uint64)


def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _orbit_minima(codes: np.ndarray, n: int) -> list[int]:
    """The minimal packed code of each isomorphism class.

    ``codes`` must be the sorted array of every labeled member's packed code.
    Processing order: take the smallest still-alive code, compute its whole
    relabeling orbit in one vectorized pass, delete the orbit, repeat.
    """
    perms = _all_permutations(n)
    alive = np.ones(codes.shape[0], dtype=bool)
    minima: list[int] = []
    ptr = 0
    total = codes.shape[0]
    while True:
        while ptr < total and not alive[ptr]:
            ptr += 1
        if ptr >= total:
            break
        orbit = _relabeled_codes(_unpack_code(n, int(codes[ptr])), perms)
        members = np.unique(orbit)
        locs = np.searchsorted(codes, members)
        alive[locs] = False
        minima.append(int(members[0]))
    return minima


@lru_cache(maxsize=None)
def _connected_list(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    pair_count = n * (n - 1) // 2
    keyed = []
    for code in _orbit_minima(_connected_codes(n), n):
        g = _unpack_code(n, code)
        # canonical_form's bits: the centred code for a tree, otherwise the
        # orbit-minimal code this representative already is
        key = _tree_code(g) if is_tree(g) else format(code, f"0{pair_count}b")
        keyed.append((key, g))
    keyed.sort(key=lambda pair: pair[0])
    return tuple(g for _, g in keyed)
