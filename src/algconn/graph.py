"""Immutable simple graphs: construction, text formats, connectivity, canonical forms.

Vertices are the integers ``0..n-1``.  Edges are unordered pairs of distinct
vertices, stored normalized as ``(u, v)`` with ``u < v``.  Graphs are frozen
and hashable; equality is labeled equality (same order, same edge set).

One bit layout serves every edge code: the upper-triangle adjacency bits in
column-major pair order ``(0,1), (0,2), (1,2), (0,3), ...``, first pair
highest.  :func:`_pack_code` and :func:`_unpack_code` convert it; graph6 is
that code padded to whole 6-bit groups, and the canonical bits and the
enumeration codes are the same integer.

One breadth-first walk, :func:`_bfs_tree`, serves connectivity, the
diameter, the tree centres and the centred tree code here, and the tree
matching and both Fiedler checks elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidVertex,
    NotConnected,
    ParseError,
    SelfLoop,
    TooLarge,
    TooSmall,
)

#: Non-tree canonical forms stop here: the minimal-code search kept at most
#: 5 760 states at order 10 (4K2 + 2K1), but its states grow exponentially on
#: sparse graphs, to 378 000 on random order-16 graphs with 24 edges.
CANONICAL_CEILING = 10

#: The largest order graph6 writes in one byte; larger orders take the long form.
GRAPH6_MAX_ORDER = 62


def _normalize_edge(u: int, v: int, n: int) -> tuple[int, int]:
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidVertex(f"edge ({u}, {v}) out of range for order {n}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..n-1`` with a frozen edge set."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.n < 0:
            raise InvalidVertex("vertex count must be nonnegative")
        normalized = frozenset(
            _normalize_edge(int(u), int(v), self.n) for u, v in self.edges
        )
        object.__setattr__(self, "edges", normalized)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset, ...]:
        """Neighbor sets indexed by vertex."""
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def neighbors(self, v: int) -> frozenset:
        if not 0 <= v < self.n:
            raise InvalidVertex(f"vertex {v} out of range for order {self.n}")
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((len(s) for s in self.adjacency), reverse=True))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # deterministic, unlike frozenset's default
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph of order ``n`` from unordered vertex pairs.

    Duplicate pairs (in either orientation) collapse to a single edge.

    Raises:
        SelfLoop: if any pair joins a vertex to itself.
        InvalidVertex: if any endpoint is outside ``0..n-1``.
    """
    return Graph(n, frozenset(tuple(e) for e in edges))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: vertex ``v`` of ``g`` becomes ``perm[v]``."""
    if sorted(perm) != list(range(g.n)):
        raise InvalidVertex("relabeling must be a permutation of the vertex set")
    return Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


# ---------------------------------------------------------------------------
# connectivity and distances
# ---------------------------------------------------------------------------


def _bfs_tree(g: Graph, source: int, blocked: int = -1) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``source``, never entering ``blocked``, and
    each vertex's parent: ``blocked`` for the source, -2 where unreached."""
    parent = [-2] * g.n
    parent[source] = blocked
    order = [source]
    adj = g.adjacency
    for v in order:  # the list grows while it is read
        for w in adj[v]:
            if parent[w] == -2 and w != blocked:
                parent[w] = v
                order.append(w)
    return order, parent


def _longest_path(g: Graph, source: int) -> list[int]:
    """A shortest path from the vertex the walk from ``source`` reaches last
    back to ``source``: one of the vertices farthest from it."""
    order, parent = _bfs_tree(g, source)
    path = [order[-1]]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path


def is_connected(g: Graph) -> bool:
    """True when the graph has a single connected component (vacuously for n <= 1)."""
    if g.n <= 1:
        return True
    if g.m < g.n - 1:
        return False  # too few edges to span; skips building the adjacency
    return len(_bfs_tree(g, 0)[0]) == g.n


def is_tree(g: Graph) -> bool:
    """True for connected graphs with exactly ``n - 1`` edges."""
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def diameter(g: Graph) -> int:
    """Largest shortest-path distance; 0 for a single vertex.

    Raises:
        TooSmall: for the empty graph.
        NotConnected: when some pair of vertices has no connecting path.
    """
    if g.n < 1:
        raise TooSmall("diameter requires at least one vertex")
    if not is_connected(g):
        raise NotConnected("graph is not connected")
    if g.m == g.n - 1:  # a tree: a vertex farthest from any vertex ends a longest path
        return len(_longest_path(g, _longest_path(g, 0)[0])) - 1
    return max(len(_longest_path(g, v)) for v in range(g.n)) - 1


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


#: graph6 writes each 6-bit group as the byte ``group + 63``.
_GROUP_BITS = {v + 63: f"{v:06b}" for v in range(64)}
_GROUP_BYTE = {bits: chr(b) for b, bits in _GROUP_BITS.items()}


def _groups(value: int, count: int) -> str:
    """``value`` as ``count`` graph6 bytes, most significant group first."""
    bits = format(value | 1 << 6 * count, "b")[1:]  # the leading 1 keeps the zeros
    return "".join(_GROUP_BYTE[bits[i : i + 6]] for i in range(0, len(bits), 6))


def _from_groups(chars: str) -> int:
    """The integer that :func:`_groups` wrote as ``chars``."""
    return int("0" + chars.translate(_GROUP_BITS), 2)


def _order_field(n: int) -> str:
    """graph6's order: one byte up to 62, ``~`` and 3 bytes up to 258 047
    (whose first byte is never ``~``), ``~~`` and 6 bytes above that."""
    if n <= GRAPH6_MAX_ORDER:
        return _groups(n, 1)
    if n <= 258_047:
        return "~" + _groups(n, 3)
    return "~~" + _groups(n, 6)


def encode_graph6(g: Graph) -> str:
    """Encode in graph6: the order field, then the packed code with zero
    padding to whole 6-bit groups."""
    pair_count = g.n * (g.n - 1) // 2
    pad = -pair_count % 6
    return _order_field(g.n) + _groups(_pack_code(g) << pad, (pair_count + pad) // 6)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (leading/trailing whitespace ignored).

    Raises:
        ParseError: on empty input, illegal bytes, a truncated or non-minimal
            order field, a length that does not match the declared order
            (checked before the payload is decoded), or nonzero bits in the
            padding after the last vertex pair.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty graph6 string")
    for ch in s:
        if not "?" <= ch <= "~":
            raise ParseError(f"illegal graph6 byte {ord(ch)!r}")
    start, head = (0, 1) if s[0] != "~" else (1, 4) if s[1:2] != "~" else (2, 8)
    n = _from_groups(s[start:head])
    if s[:head] != _order_field(n):
        raise ParseError(f"malformed graph6 order field {s[:head]!r}")
    pair_count = n * (n - 1) // 2
    if len(s) != head + (pair_count + 5) // 6:
        raise ParseError(f"graph6 string of length {len(s)} does not match order {n}")
    code = _from_groups(s[head:])
    pad = -pair_count % 6
    if code & ((1 << pad) - 1):
        raise ParseError("graph6 string has nonzero padding bits")
    return _unpack_code(n, code >> pad)


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v"
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: a header ``n m`` then ``m`` lines ``u v``.

    Raises:
        ParseError: on a malformed line, a wrong edge count or a repeated pair.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"header declares {m} edges but {len(lines) - 1} lines follow")
    edges: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"expected edge line 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"non-integer edge line {ln!r}") from exc
        pair = (u, v) if u < v else (v, u)
        if pair in edges:
            raise ParseError(f"edge {u} {v} is listed twice")
        edges.add(pair)
    return Graph(n, frozenset(edges))


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list text format with edges in sorted order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Complete isomorphism invariant: trees of any order, other graphs up to
    :data:`CANONICAL_CEILING`.

    ``bits`` holds the lexicographically minimal upper-triangle adjacency
    bitstring over all vertex permutations; for trees it holds the centered
    rooted-subtree code instead (cheaper, same equality semantics).  The two
    alphabets are disjoint, so the routes can never collide.
    """

    n: int
    bits: str


def _pair_index(i: int, j: int) -> int:
    # column-major position of pair (i, j), i < j: (0,1), (0,2), (1,2), (0,3), ...
    return j * (j - 1) // 2 + i


def _pack_code(g: Graph) -> int:
    """The packed code: bit ``pair_count - 1 - _pair_index(u, v)`` per edge,
    so that integer order is bitstring order."""
    top = g.n * (g.n - 1) // 2 - 1
    return sum(1 << (top - _pair_index(u, v)) for u, v in g.edges)


def _unpack_code(n: int, code: int) -> Graph:
    """The graph of order ``n`` whose packed code is ``code``."""
    bits = format(code, f"0{n * (n - 1) // 2}b")
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph(n, frozenset(pair for pair, bit in zip(pairs, bits) if bit == "1"))


def _min_code(g: Graph) -> int:
    """Minimum packed code of ``g`` over every vertex permutation.

    Column ``j`` (vertex ``j``'s adjacency to ``0..j-1``) is compared before
    column ``j + 1`` and all columns of one step have the same length, so only
    a labeling prefix whose columns are minimal so far can finish minimal.  A
    state is the row of pending columns (each unused vertex's adjacency to the
    prefix, a sentinel for placed ones); equal rows have equal futures, so one
    of each is kept.
    """
    n = g.n
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1
    placed = np.iinfo(np.int64).max
    pending = adj.copy()  # row r: the prefix that starts at vertex r
    np.fill_diagonal(pending, placed)
    state = np.dtype((np.void, pending.itemsize * n))  # a row as one sortable item
    code = 0
    for j in range(1, n):
        column = pending.min()
        rows, verts = np.nonzero(pending == column)
        prev = pending[rows]
        pending = np.where(prev == placed, placed, (prev << 1) | adj[verts])
        pending[np.arange(rows.shape[0]), verts] = placed
        _, keep = np.unique(pending.view(state), return_index=True)
        pending = pending[keep]
        code = (code << j) | int(column)
    return code


def _tree_centers(g: Graph) -> list[int]:
    """The middle one or two vertices of a longest path of the tree."""
    path = _longest_path(g, _longest_path(g, 0)[0])
    return sorted(path[(len(path) - 1) // 2 : len(path) // 2 + 1])


def _rooted_code(g: Graph, root: int, blocked: int) -> str:
    """Sorted-subtree code of the tree rooted at ``root``, never crossing ``blocked``."""
    order, parent = _bfs_tree(g, root, blocked)
    below: list[list[str]] = [[] for _ in range(g.n)]
    for v in reversed(order[1:]):  # bottom-up: deep trees need no recursion
        below[parent[v]].append("(" + "".join(sorted(below[v])) + ")")
    return "(" + "".join(sorted(below[root])) + ")"


def _tree_code(g: Graph) -> str:
    """Canonical code for a free tree: root at the center (or central edge)."""
    centers = _tree_centers(g)
    if len(centers) == 1:
        return "1" + _rooted_code(g, centers[0], -1)
    a, b = centers
    ca = _rooted_code(g, a, b)
    cb = _rooted_code(g, b, a)
    lo, hi = sorted((ca, cb))
    return "2" + lo + hi


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form such that two graphs are isomorphic iff the forms are equal.

    Trees of any order take the linear-time centered-code route; every other
    graph gets its minimal packed code (:func:`_min_code`), whose search grows
    exponentially on sparse graphs, so it stops at :data:`CANONICAL_CEILING`.

    Raises:
        TooLarge: for a non-tree above :data:`CANONICAL_CEILING`.
    """
    if is_tree(g):
        return CanonicalForm(g.n, _tree_code(g))
    if g.n > CANONICAL_CEILING:
        raise TooLarge(
            f"canonical forms of non-trees are limited to order {CANONICAL_CEILING}"
        )
    pair_count = g.n * (g.n - 1) // 2
    if pair_count == 0:
        return CanonicalForm(g.n, "")
    bits = format(_min_code(g), f"0{pair_count}b")
    return CanonicalForm(g.n, bits)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism test via canonical forms (same order ceiling for non-trees)."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    return canonical_form(g1) == canonical_form(g2)
