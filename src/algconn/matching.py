"""Matching number, edge cover number, and matching-preserving spanning subgraphs.

The spanning tree keeps one maximum matching: a single Kruskal pass takes the
matching edges first and then the other edges in descending order, which
builds the same tree as deleting the smallest non-matching edge of a cycle
until none is left.

Trees take the greedy matching over the breadth-first walk of
:func:`algconn.graph._bfs_tree`, the one walk the graph, matching and
spectral modules share; other graphs take the subset DP.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IsolatedVertex, NoCycle, NotConnected, TooLarge
from .graph import Graph, _bfs_tree, is_connected, is_tree

#: Subset-DP matching works on any graph up to this order.  The DP solves
#: only the vertex subsets reachable from the full set; K_n has the most of
#: them (121 393 at n = 24).
MATCHING_DP_CEILING = 24


@dataclass(frozen=True)
class Matching:
    """A set of pairwise non-adjacent edges, normalized like graph edges."""

    edges: frozenset

    @property
    def size(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _bitmask_matching(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum matching by DP over vertex subsets; witness is the
    lexicographically smallest maximum matching (edges compared as sorted
    pairs, sets compared in sorted order)."""
    n = g.n
    if n > MATCHING_DP_CEILING:
        raise TooLarge(
            f"subset DP matching is limited to order {MATCHING_DP_CEILING}"
        )
    nbr_mask = [0] * n
    for u, v in g.edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    # Memoised top-down, so only subsets reachable from the full vertex set
    # are solved; every solved subset also has all its successors solved,
    # which the witness walk below relies on.  Recursion depth is at most n.
    dp = {0: 0}

    def solve(mask: int) -> int:
        best = dp.get(mask)
        if best is not None:
            return best
        vbit = mask & -mask
        v = vbit.bit_length() - 1
        rest = mask ^ vbit
        best = solve(rest)
        avail = nbr_mask[v] & rest
        while avail:
            ubit = avail & -avail
            cand = solve(rest ^ ubit) + 1
            if cand > best:
                best = cand
            avail ^= ubit
        dp[mask] = best
        return best

    full = (1 << n) - 1
    solve(full)

    edges: list[tuple[int, int]] = []
    mask = full
    while mask:
        vbit = mask & -mask
        v = vbit.bit_length() - 1
        rest = mask ^ vbit
        # match v to its lowest neighbour that keeps dp[mask]; leave it
        # unmatched only if none does (that never loses a matched lower vertex)
        target = dp[mask]
        mask = rest
        avail = nbr_mask[v] & rest
        while avail:
            ubit = avail & -avail
            if dp[rest ^ ubit] + 1 == target:
                edges.append((v, ubit.bit_length() - 1))
                mask = rest ^ ubit
                break
            avail ^= ubit
    return dp[full], edges


def _tree_matching(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum matching of a tree by the leaf-upward greedy rule: a vertex
    its subtree leaves unmatched is matched to its parent, and a parent with
    several such children takes the largest."""
    order, parent = _bfs_tree(g, 0)
    taken = [-1] * g.n  # the child each vertex is matched to
    for v in reversed(order):  # every child before its parent
        p = parent[v]
        if taken[v] < 0 and p >= 0 and v > taken[p]:
            taken[p] = v
    edges = [(v, p) if v < p else (p, v) for p, v in enumerate(taken) if v >= 0]
    return len(edges), edges


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching witness.

    Trees of any order use the linear greedy algorithm, whose witness does
    not depend on the walk order; other graphs use the subset DP, whose witness is
    the lexicographically smallest maximum matching.

    Raises:
        TooLarge: for non-trees above :data:`MATCHING_DP_CEILING`.
    """
    if is_tree(g):
        _, edges = _tree_matching(g)
    else:
        _, edges = _bitmask_matching(g)
    return Matching(frozenset(edges))


def matching_number(g: Graph) -> int:
    """Size of a maximum matching."""
    return maximum_matching(g).size


def edge_cover_number(g: Graph) -> int:
    """Minimum number of edges covering every vertex, via the complement
    identity with the matching number.

    Raises:
        IsolatedVertex: when some vertex has no incident edge (no cover exists).
    """
    for v in range(g.n):
        if not g.adjacency[v]:
            raise IsolatedVertex(f"vertex {v} has no incident edge")
    return g.n - matching_number(g)


def spanning_tree_preserving_matching(g: Graph) -> Graph:
    """Spanning tree with the same matching number as the host graph.

    One Kruskal pass with a union-find forest: the edges of one maximum
    matching go in first (they share no vertex, so none closes a cycle),
    then the other edges in descending order, each kept when it joins two
    components.  The fixed matching survives into the tree.

    Ranking matching edges above all others and larger edges above smaller
    ones makes the result the unique maximum spanning tree.  It is also what
    repeatedly deleting the smallest non-matching edge of some cycle gives:
    that edge is the lightest on its cycle, so by the cycle property it is
    never in the maximum spanning tree.

    Raises:
        NotConnected: when the input is disconnected.
    """
    if not is_connected(g):
        raise NotConnected("spanning trees require a connected graph")
    kept = maximum_matching(g).edges
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree = []
    for u, v in [*kept, *sorted(g.edges - kept, reverse=True)]:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            tree.append((u, v))
    return Graph(g.n, frozenset(tree))


def spanning_unicyclic_preserving_matching(g: Graph) -> Graph:
    """Connected spanning subgraph with exactly one cycle and the host's
    matching number: the matching-preserving spanning tree plus the smallest
    leftover edge.

    Raises:
        NotConnected: when the input is disconnected.
        NoCycle: when the input is itself a tree (no cycle to keep).
    """
    if not is_connected(g):
        raise NotConnected("spanning subgraphs require a connected graph")
    if g.m < g.n:
        raise NoCycle("the graph is a tree; it has no cycle")
    tree = spanning_tree_preserving_matching(g)
    extra = min(g.edges - tree.edges)
    return Graph(g.n, tree.edges | {extra})
