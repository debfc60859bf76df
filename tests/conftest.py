"""Shared fixtures and brute-force oracles.

The oracles deliberately avoid the algorithms under test: matching by
exhaustive search over edge combinations or by a DP table over every vertex
subset, canonical and minimal packed codes by trying every vertex
permutation, spanning-tree counts by exact integer elimination on a
Laplacian cofactor.  They are slow and only meant for small graphs.
"""

import itertools

import pytest

from algconn import (
    Graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
    star_graph,
)


def brute_matching_number(g: Graph) -> int:
    """Largest k admitting k pairwise vertex-disjoint edges."""
    edges = g.sorted_edges()
    for k in range(g.n // 2, 0, -1):
        for combo in itertools.combinations(edges, k):
            seen = set()
            for u, v in combo:
                if u in seen or v in seen:
                    break
                seen.add(u)
                seen.add(v)
            else:
                return k
    return 0


def full_table_matching(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum matching by the bottom-up subset DP that fills all 2^n vertex
    subsets, with the same lexicographically smallest witness walk as the
    package's memoised DP."""
    n = g.n
    nbr_mask = [0] * n
    for u, v in g.edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    size = 1 << n
    dp = bytearray(size)
    for mask in range(1, size):
        vbit = mask & -mask
        v = vbit.bit_length() - 1
        rest = mask ^ vbit
        best = dp[rest]
        avail = nbr_mask[v] & rest
        while avail:
            ubit = avail & -avail
            cand = dp[rest ^ ubit] + 1
            if cand > best:
                best = cand
            avail ^= ubit
        dp[mask] = best

    edges: list[tuple[int, int]] = []
    mask = size - 1
    while mask:
        vbit = mask & -mask
        v = vbit.bit_length() - 1
        rest = mask ^ vbit
        if dp[mask] == dp[rest]:
            target = dp[mask]
            avail = nbr_mask[v] & rest
            matched = False
            while avail:
                ubit = avail & -avail
                if dp[rest ^ ubit] + 1 == target:
                    u = ubit.bit_length() - 1
                    edges.append((v, u))
                    mask = rest ^ ubit
                    matched = True
                    break
                avail ^= ubit
            if not matched:
                mask = rest
        else:
            avail = nbr_mask[v] & rest
            while avail:
                ubit = avail & -avail
                if dp[rest ^ ubit] + 1 == dp[mask]:
                    u = ubit.bit_length() - 1
                    edges.append((v, u))
                    mask = rest ^ ubit
                    break
                avail ^= ubit
    return dp[size - 1], edges


def brute_min_edge_cover(g: Graph):
    """Smallest edge subset covering every vertex; None when impossible."""
    if any(not g.adjacency[v] for v in range(g.n)):
        return None
    edges = g.sorted_edges()
    everything = set(range(g.n))
    for k in range(1, g.m + 1):
        for combo in itertools.combinations(edges, k):
            covered = set()
            for u, v in combo:
                covered.add(u)
                covered.add(v)
            if covered == everything:
                return k
    return g.m


def brute_canonical_code(g: Graph):
    """Minimal row-major upper-triangle tuple over all relabelings.

    Uses a different tie-breaking order than the package on purpose; only
    equality of codes is meaningful.
    """
    n = g.n
    adj = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = 1
    best = None
    for perm in itertools.permutations(range(n)):
        code = tuple(
            adj[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n)
        )
        if best is None or code < best:
            best = code
    return (n, best)


def _column_weights(n: int) -> dict:
    """Bit weight of each pair in the package's code order: pairs column by
    column, (0,1), (0,2), (1,2), (0,3), ..., the first pair most significant."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return {pair: 1 << (len(pairs) - 1 - k) for k, pair in enumerate(pairs)}


def packed_code(g: Graph) -> int:
    """The graph's edge set packed in the package's code order."""
    weight = _column_weights(g.n)
    return sum(weight[e] for e in g.edges)


def brute_min_packed_code(g: Graph) -> int:
    """Smallest :func:`packed_code` over every relabeling of ``g``."""
    weight = _column_weights(g.n)
    edges = g.sorted_edges()
    best = None
    for perm in itertools.permutations(range(g.n)):
        code = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            code |= weight[(a, b) if a < b else (b, a)]
        if best is None or code < best:
            best = code
    return best if best is not None else 0


def brute_is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return brute_canonical_code(a) == brute_canonical_code(b)


def spanning_tree_count(g: Graph) -> int:
    """Kirchhoff's theorem with Bareiss integer elimination (exact)."""
    n = g.n
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            m[k] = [-x for x in m[k]]  # keep the determinant's sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[size - 1][size - 1]


@pytest.fixture(scope="session")
def zoo():
    """Named small graphs covering the structural corner cases."""
    return {
        "k1": Graph(1, frozenset()),
        "k2": path_graph(2),
        "p3": path_graph(3),
        "p4": path_graph(4),
        "p5": path_graph(5),
        "k3": complete_graph(3),
        "k4": complete_graph(4),
        "k5": complete_graph(5),
        "c4": cycle_graph(4),
        "c5": cycle_graph(5),
        "c6": cycle_graph(6),
        "star4": star_graph(4),
        "star5": star_graph(5),
        "paw": from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        "bull": from_edge_list(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
        "two_edges": from_edge_list(4, [(0, 1), (2, 3)]),
        "edge_plus_isolated": from_edge_list(3, [(0, 1)]),
        "empty3": Graph(3, frozenset()),
    }
