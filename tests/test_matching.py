"""Matching number, edge covers, and matching-preserving spanning subgraphs."""

import hashlib
import random

import pytest

from algconn import (
    Graph,
    IsolatedVertex,
    NoCycle,
    NotConnected,
    TooLarge,
    all_connected_graphs,
    all_trees,
    complete_graph,
    cycle_graph,
    edge_cover_number,
    encode_graph6,
    from_edge_list,
    is_connected,
    is_tree,
    matching_number,
    maximum_matching,
    path_graph,
    spanning_tree_preserving_matching,
    spanning_unicyclic_preserving_matching,
    star_graph,
)
from algconn.matching import MATCHING_DP_CEILING, _bitmask_matching
from conftest import brute_matching_number, brute_min_edge_cover, full_table_matching

#: sha256 of the builders' graph6 lines in ``test_spanning_builders_outputs_pinned``.
TREES_SHA256 = "b992f7fcd953044845e8aabd27b92cbb83c769b50f662e006e1669a80074fcbf"
UNICYCLIC_SHA256 = "3241d0bf87ca492466d67700dce0140c991601f69a72ff62f88cf76351c869a8"


def test_matching_number_known_values(zoo):
    assert matching_number(zoo["k1"]) == 0
    assert matching_number(zoo["empty3"]) == 0
    assert matching_number(zoo["k2"]) == 1
    assert matching_number(zoo["p4"]) == 2
    assert matching_number(zoo["p5"]) == 2
    assert matching_number(zoo["star5"]) == 1
    assert matching_number(zoo["k5"]) == 2
    assert matching_number(zoo["c6"]) == 3
    assert matching_number(zoo["two_edges"]) == 2
    assert matching_number(path_graph(10)) == 5


def test_matching_number_matches_brute_force(zoo):
    for g in zoo.values():
        assert matching_number(g) == brute_matching_number(g)


def test_matching_number_matches_brute_force_exhaustive():
    for n in range(2, 7):
        for g in all_connected_graphs(n):
            assert matching_number(g) == brute_matching_number(g)


def _random_connected(n: int, m: int, rng: random.Random) -> Graph:
    """A random spanning tree plus random extra edges, ``m`` edges in all."""
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(edges))


def test_dp_matches_full_table(zoo):
    """The memoised DP gives the same size and witness as the 2^n table."""
    graphs = list(zoo.values())
    for n in range(1, 8):
        graphs.extend(all_connected_graphs(n))
    for n in range(1, 10):
        graphs.extend(all_trees(n))
    rng = random.Random(20141)
    for n in range(12, 19):
        graphs.extend(_random_connected(n, 2 * n - 1, rng) for _ in range(2))
    for g in graphs:
        assert _bitmask_matching(g) == full_table_matching(g), g


def test_dp_handles_the_ceiling_worst_case():
    """K_n has the most reachable subsets of any graph of order n."""
    assert matching_number(complete_graph(MATCHING_DP_CEILING)) == (
        MATCHING_DP_CEILING // 2
    )


def test_tree_route_agrees_with_dp():
    """Trees use a leaf-stripping shortcut; it must agree with the subset DP."""
    from algconn.matching import _tree_matching

    for n in range(2, 10):
        for t in all_trees(n):
            assert _tree_matching(t)[0] == _bitmask_matching(t)[0]


def test_maximum_matching_is_a_matching(zoo):
    for g in zoo.values():
        m = maximum_matching(g)
        assert m.size == matching_number(g)
        seen = set()
        for u, v in m.edges:
            assert (u, v) in g.edges
            assert u not in seen and v not in seen
            seen.add(u)
            seen.add(v)
        assert m.sorted_edges() == sorted(m.edges)


def test_maximum_matching_deterministic():
    g = cycle_graph(6)
    assert maximum_matching(g).edges == maximum_matching(g).edges
    assert maximum_matching(g).sorted_edges() == [(0, 1), (2, 3), (4, 5)]


def test_matching_size_limit():
    with pytest.raises(TooLarge):
        matching_number(Graph(MATCHING_DP_CEILING + 1, frozenset()))
    # trees bypass the subset DP and its ceiling
    assert matching_number(path_graph(40)) == 20


def test_edge_cover_gallai(zoo):
    for name, g in zoo.items():
        if any(not g.adjacency[v] for v in range(g.n)):
            continue
        gamma = edge_cover_number(g)
        assert gamma == g.n - matching_number(g), name
        assert gamma == brute_min_edge_cover(g), name


def test_edge_cover_rejects_isolated_vertices(zoo):
    with pytest.raises(IsolatedVertex):
        edge_cover_number(zoo["edge_plus_isolated"])
    with pytest.raises(IsolatedVertex):
        edge_cover_number(zoo["k1"])


def test_edge_cover_exhaustive_small():
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            assert edge_cover_number(g) == brute_min_edge_cover(g)


def test_spanning_tree_preserves_matching_exhaustive():
    for n in range(2, 8):
        for g in all_connected_graphs(n):
            t = spanning_tree_preserving_matching(g)
            assert t.n == g.n
            assert is_tree(t)
            assert t.edges <= g.edges
            assert maximum_matching(g).edges <= t.edges
            assert matching_number(t) == matching_number(g)


def test_spanning_tree_of_tree_is_itself():
    t = path_graph(6)
    assert spanning_tree_preserving_matching(t) == t


def test_spanning_tree_rejects_disconnected(zoo):
    with pytest.raises(NotConnected):
        spanning_tree_preserving_matching(zoo["two_edges"])


def test_spanning_unicyclic_preserves_matching_exhaustive():
    for n in range(3, 8):
        for g in all_connected_graphs(n):
            if g.m < g.n:
                continue
            u = spanning_unicyclic_preserving_matching(g)
            assert u.n == g.n
            assert u.m == u.n  # connected with exactly one cycle
            assert is_connected(u)
            assert u.edges <= g.edges
            assert maximum_matching(g).edges <= u.edges
            assert matching_number(u) == matching_number(g)


def test_spanning_builders_outputs_pinned():
    """The graph6 lines both builders return, hashed: every connected graph
    of order at most 7, then seeded random graphs of order 12 to 18."""
    graphs = [g for n in range(1, 8) for g in all_connected_graphs(n)]
    rng = random.Random(2014)
    for n in range(12, 19):
        graphs.extend(_random_connected(n, m, rng) for m in (n - 1, n, 2 * n))
    trees = "\n".join(
        encode_graph6(spanning_tree_preserving_matching(g)) for g in graphs
    )
    unicyclic = "\n".join(
        encode_graph6(spanning_unicyclic_preserving_matching(g))
        for g in graphs
        if g.m >= g.n
    )
    assert hashlib.sha256(trees.encode()).hexdigest() == TREES_SHA256
    assert hashlib.sha256(unicyclic.encode()).hexdigest() == UNICYCLIC_SHA256


def test_spanning_unicyclic_rejects_trees_and_disconnected(zoo):
    with pytest.raises(NoCycle):
        spanning_unicyclic_preserving_matching(zoo["p4"])
    with pytest.raises(NotConnected):
        spanning_unicyclic_preserving_matching(zoo["two_edges"])


def test_star_matching_and_cover():
    for leaves in range(1, 8):
        s = star_graph(leaves)
        assert matching_number(s) == 1
        assert edge_cover_number(s) == leaves
