"""Core graph type, text formats, and canonical forms."""

import hashlib
import itertools
import random

import pytest

from algconn import (
    CanonicalForm,
    Graph,
    InvalidVertex,
    ParseError,
    SelfLoop,
    TooLarge,
    TooSmall,
    canonical_form,
    complete_graph,
    cycle_graph,
    diameter,
    encode_graph6,
    format_edge_list,
    from_edge_list,
    is_connected,
    is_isomorphic,
    is_tree,
    parse_edge_list,
    parse_graph6,
    path_graph,
    relabel,
    star_graph,
)
from algconn.enumeration import all_connected_graphs, all_trees
from algconn.graph import (
    CANONICAL_CEILING,
    GRAPH6_MAX_ORDER,
    _min_code,
    _tree_centers,
    _tree_code,
)
from algconn.matching import maximum_matching
from conftest import brute_canonical_code, brute_is_isomorphic, brute_min_packed_code


def random_graph(n, p, rng):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edge_list(n, edges)


def test_graph_basics():
    g = from_edge_list(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degree(2) == 2
    assert g.degree_sequence() == (2, 2, 1, 1)
    assert g.adjacency[0] == frozenset({1})


def test_graph_normalizes_edge_order():
    assert from_edge_list(3, [(2, 0)]) == from_edge_list(3, [(0, 2)])


def test_graph_rejects_self_loops_and_bad_vertices():
    with pytest.raises(SelfLoop):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(InvalidVertex):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(InvalidVertex):
        from_edge_list(3, [(-1, 0)])
    with pytest.raises(InvalidVertex):
        Graph(-1, frozenset())
    with pytest.raises(InvalidVertex):
        path_graph(3).neighbors(3)
    assert Graph(0, frozenset()).m == 0  # the empty graph is allowed


def test_repr_is_deterministic():
    g = from_edge_list(4, [(2, 3), (0, 1)])
    assert repr(g) == repr(from_edge_list(4, [(0, 1), (3, 2)]))


def test_relabel():
    g = path_graph(3)  # 0-1-2
    h = relabel(g, [2, 0, 1])  # old 0 -> 2, old 1 -> 0, old 2 -> 1
    assert h.sorted_edges() == [(0, 1), (0, 2)]
    with pytest.raises(InvalidVertex):
        relabel(g, [0, 0, 1])


def test_connectivity_predicates(zoo):
    assert is_connected(zoo["k1"])
    assert is_connected(zoo["p5"])
    assert not is_connected(zoo["two_edges"])
    assert not is_connected(zoo["empty3"])
    # too few edges to span: answered without building the neighbor sets
    huge = Graph(10**6)
    assert not is_connected(huge)
    assert "adjacency" not in huge.__dict__
    assert is_tree(zoo["p5"])
    assert is_tree(zoo["star5"])
    assert is_tree(zoo["k1"])
    assert not is_tree(zoo["c5"])
    assert not is_tree(zoo["two_edges"])


def test_diameter(zoo):
    assert diameter(zoo["k1"]) == 0
    assert diameter(zoo["p5"]) == 4
    assert diameter(zoo["k5"]) == 1
    assert diameter(zoo["c6"]) == 3
    assert diameter(zoo["star5"]) == 2
    from algconn import NotConnected

    with pytest.raises(NotConnected):
        diameter(zoo["two_edges"])
    with pytest.raises(TooSmall):
        diameter(Graph(0))


def test_graph6_known_strings():
    assert encode_graph6(complete_graph(3)) == "Bw"
    assert encode_graph6(path_graph(2)) == "A_"
    assert encode_graph6(from_edge_list(3, [(0, 1), (1, 2)])) == "Bg"
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6("A_") == path_graph(2)


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for n in [1, 2, 3, 7, 12, 20, 40, 62]:
        for p in (0.2, 0.7):
            g = random_graph(n, p, rng)
            assert parse_graph6(encode_graph6(g)) == g


def test_graph6_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("#")
    with pytest.raises(ParseError):
        parse_graph6("Bwww")  # too many payload bytes
    with pytest.raises(ParseError):
        parse_graph6("B")  # too few
    with pytest.raises(ParseError):
        parse_graph6("~?@?")  # order 64, no payload
    for field in ("~", "~?", "~~???", "~??B"):  # truncated, or 3 in long form
        with pytest.raises(ParseError, match="order field"):
            parse_graph6(field)


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 100])
def test_graph6_long_form_matches_networkx(n):
    """Above order 62 the order is ``~`` and three 6-bit groups; every order
    round-trips and matches networkx's encoder byte for byte."""
    nx = pytest.importorskip("networkx")
    g = random_graph(n, 0.3, random.Random(n))
    text = encode_graph6(g)
    assert text.startswith("~") == (n > GRAPH6_MAX_ORDER)
    assert parse_graph6(text) == g
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(g.edges)
    assert text == nx.to_graph6_bytes(reference, header=False).decode().strip()


def test_graph6_rejects_nonzero_padding():
    # K3 is "Bw"; "B~" sets the three padding bits after its three pairs
    with pytest.raises(ParseError):
        parse_graph6("B~")
    with pytest.raises(ParseError):
        parse_graph6("A`")  # K2 is "A_"; one padding bit set
    assert parse_graph6("Bw") == complete_graph(3)


def _seeded_graph6_lines():
    """Three seeded random graphs (edge densities 0.2 / 0.5 / 0.8) of every
    short-form order 0-62, with their graph6 lines."""
    rng = random.Random(62)
    graphs = [random_graph(n, p, rng) for n in range(63) for p in (0.2, 0.5, 0.8)]
    return graphs, [encode_graph6(g) for g in graphs]


#: sha256 of the newline-terminated graph6 lines of ``_seeded_graph6_lines``,
#: recorded when encode and parse each had their own bit loop, so that a
#: codec bug shared by both directions still fails this pin.
SEEDED_GRAPH6_SHA256 = "08079a62af4c1aec898b76b66927bf28007cd919adb6dd50f7e5c428b3b5ae0f"


def test_graph6_bytes_are_pinned():
    graphs, lines = _seeded_graph6_lines()
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_GRAPH6_SHA256
    for g, line in zip(graphs, lines):
        assert parse_graph6(line) == g, line


def test_graph6_rejects_every_padding_bit():
    """Each order with padding, each padding bit set alone, in the short
    form and the long form (63 on).  The pair count n(n-1)/2 is 0, 1, 3 or 4
    mod 6, so the padding is 0, 5, 3 or 2 bits."""
    widths = set()
    for n in range(2, 71):
        pad = -(n * (n - 1) // 2) % 6
        widths.add(pad)
        text = encode_graph6(complete_graph(n))
        assert (ord(text[-1]) - 63) & ((1 << pad) - 1) == 0
        for bit in range(pad):
            with pytest.raises(ParseError):
                parse_graph6(text[:-1] + chr(ord(text[-1]) + (1 << bit)))
    assert widths == {0, 2, 3, 5}


def test_edge_list_round_trip(zoo):
    for g in zoo.values():
        assert parse_edge_list(format_edge_list(g)) == g
    text = format_edge_list(zoo["p3"])
    assert text == "3 2\n0 1\n1 2\n"


def test_edge_list_rejects_malformed():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ParseError, match="non-integer header"):
        parse_edge_list("3 x\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 x\n")


@pytest.mark.parametrize("text", ["3 2\n0 1\n0 1\n", "3 2\n0 1\n1 0\n"])
def test_edge_list_rejects_repeated_edge(text):
    with pytest.raises(ParseError, match="edge . . is listed twice"):
        parse_edge_list(text)
    with pytest.raises(ParseError):
        parse_edge_list(text.replace("3 2", "3 3", 1) + "1 2\n")


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(11)
    for n in range(2, CANONICAL_CEILING + 1):
        g = random_graph(n, 0.5, rng)
        base = canonical_form(g)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == base


def test_canonical_form_separates_non_isomorphic():
    """On all graphs over 4 vertices, equal form must mean isomorphic."""
    graphs = []
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        graphs.append(from_edge_list(4, edges))
    for a, b in itertools.combinations(graphs, 2):
        same = canonical_form(a) == canonical_form(b)
        assert same == brute_is_isomorphic(a, b)


def test_is_isomorphic_matches_brute_force(zoo):
    named = [g for g in zoo.values() if g.n <= 6]
    for a, b in itertools.combinations(named, 2):
        assert is_isomorphic(a, b) == brute_is_isomorphic(a, b)
    star = star_graph(3)
    assert is_isomorphic(star, relabel(star, [3, 1, 0, 2]))


def test_tree_and_generic_codes_agree_on_trees():
    """A tree's code through the tree route must match any relabeling of it,
    and differ from every non-isomorphic tree's."""
    t1 = path_graph(6)
    t2 = star_graph(5)
    t3 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    forms = {canonical_form(t).bits for t in (t1, t2, t3)}
    assert len(forms) == 3
    assert canonical_form(relabel(t3, [5, 3, 0, 1, 2, 4])) == canonical_form(t3)


def test_canonical_form_size_limit():
    with pytest.raises(TooLarge):
        canonical_form(cycle_graph(CANONICAL_CEILING + 1))
    # trees take the linear-time route, which has no ceiling
    path = path_graph(CANONICAL_CEILING + 1)
    reversed_path = relabel(path, list(range(path.n))[::-1])
    assert canonical_form(path) == canonical_form(reversed_path)


@pytest.mark.parametrize("n", [11, 16, 3000])  # 3000: deeper than the recursion limit
def test_is_isomorphic_on_trees_above_the_ceiling(n):
    rng = random.Random(n)
    tree = from_edge_list(n, [(v, rng.randrange(v)) for v in range(1, n)])
    perm = list(range(n))
    rng.shuffle(perm)
    assert is_isomorphic(tree, relabel(tree, perm))
    assert is_isomorphic(path_graph(n), relabel(path_graph(n), perm))
    assert not is_isomorphic(path_graph(n), star_graph(n - 1))


def test_min_code_matches_brute_force(zoo):
    graphs = [g for n in range(1, 7) for g in all_connected_graphs(n)]
    graphs += [zoo[k] for k in ("two_edges", "edge_plus_isolated", "empty3")]
    graphs.append(from_edge_list(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))  # 4K2
    for g in graphs:
        assert _min_code(g) == brute_min_packed_code(g), encode_graph6(g)


def test_canonical_form_is_hashable_identity():
    f = canonical_form(path_graph(4))
    assert isinstance(f, CanonicalForm)
    assert hash(f) == hash(canonical_form(relabel(path_graph(4), [3, 2, 1, 0])))
    assert canonical_form(Graph(0)) == CanonicalForm(0, "")  # no pairs to order


def test_brute_code_consistency():
    """The test oracle itself must be permutation-invariant."""
    g = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    code = brute_canonical_code(g)
    assert brute_canonical_code(relabel(g, [4, 2, 3, 0, 1])) == code


def _walk_trees():
    """Every tree of order 1-9, three seeded random recursive trees of each
    order 2-299, and the path of order 3 000."""
    rng = random.Random(11)
    trees = [t for n in range(1, 10) for t in all_trees(n)]
    trees += [
        Graph(n, frozenset((rng.randrange(v), v) for v in range(1, n)))
        for n in range(2, 300)
        for _ in range(3)
    ]
    return trees + [path_graph(3000)]


#: sha256 of one line per tree of ``_walk_trees``: the tree (graph6, or its
#: edge list above the graph6 orders), its centred code, its centres, its
#: maximum matching and its diameter.  Recorded before the tree walks shared
#: one breadth-first search.
TREE_WALKS_SHA256 = "5c505b770dfabc5aad5f6a5f42f399f62cda97c73773d87bd7b9ba30385707ba"

#: sha256 of ``diameter`` and ``is_connected`` over every connected graph of
#: order at most 7, recorded at the same time.
CONNECTED_WALKS_SHA256 = "ff9aea00d7a7a988a210b79a8bbb1ae16135f3a2b1469c63c6b8f428c6df62b2"


def test_tree_walk_outputs_pinned():
    trees = _walk_trees()
    assert len(trees) == 95 + 894 + 1
    lines = "".join(
        repr(
            (
                encode_graph6(t) if t.n <= GRAPH6_MAX_ORDER else format_edge_list(t),
                _tree_code(t),
                _tree_centers(t),
                maximum_matching(t).sorted_edges(),
                diameter(t),
            )
        )
        + "\n"
        for t in trees
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == TREE_WALKS_SHA256
    graphs = [g for n in range(1, 8) for g in all_connected_graphs(n)]
    assert len(graphs) == 996
    lines = "".join(f"{diameter(g)} {is_connected(g)}\n" for g in graphs)
    assert hashlib.sha256(lines.encode()).hexdigest() == CONNECTED_WALKS_SHA256
