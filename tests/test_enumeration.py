"""Isomorph-free enumeration of trees and connected graphs."""

import hashlib
import itertools

import pytest

from algconn import (
    EmptyClassWarning,
    GraphStream,
    TooLarge,
    TooSmall,
    all_connected_graphs,
    all_trees,
    canonical_form,
    edge_cover_number,
    encode_graph6,
    from_edge_list,
    is_connected,
    is_tree,
    matching_number,
    parse_graph6,
    with_cover,
    with_matching,
)
from algconn.enumeration import CONNECTED_CEILING, TREE_CEILING, _orbit_minima
from algconn.graph import _min_code, _unpack_code
from conftest import brute_canonical_code, brute_min_packed_code, packed_code

TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
#: Isomorphism classes of all graphs, connected or not (OEIS A000088).
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def brute_unlabeled(n, keep):
    """Independent dedup: all labeled graphs, filtered, grouped by the
    permutation-minimal adjacency tuple."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = from_edge_list(n, edges)
        if keep(g):
            seen.add(brute_canonical_code(g))
    return seen


@pytest.mark.parametrize("n", sorted(TREE_COUNTS))
def test_tree_counts(n):
    trees = list(all_trees(n))
    assert len(trees) == TREE_COUNTS[n]
    for t in trees:
        assert t.n == n
        assert is_tree(t)


@pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
def test_connected_counts(n):
    graphs = list(all_connected_graphs(n))
    assert len(graphs) == CONNECTED_COUNTS[n]
    for g in graphs:
        assert g.n == n
        assert is_connected(g)


def test_trees_match_brute_force_dedup():
    for n in range(2, 7):
        expected = brute_unlabeled(n, is_tree)
        got = {brute_canonical_code(t) for t in all_trees(n)}
        assert got == expected


def test_connected_match_brute_force_dedup():
    for n in range(2, 6):
        expected = brute_unlabeled(n, is_connected)
        got = {brute_canonical_code(g) for g in all_connected_graphs(n)}
        assert got == expected


def test_enumeration_yields_no_isomorphic_pair():
    for n in range(2, 8):
        forms = [canonical_form(t) for t in all_trees(n)]
        assert len(set(forms)) == len(forms)
    for n in range(2, 7):
        forms = [canonical_form(g) for g in all_connected_graphs(n)]
        assert len(set(forms)) == len(forms)


def test_enumeration_is_deterministic():
    first = [encode_graph6(t) for t in all_trees(7)]
    second = [encode_graph6(t) for t in all_trees(7)]
    assert first == second


def test_representatives_are_lex_minimal():
    """Each representative carries the smallest packed code over every
    relabeling of itself."""
    reps = [t for n in range(1, 8) for t in all_trees(n)]
    reps += [t for t in all_trees(9) if max(t.degree_sequence()) == 8]  # K_{1,8}
    reps += [g for n in range(1, 7) for g in all_connected_graphs(n)]
    for g in reps:
        assert packed_code(g) == brute_min_packed_code(g), encode_graph6(g)


@pytest.mark.parametrize("n", range(1, TREE_CEILING + 1))
def test_trees_match_networkx(n):
    nx = pytest.importorskip("networkx")
    theirs = [
        canonical_form(from_edge_list(n, t.edges()))
        for t in nx.nonisomorphic_trees(n)
    ]
    ours = [canonical_form(t) for t in all_trees(n)]
    assert len(ours) == len(theirs)
    assert set(ours) == set(theirs)


@pytest.mark.parametrize("n", sorted(GRAPH_COUNTS))
def test_orbit_minima_one_increasing_code_per_class(n):
    minima = _orbit_minima(n)
    assert len(minima) == GRAPH_COUNTS[n]
    assert all(a < b for a, b in zip(minima, minima[1:]))


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_minima_match_brute_force(n):
    # disconnected classes included: the pass scans every edge mask
    for code in _orbit_minima(n):
        assert code == brute_min_packed_code(_unpack_code(n, code))


def test_orbit_minima_match_min_code_at_ceiling():
    n = CONNECTED_CEILING
    for code in _orbit_minima(n):
        assert code == _min_code(_unpack_code(n, code))


#: sha256 of the newline-joined graph6 lines that ``algconn enumerate``
#: prints, recorded from the Prüfer-decoding enumerator this one replaced.
ENUMERATION_SHA256 = {
    ("trees", 1): "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    ("trees", 2): "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    ("trees", 3): "c690f114c997123e2ebadb17c59d6a04591cb27785812b615b793b97096190eb",
    ("trees", 4): "5dc0d3070f07599baf84277c59ee1ae126ddd2112a2453589d0055de11f10d82",
    ("trees", 5): "c5f7e39930e37d030e0aa8d12ef48ebce4c591fd1a37d3e8769024e1d83e25d5",
    ("trees", 6): "f7feac261a97ae47a78feca3963da051b90d7aae20299d5967b5b39ee82f3165",
    ("trees", 7): "645a0dc29a08f9edb5d0eabe60829f6e4d5679a7feafc019e43a19cd735f6022",
    ("trees", 8): "dea16b03f7b8a7858690d06ffbb04183f513f5f7c3a5e1ee088b4f8cf65db1cd",
    ("trees", 9): "c6cfb6413ec0b525e2d3b841542b88cd3de599bb8b5c5875062d16cb19c29e50",
    ("connected", 1): "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    ("connected", 2): "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    ("connected", 3): "2c1256ffd0617e16898c604363be63a1bf9bd24d83d6227d4b2adb3360248bd3",
    ("connected", 4): "eec0a9726484cd3cb56686025c5ff3a7780a37c3c3fb0d7794738cf94d2f5dc8",
    ("connected", 5): "30b08bcc0fca444494db961a0c18f6088f7dde0300c939477ae0b9a83b875cfc",
    ("connected", 6): "f330c66c870406f131aa5e5a02ac0eb9f361cbe0d754307f4c53643cff47cc2d",
    ("connected", 7): "ecd411e3288953d62b3b1545515694c961ef628725f6155da2eac04955f0b089",
}


@pytest.mark.parametrize("kind,n", sorted(ENUMERATION_SHA256))
def test_enumeration_bytes_are_pinned(kind, n):
    stream = all_trees(n) if kind == "trees" else all_connected_graphs(n)
    text = "\n".join(encode_graph6(g) for g in stream)
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_SHA256[(kind, n)]


def test_trees_subset_of_connected():
    for n in range(2, 8):
        tree_forms = {canonical_form(t) for t in all_trees(n)}
        conn_forms = {canonical_form(g) for g in all_connected_graphs(n)}
        assert tree_forms <= conn_forms
        conn_trees = {
            canonical_form(g) for g in all_connected_graphs(n) if is_tree(g)
        }
        assert conn_trees == tree_forms


def test_size_guards():
    with pytest.raises(TooLarge):
        list(all_trees(TREE_CEILING + 1))
    with pytest.raises(TooLarge):
        list(all_connected_graphs(CONNECTED_CEILING + 1))
    with pytest.raises(TooSmall):
        all_trees(0)
    with pytest.raises(TooSmall):
        all_connected_graphs(0)
    assert [t.n for t in all_trees(1)] == [1]
    assert [g.n for g in all_connected_graphs(1)] == [1]


def test_matching_filter():
    stream = with_matching(all_trees(7), 2)
    trees = list(stream)
    assert trees
    assert all(matching_number(t) == 2 for t in trees)
    everything = list(all_trees(7))
    by_beta = sum(
        len(list(with_matching(all_trees(7), b))) for b in range(1, 4)
    )
    assert by_beta == len(everything)


def test_cover_filter_is_matching_complement():
    n = 6
    for gamma in range(3, n):
        covered = [encode_graph6(g) for g in with_cover(all_trees(n), gamma)]
        matched = [
            encode_graph6(g) for g in with_matching(all_trees(n), n - gamma)
        ]
        assert covered == matched
        for g in with_cover(all_trees(n), gamma):
            assert edge_cover_number(g) == gamma


def test_empty_class_warns():
    with pytest.warns(EmptyClassWarning):
        stream = with_matching(all_trees(6), 9)
    assert list(stream) == []
    with pytest.warns(EmptyClassWarning):
        stream = with_matching(all_trees(6), 0)
    assert list(stream) == []
    with pytest.warns(EmptyClassWarning):
        stream = with_cover(all_trees(6), 1)
    assert list(stream) == []


def test_order_one_has_no_edge_cover():
    for stream in (all_trees(1), all_connected_graphs(1)):
        for gamma in (0, 1):
            with pytest.warns(EmptyClassWarning):
                covered = with_cover(stream, gamma)
            assert list(covered) == []


def test_order_one_has_matching_number_zero(recwarn):
    assert [encode_graph6(g) for g in with_matching(all_trees(1), 0)] == ["@"]
    assert [encode_graph6(g) for g in with_matching(all_connected_graphs(1), 0)] == ["@"]
    assert not [w for w in recwarn if issubclass(w.category, EmptyClassWarning)]
    with pytest.warns(EmptyClassWarning):
        stream = with_matching(all_trees(1), 1)
    assert list(stream) == []


def test_stream_is_reusable():
    stream = all_trees(6)
    assert isinstance(stream, GraphStream)
    assert [encode_graph6(t) for t in stream] == [
        encode_graph6(t) for t in stream
    ]


def test_graph6_round_trip_on_enumerated():
    for n in range(2, 8):
        for t in all_trees(n):
            assert parse_graph6(encode_graph6(t)) == t
    for g in all_connected_graphs(6):
        assert parse_graph6(encode_graph6(g)) == g
