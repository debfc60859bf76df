"""Graph families: paths, stars, double brooms, coalescence, relocation."""

import pytest

from algconn import (
    BroomParams,
    Infeasible,
    InvalidVertex,
    NotConnected,
    TooSmall,
    TrivialBranch,
    balanced_broom,
    coalescence,
    complete_graph,
    cycle_graph,
    diameter,
    double_broom,
    extremal_tree,
    from_edge_list,
    is_isomorphic,
    is_tree,
    matching_number,
    path_graph,
    relocate_branch,
    star_graph,
)
from algconn.families import branch_vertex_map
from conftest import brute_is_isomorphic


def test_path_star_cycle_complete_shapes():
    assert path_graph(5).degree_sequence() == (2, 2, 2, 1, 1)
    assert star_graph(4).degree_sequence() == (4, 1, 1, 1, 1)
    assert star_graph(4).degree(0) == 4  # center first
    assert cycle_graph(5).degree_sequence() == (2, 2, 2, 2, 2)
    assert complete_graph(4).m == 6
    assert star_graph(0).n == 1  # zero leaves: a single vertex
    with pytest.raises(TooSmall):
        path_graph(0)
    with pytest.raises(Infeasible):
        star_graph(-1)
    with pytest.raises(TooSmall):
        cycle_graph(2)
    with pytest.raises(TooSmall):
        complete_graph(0)


def test_double_broom_layout():
    g = double_broom(BroomParams(k=2, l=3, d=4))
    assert g.n == 9
    assert is_tree(g)
    # path 0..3, left leaves 4,5 on vertex 0, right leaves 6,7,8 on vertex 3
    assert g.neighbors(0) == frozenset({1, 4, 5})
    assert g.neighbors(3) == frozenset({2, 6, 7, 8})
    assert diameter(g) == 5


def test_double_broom_degenerations():
    assert is_isomorphic(double_broom(BroomParams(1, 1, 1)), path_graph(3))
    assert is_isomorphic(double_broom(BroomParams(2, 3, 1)), star_graph(5))
    assert is_isomorphic(double_broom(BroomParams(1, 0, 4)), path_graph(5))
    assert is_isomorphic(double_broom(BroomParams(0, 0, 6)), path_graph(6))
    assert is_isomorphic(double_broom(BroomParams(1, 1, 3)), path_graph(5))


def test_double_broom_rejects_bad_parameters():
    with pytest.raises(Infeasible):
        BroomParams(-1, 0, 3)
    with pytest.raises(Infeasible):
        BroomParams(0, -2, 3)
    with pytest.raises(Infeasible):
        BroomParams(1, 1, 0)
    with pytest.raises(TooSmall):
        double_broom(BroomParams(0, 0, 1))


def test_balanced_broom_split():
    g = balanced_broom(9, 4)
    # 5 spare leaves: left end gets 3, right end gets 2
    assert g.degree(0) == 4
    assert g.degree(3) == 3
    assert is_isomorphic(balanced_broom(5, 3), path_graph(5))
    assert is_isomorphic(balanced_broom(4, 1), star_graph(3))
    with pytest.raises(Infeasible):
        balanced_broom(4, 4)
    with pytest.raises(Infeasible):
        balanced_broom(5, 0)


def test_extremal_tree_matching_number():
    for n in range(2, 13):
        for beta in range(1, n // 2 + 1):
            t = extremal_tree(n, beta)
            assert t.n == n
            assert is_tree(t)
            assert matching_number(t) == beta
            if n >= 2 * beta + 2:
                assert diameter(t) == 2 * beta


def test_extremal_tree_small_cases():
    assert is_isomorphic(extremal_tree(5, 1), star_graph(4))
    assert is_isomorphic(extremal_tree(4, 2), path_graph(4))
    assert is_isomorphic(extremal_tree(5, 2), path_graph(5))
    with pytest.raises(Infeasible):
        extremal_tree(5, 3)
    with pytest.raises(Infeasible):
        extremal_tree(4, 0)


def test_branch_vertex_map():
    branch = path_graph(3)
    mapping = branch_vertex_map(10, branch, 1)
    assert mapping == [10, -1, 11]
    assert branch_vertex_map(4, path_graph(2), 0) == [-1, 4]


def test_coalescence_structure():
    host = path_graph(4)
    branch = star_graph(2)
    g = coalescence(host, 2, branch, 0)
    assert g.n == host.n + branch.n - 1
    assert g.m == host.m + branch.m
    assert g.neighbors(2) == frozenset({1, 3, 4, 5})
    expected = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)])
    assert g == expected
    assert brute_is_isomorphic(g, expected)


def test_coalescence_at_leaf_root():
    """Gluing a path by its end onto a path end extends the path."""
    g = coalescence(path_graph(3), 2, path_graph(3), 0)
    assert is_isomorphic(g, path_graph(5))


def test_relocate_branch_pair():
    host = path_graph(4)
    branch = path_graph(2)
    moved, original = relocate_branch(host, 0, 3, branch, 0)
    # moved attaches the branch at vertex 3, original at vertex 0
    assert moved == from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert original == from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    assert is_isomorphic(moved, path_graph(5))
    assert is_isomorphic(original, path_graph(5))


def test_relocate_branch_rejects_bad_input():
    host = path_graph(4)
    branch = path_graph(2)
    with pytest.raises(InvalidVertex):
        relocate_branch(host, 1, 1, branch, 0)
    with pytest.raises(InvalidVertex):
        relocate_branch(host, 0, 9, branch, 0)
    with pytest.raises(InvalidVertex):
        relocate_branch(host, -1, 1, branch, 0)
    with pytest.raises(InvalidVertex):
        coalescence(host, 4, branch, 0)
    with pytest.raises(InvalidVertex):
        coalescence(host, 0, branch, 2)
    with pytest.raises(TrivialBranch):
        relocate_branch(host, 0, 1, path_graph(1), 0)
    with pytest.raises(NotConnected):
        relocate_branch(from_edge_list(4, [(0, 1), (2, 3)]), 0, 1, branch, 0)
    with pytest.raises(NotConnected):
        relocate_branch(host, 0, 1, from_edge_list(3, [(0, 1)]), 0)
