"""Command-line interface: parsing, output formats, exit codes."""

import hashlib
import io
import json
import warnings

import pytest

from algconn import (
    VerificationReport,
    all_trees,
    balanced_broom,
    encode_graph6,
    extremal_tree,
    format_edge_list,
    is_isomorphic,
    parse_graph6,
    path_graph,
)
from algconn.cli import main

K3_EDGELIST = "3 3\n0 1\n0 2\n1 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_EDGELIST)
    return str(path)


def test_alpha_json(capsys, k3_file):
    code, out, _ = run(capsys, "alpha", k3_file, "--format", "edgelist")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == 3.0
    assert data["multiplicity"] == 2
    assert len(data["vector"]) == 3


def test_alpha_csv(capsys, k3_file):
    code, out, _ = run(
        capsys, "alpha", k3_file, "--format", "edgelist", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,multiplicity,vector"
    assert lines[1].startswith("3,2,")


def test_alpha_graph6_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nBW\n"))
    code, out, _ = run(capsys, "alpha", "-")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["alpha"] == 3.0
    assert json.loads(lines[1])["alpha"] == 1.0


def test_invariants_connected(capsys, k3_file):
    code, out, _ = run(capsys, "invariants", k3_file, "--format", "edgelist")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "m": 3,
        "connected": True,
        "alpha": 3.0,
        "beta": 1,
        "gamma": 2,
        "diameter": 1,
    }


def test_invariants_disconnected_drops_diameter(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, out, _ = run(capsys, "invariants", str(path), "--format", "edgelist")
    assert code == 0
    data = json.loads(out)
    assert data["connected"] is False
    assert data["alpha"] == 0.0
    assert data["gamma"] == 2
    assert "diameter" not in data


def test_invariants_isolated_vertex_drops_gamma(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n0 1\n")
    code, out, _ = run(capsys, "invariants", str(path), "--format", "edgelist")
    assert code == 0
    data = json.loads(out)
    assert "gamma" not in data
    assert "diameter" not in data
    assert data["beta"] == 1


def test_invariants_runs_the_matching_dp_once_per_graph(capsys, monkeypatch):
    from algconn import matching

    calls = []
    dp = matching._bitmask_matching

    def counted(g):
        calls.append(g)
        return dp(g)

    monkeypatch.setattr(matching, "_bitmask_matching", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nC~\nCr\n"))  # K3, K4, C4
    code, out, _ = run(capsys, "invariants", "-")
    assert code == 0
    assert [json.loads(line)["gamma"] for line in out.splitlines()] == [2, 2, 2]
    assert len(calls) == 3


def test_construct_extremal(capsys):
    code, out, _ = run(capsys, "construct", "extremal", "--n", "6", "--beta", "2")
    assert code == 0
    g = parse_graph6(out.strip())
    assert is_isomorphic(g, extremal_tree(6, 2))


def test_construct_broom_json(capsys):
    code, out, _ = run(
        capsys,
        "construct", "broom", "--k", "2", "--l", "1", "--d", "3",
        "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6
    assert data["m"] == 5
    parse_graph6(data["graph6"])


def test_construct_balanced(capsys):
    code, out, _ = run(capsys, "construct", "balanced", "--n", "7", "--d", "3")
    assert code == 0
    assert is_isomorphic(parse_graph6(out.strip()), balanced_broom(7, 3))


def test_construct_infeasible_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "extremal", "--n", "4", "--beta", "3")
    assert code == 2
    assert "error:" in err


def test_classify_type_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("DBg\n"))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "I"
    assert "characteristic_vertex" in data
    assert isinstance(data["zero_set"], list)


def test_classify_type_two(capsys, tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "classify", str(path), "--format", "edgelist")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "II"
    assert sorted(data["characteristic_edge"]) == [1, 2]


def test_classify_dot_output(capsys, tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = run(
        capsys, "classify", str(path), "--format", "edgelist", "--output", "dot"
    )
    assert code == 0
    assert out.startswith("graph G {")
    assert "doublecircle" in out
    assert "--" in out


def test_classify_dot_solves_each_tree_once(capsys, monkeypatch):
    from algconn import spectral

    calls = []
    solve = spectral.eigen_symmetric

    def counted(matrix):
        calls.append(len(matrix))
        return solve(matrix)

    monkeypatch.setattr(spectral, "eigen_symmetric", counted)
    trees = list(all_trees(6))
    stdin = "".join(encode_graph6(t) + "\n" for t in trees)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, _ = run(capsys, "classify", "-", "--output", "dot")
    assert code == 0
    assert out.count("graph G {") == len(trees) == 6
    assert calls == [6] * len(trees)


def test_classify_non_tree_fails(capsys, k3_file):
    code, _, err = run(capsys, "classify", k3_file, "--format", "edgelist")
    assert code == 2
    assert "trees" in err


def test_enumerate_trees(capsys):
    code, out, _ = run(capsys, "enumerate", "trees", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        g = parse_graph6(line)
        assert g.n == 6


def test_enumerate_with_beta_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "trees", "--n", "6", "--beta", "3")
    assert code == 0
    from algconn import matching_number

    graphs = [parse_graph6(s) for s in out.strip().splitlines()]
    assert len(graphs) == 2
    assert all(matching_number(g) == 3 for g in graphs)


def test_enumerate_gamma_equals_complement(capsys):
    code1, out1, _ = run(capsys, "enumerate", "trees", "--n", "6", "--gamma", "4")
    code2, out2, _ = run(capsys, "enumerate", "trees", "--n", "6", "--beta", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_enumerate_json_array(capsys):
    code, out, _ = run(
        capsys, "enumerate", "connected", "--n", "4", "--output", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list)
    assert len(data) == 6


#: sha256 of ``algconn enumerate connected --n 7`` stdout with these extra
#: arguments, recorded before the connected classes came from one pass over
#: every edge mask.
ENUMERATE_CONNECTED_7_SHA256 = {
    (): "1a11d6c4436f420f4444beabe0f188c97408b9b36af4a3eeffd9b7f41e2a5258",
    ("--beta", "3"): "4c6d73708e292011f7fb1927885147ce47c9e91865412b46edde50c7e13b6f82",
    ("--gamma", "4"): "4c6d73708e292011f7fb1927885147ce47c9e91865412b46edde50c7e13b6f82",
    ("--output", "json"): "9eeee09bb9d04994485f4f9bbfc923e9d814648681b42a081373900ed52db640",
}


@pytest.mark.parametrize("extra", sorted(ENUMERATE_CONNECTED_7_SHA256))
def test_enumerate_connected_bytes_are_pinned(capsys, extra):
    code, out, err = run(capsys, "enumerate", "connected", "--n", "7", *extra)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_CONNECTED_7_SHA256[extra]


def test_enumerate_order_one_with_matching_number_zero(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "enumerate", "trees", "--n", "1", "--beta", "0")
    assert code == 0
    assert (out, err) == ("@\n", "")


def test_enumerate_empty_class_warns_but_succeeds(capsys):
    warning = "warning: no connected graph of order 6 has matching number 9\n"
    for _ in range(2):  # a second empty filter in the same process warns too
        assert run(capsys, "enumerate", "trees", "--n", "6", "--beta", "9") == (
            0,
            "",
            warning,
        )


def test_enumerate_rejects_conflicting_filters(capsys):
    code, _, err = run(
        capsys, "enumerate", "trees", "--n", "6", "--beta", "2", "--gamma", "4"
    )
    assert code == 2


def test_verify_passing_target(capsys):
    code, out, _ = run(capsys, "verify", "thm32", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["target"] == "thm32"


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "thm31", "--n", "4", "--output", "csv")
    assert code == 0
    assert out.splitlines()[0] == (
        "target,params,passed,checked,skipped,min_gap,witnesses"
    )


def test_verify_failing_target_exits_one(capsys, monkeypatch):
    report = VerificationReport("thm31", {"n": 4}, False, 1, 0, None, ())
    monkeypatch.setattr("algconn.cli.verify", lambda target, **kw: report)
    code, out, _ = run(capsys, "verify", "thm31", "--n", "4")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_unknown_target_is_usage_error(capsys):
    code = main(["verify", "lem99"])
    captured = capsys.readouterr()
    assert code == 2


def test_verify_infeasible_parameters_are_usage_error(capsys):
    code, out, err = run(capsys, "verify", "thm31", "--n", "1")
    assert code == 2
    assert out == ""
    assert err == "error: no tree class below order 2\n"


def test_verify_seed_passthrough(capsys):
    code, out, _ = run(
        capsys, "verify", "lem22", "--seed", "5", "--count", "10"
    )
    assert code == 0
    data = json.loads(out)
    assert data["params"] == {"seed": 5, "count": 10}
    assert data["checked"] == 10


def test_verify_runs_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "thm31", "--n", "5")
    _, out2, _ = run(capsys, "verify", "thm31", "--n", "5")
    assert out1 == out2


def test_bounds_values(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "5", "--beta", "2")
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == 3
    assert abs(data["bound_matching"] - 8 / 35) <= 1e-12
    assert data["bound_matching"] == data["bound_cover"]
    assert data["kirkland"]["value"] == data["bound_matching"]


def test_bounds_kirkland_absent_for_stars(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "5", "--beta", "1")
    assert code == 0
    assert json.loads(out)["kirkland"] is None


def test_repeated_edge_is_usage_error(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 0\n")
    code, out, err = run(capsys, "invariants", str(path), "--format", "edgelist")
    assert code == 2
    assert out == ""
    assert err == "error: edge 1 0 is listed twice\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "alpha", "/nonexistent/file.g6")
    assert code == 2
    assert "error:" in err


def test_bad_graph6_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("###\n"))
    code, _, err = run(capsys, "alpha", "-")
    assert code == 2


def test_graph6_padding_bits_are_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("B~\n"))
    code, out, err = run(capsys, "alpha", "-")
    assert code == 2
    assert out == ""
    assert "padding" in err


def test_order_above_dense_ceiling_is_usage_error(capsys, tmp_path):
    from algconn.spectral import DENSE_CEILING

    n = DENSE_CEILING + 1
    edgelist = tmp_path / "long_path.txt"
    edgelist.write_text(format_edge_list(path_graph(n)))
    graph6 = tmp_path / "long_path.g6"  # long form: "~" and three order bytes
    graph6.write_text(encode_graph6(path_graph(n)) + "\n")
    for sub in ("alpha", "invariants", "classify"):
        for path, fmt in ((edgelist, "edgelist"), (graph6, "graph6")):
            code, out, err = run(capsys, sub, str(path), "--format", fmt)
            assert code == 2
            assert out == ""
            assert "dense" in err


def test_empty_input_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, "alpha", "-")
    assert code == 2


def test_no_arguments_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv, output",
    [
        (["alpha", "-"], "dot"),
        (["invariants", "-"], "dot"),
        (["classify", "-"], "csv"),
        (["enumerate", "trees", "--n", "4"], "csv"),
        (["verify", "thm31", "--n", "4"], "dot"),
        (["bounds", "--n", "5", "--beta", "2"], "graph6"),
        (["construct", "extremal", "--n", "5", "--beta", "2"], "csv"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value,
)
def test_unsupported_output_is_usage_error(capsys, monkeypatch, argv, output):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code = main([*argv, "--output", output])
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_alpha_multiline_graph6_file(capsys, tmp_path):
    path = tmp_path / "batch.g6"
    from algconn import encode_graph6

    path.write_text(
        "\n".join(encode_graph6(path_graph(n)) for n in (3, 4, 5)) + "\n"
    )
    code, out, _ = run(capsys, "alpha", str(path))
    assert code == 0
    assert len(out.strip().splitlines()) == 3
