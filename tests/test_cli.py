"""Command-line interface: parsing, output formats, exit codes."""

import io
import json

import pytest

from algconn import (
    VerificationReport,
    balanced_broom,
    extremal_tree,
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


def test_enumerate_empty_class_warns_but_succeeds(capsys):
    with pytest.warns(Warning):
        code = main(["enumerate", "trees", "--n", "6", "--beta", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ""


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


def test_both_input_forms_rejected(capsys, k3_file):
    code, _, err = run(capsys, "alpha", k3_file, "-i", k3_file)
    assert code == 2
    assert "not both" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "alpha", "/nonexistent/file.g6")
    assert code == 2
    assert "error:" in err


def test_bad_graph6_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("###\n"))
    code, _, err = run(capsys, "alpha", "-")
    assert code == 2


def test_empty_input_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, "alpha", "-")
    assert code == 2


def test_no_arguments_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_alpha_multiline_graph6_file(capsys, tmp_path):
    path = tmp_path / "batch.g6"
    from algconn import encode_graph6

    path.write_text(
        "\n".join(encode_graph6(path_graph(n)) for n in (3, 4, 5)) + "\n"
    )
    code, out, _ = run(capsys, "alpha", str(path))
    assert code == 0
    assert len(out.strip().splitlines()) == 3
