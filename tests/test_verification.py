"""Closed-form bounds, verification reports, and the target runners."""

import json

import pytest

from algconn import (
    Infeasible,
    TooSmall,
    UnknownTarget,
    VerificationReport,
    WitnessRecord,
    algebraic_connectivity,
    bound_cover,
    bound_matching,
    extremal_tree,
    kirkland_bound,
    parse_graph6,
    path_alpha,
    path_graph,
    verify,
)
from algconn.verification import GAP_TOL, TARGETS


def test_bound_matching_frozen_values():
    assert bound_matching(5, 1) == 8 / 19
    assert bound_matching(4, 2) == 8 / 29
    assert bound_matching(5, 2) == 8 / 35
    assert bound_matching(2, 1) == 8 / 13


def test_bound_matching_rational_form():
    """The bound is 8 over an integer; spot-check the denominator directly."""
    for n, beta in [(5, 1), (7, 2), (12, 3), (50, 25)]:
        denom = -4 * beta * beta + 4 * beta * (n + 2) - 2 * n + 5
        assert denom > 0
        assert bound_matching(n, beta) == 8 / denom


def test_bound_cover_identity_bit_exact():
    for n in range(2, 51):
        for beta in range(1, n // 2 + 1):
            gamma = n - beta
            assert bound_cover(n, gamma) == bound_matching(n, beta)


def test_bound_rejects_infeasible():
    with pytest.raises(Infeasible):
        bound_matching(4, 3)  # 2*beta > n
    with pytest.raises(Infeasible):
        bound_matching(4, 0)
    with pytest.raises(Infeasible):
        bound_cover(4, 1)  # gamma < n/2
    with pytest.raises(Infeasible):
        bound_cover(4, 4)  # gamma > n - 1
    with pytest.raises(Infeasible):
        bound_matching(1, 0)


def test_kirkland_bound_frozen_values():
    assert kirkland_bound(1, 1, 3) == 8 / 35
    assert kirkland_bound(2, 2, 2) == 0.25
    assert kirkland_bound(2, 1, 4) == 1 / 7


def test_kirkland_bound_rejects_bad_parameters():
    with pytest.raises(Infeasible):
        kirkland_bound(0, 1, 3)
    with pytest.raises(Infeasible):
        kirkland_bound(1, 0, 3)
    with pytest.raises(Infeasible):
        kirkland_bound(1, 1, 1)


def test_path_alpha_closed_form():
    assert abs(path_alpha(2) - 2.0) <= 1e-15
    assert abs(path_alpha(3) - 1.0) <= 1e-15
    for n in (2, 5, 17, 50):
        assert abs(path_alpha(n) - algebraic_connectivity(path_graph(n))) <= 1e-9
    with pytest.raises(TooSmall):
        path_alpha(1)


def test_report_json_shape():
    report = verify("thm32", n=3)
    data = json.loads(report.to_json())
    assert list(data) == [
        "target",
        "params",
        "passed",
        "checked",
        "skipped",
        "min_gap",
        "witnesses",
    ]
    assert data["target"] == "thm32"
    assert data["params"] == {"n": 3}
    assert data["passed"] is True
    assert data["checked"] == 2
    assert data["skipped"] == 0
    assert abs(data["min_gap"] - 2.0) <= 1e-9
    wit = data["witnesses"][0]
    assert list(wit) == ["graph6", "alpha", "beta"]
    assert wit["graph6"] == "BW"
    assert wit["beta"] == 1


def test_report_floats_use_twelve_significant_digits():
    report = VerificationReport(
        "thm31", {"n": 4}, True, 1, 0, 0.12345678901234567, (
            WitnessRecord("CF", 0.9999999999999998, 1),
        )
    )
    data = report.to_json_dict()
    assert data["min_gap"] == 0.123456789012
    assert data["witnesses"][0]["alpha"] == 1.0


def test_report_csv_shape():
    report = verify("thm31", n=4)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "target,params,passed,checked,skipped,min_gap,witnesses"
    assert len(lines) == 2
    assert lines[1].startswith("thm31,")
    assert "CF" in lines[1]


def test_reports_are_reproducible():
    assert verify("lem25").to_json() == verify("lem25").to_json()
    a = verify("lem22", seed=7, count=20)
    b = verify("lem22", seed=7, count=20)
    assert a.to_json() == b.to_json()
    c = verify("lem22", seed=8, count=20)
    assert c.to_json_dict()["params"]["seed"] == 8


def test_verify_rejects_unknown_targets_and_parameters():
    with pytest.raises(UnknownTarget):
        verify("lem99")
    with pytest.raises(Infeasible):
        verify("thm31", bogus=1)
    with pytest.raises(Infeasible):
        verify("lem22", count=0)
    assert set(TARGETS) >= {
        "thm31",
        "thm32",
        "cor33",
        "lem22",
        "lem23",
        "lem24",
        "lem24alt",
        "lem25",
        "chain33",
        "lem26",
        "cor27",
        "bound35",
        "bound36",
        "lem34",
        "gallai",
        "fiedler21",
    }


def test_verify_propagates_internal_type_errors(monkeypatch):
    """Only a parameter-binding failure is reported as Infeasible; a
    TypeError raised inside a runner is a bug and must surface as one."""

    def broken(n):
        raise TypeError("internal bug")

    monkeypatch.setattr("algconn.verification.all_trees", broken)
    with pytest.raises(TypeError, match="internal bug"):
        verify("thm31", n=5)


def test_thm31_small():
    report = verify("thm31", n=5)
    data = report.to_json_dict()
    assert data["passed"] is True
    assert data["checked"] == 3
    minimizers = {w["beta"]: w["graph6"] for w in data["witnesses"]}
    from algconn import is_isomorphic

    assert is_isomorphic(parse_graph6(minimizers[2]), extremal_tree(5, 2))
    assert is_isomorphic(parse_graph6(minimizers[1]), extremal_tree(5, 1))


def test_thm32_and_cor33_agree():
    a = verify("thm32", n=5).to_json_dict()
    b = verify("cor33", n=5).to_json_dict()
    assert a["passed"] and b["passed"]
    assert a["witnesses"] == b["witnesses"]
    assert a["checked"] == b["checked"] == 21
    assert a["min_gap"] == b["min_gap"]


def test_lem23_diameter_classes():
    report = verify("lem23", n=7, d=3).to_json_dict()
    assert report["passed"] is True
    with pytest.raises(Infeasible):
        verify("lem23", n=7, d=6)
    full = verify("lem23", n=7).to_json_dict()
    assert full["passed"] is True
    assert full["params"] == {"n": 7, "d": None}


def test_lem24_both_readings_reported():
    main = verify("lem24").to_json_dict()
    alt = verify("lem24alt").to_json_dict()
    assert main["passed"] is True
    assert main["checked"] == 288
    assert main["min_gap"] > GAP_TOL
    assert alt["params"]["reading"] == "T(k,l+1,d+1)"
    assert isinstance(alt["passed"], bool)


def test_lem25_and_chain33():
    r25 = verify("lem25").to_json_dict()
    assert r25["passed"] is True
    assert r25["min_gap"] > GAP_TOL
    r33 = verify("chain33").to_json_dict()
    assert r33["passed"] is True
    rng = verify("lem25", n_min=8, n_max=10).to_json_dict()
    assert rng["params"] == {"n_min": 8, "n_max": 10}
    assert rng["passed"] is True


def test_bound_targets_small():
    for target in ("bound35", "bound36"):
        data = verify(target, n=5).to_json_dict()
        assert data["passed"] is True
        assert data["checked"] == 21
        assert data["min_gap"] > 0
        assert len(data["witnesses"]) == 1


def test_lem34_grid():
    data = verify("lem34").to_json_dict()
    assert data["passed"] is True
    assert data["checked"] == 150  # 5 * 5 * 6 grid points
    small = verify("lem34", k_max=2, l_max=2, dm1_max=3).to_json_dict()
    assert small["checked"] == 8
    assert small["passed"] is True


def test_structure_targets_small():
    assert verify("lem26", n=5).to_json_dict()["passed"] is True
    assert verify("cor27", n=5).to_json_dict()["passed"] is True
    assert verify("gallai", n=5).to_json_dict()["passed"] is True
    assert verify("fiedler21", n=6).to_json_dict()["passed"] is True


def test_lem22_sampling():
    data = verify("lem22", seed=3, count=50).to_json_dict()
    assert data["passed"] is True
    assert data["checked"] == 50
    assert data["skipped"] >= 0
    assert data["witnesses"] == []


def test_witness_alphas_recompute():
    data = verify("thm31", n=6).to_json_dict()
    for wit in data["witnesses"]:
        g = parse_graph6(wit["graph6"])
        assert abs(algebraic_connectivity(g) - wit["alpha"]) <= 1e-9
