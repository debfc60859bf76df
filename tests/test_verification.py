"""Closed-form bounds, verification reports, and the target runners."""

import hashlib
import json
from collections import Counter

import numpy as np
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
from algconn import enumeration, matching, verification
from algconn.cli import main
from algconn.families import branch_vertex_map, coalescence, relocate_branch
from algconn.graph import is_connected
from algconn.spectral import eigen_symmetric, laplacian
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
            # the paper's own form of the bound, in the edge cover number
            denom = -4 * gamma * gamma + 4 * gamma * (n - 2) + 6 * n + 5
            assert bound_cover(n, gamma) == 8 / denom


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


def test_report_csv_shape(capsys):
    assert main(["verify", "thm31", "--n", "4", "--output", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "target,params,passed,checked,skipped,min_gap,witnesses"
    assert len(lines) == 2
    assert lines[1].startswith("thm31,")
    assert "CF" in lines[1]


def test_failing_report_above_order_62(monkeypatch, capsys):
    """A failed verdict on order-63 brooms is a report with long-form graph6
    witnesses, and the CLI exits 1 with it rather than 2."""
    monkeypatch.setattr(verification, "GAP_TOL", 10.0)
    report = verify("lem25", n_min=63, n_max=63)
    assert report.passed is False
    assert {parse_graph6(w.graph6).n for w in report.witnesses} == {63}
    assert main(["verify", "lem25", "--n-min", "63", "--n-max", "63"]) == 1
    assert json.loads(capsys.readouterr().out) == report.to_json_dict()


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
    # each runner's order and grid checks, before any enumeration starts
    for target, params, error in [
        ("thm31", {"n": 1}, TooSmall),
        ("thm32", {"n": 1}, TooSmall),
        ("cor33", {"n": 1}, TooSmall),
        ("lem23", {"n": 2}, TooSmall),
        ("lem25", {"n_min": 1}, TooSmall),
        ("lem25", {"n_min": 8, "n_max": 7}, Infeasible),
        ("chain33", {"n_min": 1}, TooSmall),
        ("chain33", {"n_min": 8, "n_max": 7}, Infeasible),
        ("bound35", {"n": 1}, TooSmall),
        ("bound36", {"n": 1}, TooSmall),
        ("lem34", {"k_min": 0}, Infeasible),
        ("lem34", {"dm1_min": 4, "dm1_max": 3}, Infeasible),
        ("lem26", {"n": 0}, TooSmall),
        ("cor27", {"n": 0}, TooSmall),
        ("gallai", {"n": 1}, TooSmall),
        ("fiedler21", {"n": 1}, TooSmall),
    ]:
        with pytest.raises(error):
            verify(target, **params)
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


def test_cor33_computes_each_matching_number_once(monkeypatch):
    """The cover filter runs once per β class, but every pass and the
    verifier's witnesses share one cached β per graph."""
    calls = Counter()

    def counted(g):
        calls[g] += 1
        return matching.matching_number(g)

    monkeypatch.setattr(enumeration, "matching_number", counted)
    enumeration._beta_of.cache_clear()
    assert verify("cor33", n=6).passed
    assert len(calls) == 112
    assert max(calls.values()) == 1


@pytest.mark.parametrize("target", ["lem26", "cor27"])
def test_preserves_matching_runs_one_dp_per_graph(monkeypatch, target):
    """The builders' check reads the host's β from the shared cache, so the
    subset DP runs only on the built subgraph, once per checked graph."""
    calls = []

    def counted(g):
        calls.append(g)
        return matching._bitmask_matching(g)

    monkeypatch.setattr(verification, "_bitmask_matching", counted)
    report = verify(target, n=6)
    assert report.passed
    assert len(calls) == report.checked


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


#: sha256 of ``verify("lem22", seed=s, count=c).to_json()`` concatenated
#: over seeds 0-9 (outer) and counts 1, 50, 600 (inner), with no separator.
#: Recorded while every draw still built its own relocation pair.
LEM22_REPORTS_SHA256 = "4916f057d8a887bedf5aa070ad19014ac2ad8fb9f4f7221c1a253219895d137a"


def test_lem22_reports_pinned():
    text = "".join(
        verify("lem22", seed=s, count=c).to_json() for s in range(10) for c in (1, 50, 600)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == LEM22_REPORTS_SHA256


def test_glued_spectra_match_relocation_pairs():
    """Every table entry is bit for bit the spectrum of the first graph of
    the relocation pair that glues the same branch onto the same vertex."""
    hosts = verification._relocation_hosts()
    branches = verification._relocation_branches()
    assert all(is_connected(g) for g in hosts + branches)
    keys = [
        (h, v, b, u)
        for h, g1 in enumerate(hosts)
        for v in range(g1.n)
        for b, g2 in enumerate(branches)
        for u in range(g2.n)
    ]
    assert len(keys) == 2314
    for h, v, b, u in keys:
        w = (v + 1) % hosts[h].n
        g = relocate_branch(hosts[h], w, v, branches[b], u)[0]
        old = eigen_symmetric(laplacian(g))
        new = verification._glued_spectrum(h, v, b, u)
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.vectors, old.vectors)
        assert not new.values.flags.writeable and not new.vectors.flags.writeable


def test_glued_spectrum_cache_is_bounded_by_its_keys():
    verification._glued_spectrum.cache_clear()
    verify("lem22", seed=1, count=600)
    assert 0 < verification._glued_spectrum.cache_info().currsize <= 2314


def test_witness_alphas_recompute():
    data = verify("thm31", n=6).to_json_dict()
    for wit in data["witnesses"]:
        g = parse_graph6(wit["graph6"])
        assert abs(algebraic_connectivity(g) - wit["alpha"]) <= 1e-9


def test_branch_side_of_v2_is_the_branch_around_u():
    """lem22's equality check reads the branch neighbours of ``u`` as the
    neighbours of ``v2`` numbered from the host order on."""
    for g1 in verification._relocation_hosts():
        for g2 in verification._relocation_branches():
            for u in range(g2.n):
                mapping = branch_vertex_map(g1.n, g2, u)
                around_u = {mapping[w] for w in g2.adjacency[u]}
                for v2 in range(g1.n):
                    g = coalescence(g1, v2, g2, u)
                    assert {w for w in g.adjacency[v2] if w >= g1.n} == around_u
