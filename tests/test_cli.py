import json

import pytest

from bezmin.cli import main
from bezmin.poly import Polynomial


@pytest.fixture()
def poly_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(Polynomial([0, 1]).to_json_dict()))
    b.write_text(json.dumps(Polynomial([1, -1]).to_json_dict()))
    return str(a), str(b)


def test_roots_command(poly_files, capsys):
    a, b = poly_files
    assert main(["roots", b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["roots"] == [[1.0, 0.0]]
    assert out["verified"] is True


def test_delta_command_json(poly_files, capsys):
    a, b = poly_files
    assert main(["--json", "delta", a, b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == 1.0
    assert abs(out["delta_tilde_upper"] - 0.5) < 1e-6
    assert out["sandwich_ok"] is True


def test_solve_all_backends(poly_files, capsys):
    a, b = poly_files
    assert main(["--json", "solve", a, b, "--backend", "all"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"sylvester", "residue", "quadrature", "reversed"}
    for name in ("sylvester", "residue", "quadrature"):
        assert out[name]["residual"] <= 1e-9
        assert out[name]["R"]["coeffs"] == [[1.0, 0.0]]
    # z and 1-z have a root at 0, so the reversal route refuses
    assert "error" in out["reversed"]
    assert "ZeroRoot" in out["reversed"]["error"]


def test_solve_monomial_rhs(poly_files, capsys):
    a, b = poly_files
    assert main(["--json", "solve", a, b, "--rhs", "monomial:1"]) == 0
    out = json.loads(capsys.readouterr().out)
    # z * R + (1-z) * S = z has R = 1 - ... let the residual speak
    assert out["sylvester"]["residual"] <= 1e-12


def test_solve_common_root_exits_nonzero(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(Polynomial([0, 1]).to_json_dict()))
    assert main(["solve", str(a), str(a)]) == 1


def test_regions_command(poly_files, tmp_path, capsys):
    a, b = poly_files
    svg = tmp_path / "r.svg"
    arcs = tmp_path / "arcs.json"
    code = main([
        "--json", "regions", a, b,
        "--kind", "ea,eb",
        "--svg", str(svg),
        "--arcs-json", str(arcs),
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["E_A"]["n_loops"] == 1
    assert svg.exists() and svg.read_text().startswith("<?xml")
    dumped = json.loads(arcs.read_text())
    assert "E_A" in dumped and dumped["E_A"]["arcs"]
    first = dumped["E_A"]["arcs"][0]
    assert {"center", "radius", "start_angle", "end_angle"} <= set(first)


def test_sylvester_command(poly_files, capsys):
    a, b = poly_files
    assert main(["--json", "sylvester", a, b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"] == [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]]
    assert out["resultant"]["abs_det"] == pytest.approx(1.0)
    assert out["inverse_norm"]["max_entry_norm"] == pytest.approx(1.0)


def test_examples_command(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "all examples PASS" in out


def test_figures_command_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "f1"
    out2 = tmp_path / "f2"
    assert main(["--out", str(out1), "figures"]) == 0
    assert main(["--out", str(out2), "figures"]) == 0
    for name in ("fig1_regions.svg", "fig3_oriented.svg",
                 "fig4_ea_da.svg", "fig5_gamma1.svg"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2 and len(b1) > 100
    counts = json.loads((out1 / "figures.json").read_text())
    assert counts["fig1"] == {"E_A_components": 2, "E_B_components": 1}
    assert counts["fig5"]["alphas"] == [1, 1, 1]
    assert counts["fig5"]["betas"] == [0, 0, 0, 0]


def _strip_timing(report: dict) -> dict:
    for rec in report.get("records", []):
        rec.pop("seconds", None)
    report.get("aggregates", {}).pop("total_seconds", None)
    return report


def test_certify_small_run_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    args = ["--seed", "7", "certify", "--count", "12",
            "--separation-samples", "500"]
    assert main(["--out", str(out1)] + args) == 0
    assert main(["--out", str(out2)] + args) == 0
    r1 = _strip_timing(json.loads((out1 / "certify_report.json").read_text()))
    r2 = _strip_timing(json.loads((out2 / "certify_report.json").read_text()))
    assert r1 == r2
    assert r1["aggregates"]["records"] + sum(
        r1["aggregates"]["rejections"].values()
    ) == 12
    for rec in r1["records"]:
        assert rec["checks"]["separation"] is True
        assert rec["checks"]["sandwich"] is True
        assert "sylvester" in rec["backends"]
        assert 0 < rec["tilde_steps"] < rec["tilde_evals"]


def test_certify_vacuous_floor(tmp_path, capsys):
    # a delta floor above the boundedness constant rejects everything
    code = main(["--out", str(tmp_path), "--seed", "3", "certify",
                 "--count", "5", "--delta-floor", "50.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no records accepted" in out
    report = json.loads((tmp_path / "certify_report.json").read_text())
    assert report["aggregates"]["records"] == 0


@pytest.mark.parametrize("count", ["0", "-1"])
def test_certify_count_below_one_is_usage_error(tmp_path, capsys, count):
    code = main(["--out", str(tmp_path), "certify", "--count", count])
    assert code == 2
    captured = capsys.readouterr()
    assert "--count" in captured.err
    assert "no records accepted" not in captured.out
    assert not (tmp_path / "certify_report.json").exists()


def test_tolerance_override_usage_error():
    assert main(["--tol", "bogus", "examples"]) == 2


def test_missing_file_usage_error(tmp_path):
    assert main(["roots", str(tmp_path / "missing.json")]) == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_certify_worker_pool_matches_sequential(tmp_path):
    args = ["--seed", "11", "certify", "--count", "8",
            "--separation-samples", "400"]
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    assert main(["--out", str(seq)] + args) == 0
    assert main(["--out", str(par)] + args + ["--workers", "2"]) == 0
    r1 = _strip_timing(json.loads((seq / "certify_report.json").read_text()))
    r2 = _strip_timing(json.loads((par / "certify_report.json").read_text()))
    assert r1 == r2


def test_solve_quadrature_nonconvergence_exit_code(tmp_path):
    # a higher-degree pair keeps ~1e-13 fluctuation under doubling, so an
    # absurd tolerance cannot be met and the command reports non-convergence
    import numpy as np

    from bezmin.ensemble import random_pair

    inst = random_pair(np.random.default_rng(63), 5, 5, delta_floor=0.05,
                       require_simple=True)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(inst.A.to_json_dict()))
    b.write_text(json.dumps(inst.B.to_json_dict()))
    code = main(["--tol", "quadrature=1e-30", "solve", str(a), str(b),
                 "--backend", "quadrature"])
    assert code == 3


def test_solve_rhs_power_out_of_range_is_usage_error(poly_files):
    a, b = poly_files
    assert main(["solve", a, b, "--rhs", "monomial:9"]) == 2
