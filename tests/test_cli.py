import json

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

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


def test_delta_command_applies_the_sandwich_tolerance(poly_files, capsys, monkeypatch):
    from bezmin import separation

    def loose_upper(pair, **kwargs):
        return 0.4, pair.delta_min[0] + 1e-6, 0j

    monkeypatch.setattr(separation, "delta_tilde", loose_upper)
    a, b = poly_files
    assert main(["--json", "delta", a, b]) == 1
    assert json.loads(capsys.readouterr().out)["sandwich_ok"] is False
    assert main(["--json", "--tol", "sandwich=1e-5", "delta", a, b]) == 0
    assert json.loads(capsys.readouterr().out)["sandwich_ok"] is True


def test_delta_command_checks_the_papers_lower_bound(poly_files, capsys, monkeypatch):
    # the paper bounds delta-tilde below by delta / 3^max(N, K), here 1/3;
    # a lower end under it breaks the sandwich although lower <= upper <= delta
    from bezmin import separation

    def low_lower(pair, **kwargs):
        return 1.0 / 3.0 - 1e-3, 0.5, 0.5 + 0j

    monkeypatch.setattr(separation, "delta_tilde", low_lower)
    a, b = poly_files
    assert main(["--json", "delta", a, b]) == 1
    assert json.loads(capsys.readouterr().out)["sandwich_ok"] is False


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


def test_solve_monomial_rhs(poly_files, tmp_path, capsys):
    a, b = poly_files
    assert main(["--json", "solve", a, b, "--rhs", "monomial:1"]) == 0
    out = json.loads(capsys.readouterr().out)
    # z * R + (1-z) * S = z has R = 1 - ... let the residual speak
    assert out["sylvester"]["residual"] <= 1e-12

    # A(0) and B(0) are nonzero, so all four backends run; each must solve
    # A R + B S = z^t for every t in 0..N+K-1, checked here with
    # numpy.polynomial rather than by the reported residual
    coeffs_a, coeffs_b = [1.0, 1.0, 0.5], [2.0, -1.0]
    a, b = tmp_path / "a2.json", tmp_path / "b2.json"
    a.write_text(json.dumps(Polynomial(coeffs_a).to_json_dict()))
    b.write_text(json.dumps(Polynomial(coeffs_b).to_json_dict()))
    for t in range(len(coeffs_a) + len(coeffs_b) - 2):
        argv = ["--json", "solve", str(a), str(b), "--backend", "all",
                "--rhs", f"monomial:{t}"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"sylvester", "residue", "quadrature", "reversed"}
        for name, res in out.items():
            assert "error" not in res, (name, t, res)
            R, S = ([complex(*c) for c in res[key]["coeffs"]] for key in "RS")
            lhs = npoly.polyadd(npoly.polymul(coeffs_a, R),
                                npoly.polymul(coeffs_b, S))
            err = npoly.polysub(lhs, [0.0] * t + [1.0])
            assert np.max(np.abs(err)) <= 1e-9, (name, t)


def test_text_output_of_pair_commands(poly_files, capsys):
    # without --json each pair command prints its text report
    a, b = poly_files
    assert main(["delta", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta            1"
    assert lines[2] == "tilde bracket    [0.499123317638, 0.5]"
    assert lines[4:] == ["sandwich_ok      True", "common_root      False"]

    assert main(["solve", a, b, "--backend", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["sylvester: residual 0.000e+00",
                         "  R coeffs [[1.0, 0.0]]", "  S coeffs [[1.0, 0.0]]"]
    assert [line.split(":")[0] for line in lines[::3]] == [
        "sylvester", "residue", "quadrature", "reversed"]
    assert lines[-1] == ("reversed: ZeroRootError: A(0) or B(0) vanishes; "
                         "use the Sylvester backend")

    assert main(["sylvester", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Sylvester matrix (2 x 2):"
    assert lines[1].split() == ["0+0j", "1+0j"]
    assert lines[3] == "|resultant|   det 1   via A(beta) 1   via B(alpha) 1"
    assert lines[-1] == "tightness ratio         1"

    assert main(["regions", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["E_A: 1 loops, length 2.0944", "E_B: 1 loops, length 2.0944"]


def test_solve_common_root_exits_nonzero(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(Polynomial([0, 1]).to_json_dict()))
    assert main(["solve", str(a), str(a)]) == 1


def test_pair_of_different_scales_is_not_a_common_root(tmp_path, capsys):
    # A = 1e13 (z - 1) and B = z + 2: |A| at -2 is 3e13, |B| at 1 is 3
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(Polynomial([-1, 1]).scale(1e13).to_json_dict()))
    b.write_text(json.dumps(Polynomial([2, 1]).to_json_dict()))
    assert main(["--json", "solve", str(a), str(b), "--backend", "all"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(res["residual"] <= 1e-9 for res in out.values())
    assert main(["--json", "delta", str(a), str(b)]) == 0
    assert json.loads(capsys.readouterr().out)["common_root"] is False


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


def test_one_build_and_one_factorisation_per_pair(
    poly_files, tmp_path, monkeypatch, capsys
):
    # a certify pair, a `solve --backend all` and a sylvester call build the
    # pair once, find the roots of A and of B once each, evaluate delta at
    # the roots once and take the Sylvester matrix's singular values once,
    # which the sylvester and reversed backends and the inverse-norm report
    # share; a certify pair and the sylvester command take one determinant,
    # and the quadrature backend builds one rule per order for both contours
    import sys
    from functools import cached_property

    from bezmin import backends, sylvester

    calls = {name: [] for name in (
        "build", "singular_values", "delta_min", "find_roots", "det", "build_rule"
    )}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sylvester, "build", counted("build", sylvester.build))
    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    monkeypatch.setattr(
        backends, "build_rule", counted("build_rule", backends.build_rule)
    )
    for name in ("delta_min", "singular_values"):
        prop = cached_property(counted(name, getattr(sylvester.Pair, name).func))
        prop.__set_name__(sylvester.Pair, name)
        monkeypatch.setattr(sylvester.Pair, name, prop)
    find_roots = sylvester.find_roots
    for name, module in list(sys.modules.items()):
        if name.startswith("bezmin") and getattr(module, "find_roots", None) is find_roots:
            monkeypatch.setattr(module, "find_roots", counted("find_roots", find_roots))

    def roots_found_once_per_polynomial():
        rooted = [p for (p,) in calls["find_roots"]]
        for A, B in calls["build"]:
            assert sum(q is A for q in rooted) == 1
            assert sum(q is B for q in rooted) == 1
        return len(rooted)

    def counts(*names):
        return {name: len(calls[name]) for name in names}

    out = tmp_path / "c"
    args = ["--out", str(out), "--seed", "3", "certify", "--count", "5"]
    assert main(args) == 0
    records = json.loads((out / "certify_report.json").read_text())["records"]
    assert len(records) >= 3
    names = ("build", "singular_values", "delta_min", "det")
    assert counts(*names) == dict.fromkeys(names, len(records))
    # delta_tilde and check_separation find no roots of their own
    assert roots_found_once_per_polynomial() == 2 * len(records)

    # nonzero constant terms, so the reversed backend solves too
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    A = Polynomial.from_roots([0.5, -0.4 + 0.3j, 1.2j])
    B = Polynomial.from_roots([-0.7, 0.9 - 0.2j])
    a.write_text(json.dumps(A.to_json_dict()))
    b.write_text(json.dumps(B.to_json_dict()))
    for log in calls.values():
        log.clear()
    capsys.readouterr()
    assert main(["--json", "solve", str(a), str(b), "--backend", "all"]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert len(solved) == 4 and not any("error" in r for r in solved.values())
    assert counts("build", "singular_values", "delta_min", "find_roots", "det") == {
        "build": 1, "singular_values": 1, "delta_min": 1, "find_roots": 2, "det": 0
    }
    roots_found_once_per_polynomial()
    orders = [order for _, order in calls["build_rule"]]
    assert len(orders) >= 2 and len(set(orders)) == len(orders)

    for log in calls.values():
        log.clear()
    a, b = poly_files
    assert main(["--json", "sylvester", a, b]) == 0
    assert counts("build", "singular_values", "delta_min", "find_roots", "det") == {
        "build": 1, "singular_values": 1, "delta_min": 1, "find_roots": 2, "det": 1
    }
    roots_found_once_per_polynomial()


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main() reuses one parser; a --json and --tol run must not leak into
    # the next call, which sees the default tolerances and prints text
    from bezmin.cli import DEFAULT_TOLERANCES

    args = ["certify", "--count", "1"]
    first, second = tmp_path / "first", tmp_path / "second"
    main(["--json", "--tol", "residual=1e-30", "--out", str(first)] + args)
    report = json.loads((first / "certify_report.json").read_text())
    assert report["config"]["tolerances"]["residual"] == 1e-30
    json.loads(capsys.readouterr().out)

    assert main(["--out", str(second)] + args) == 0
    report = json.loads((second / "certify_report.json").read_text())
    assert report["config"]["tolerances"] == DEFAULT_TOLERANCES
    assert capsys.readouterr().out.startswith("records ")


def test_sylvester_common_root_exits_one_with_error_line(tmp_path, capsys):
    # z and z + z^2 share the root 0: det 0 is reported without a raise, and
    # the separation check then refuses the pair
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(Polynomial([0, 1]).to_json_dict()))
    b.write_text(json.dumps(Polynomial([0, 1, 1]).to_json_dict()))
    assert main(["sylvester", str(a), str(b)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CommonRootError: ")
    assert len(err.strip().splitlines()) == 1


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
    args = ["--seed", "7", "certify", "--count", "12"]
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
        # only a failing or skipped record carries its pair
        assert "A" not in rec and "B" not in rec


def test_certify_vacuous_floor(tmp_path, capsys):
    # a delta floor above the boundedness constant rejects everything
    code = main(["--out", str(tmp_path), "--seed", "3", "certify",
                 "--count", "5", "--delta-floor", "50.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no records accepted" in out
    report = json.loads((tmp_path / "certify_report.json").read_text())
    assert report["aggregates"]["records"] == 0


def test_certify_vacuous_floor_json(tmp_path, capsys):
    # under --json the aggregates still go to stdout as JSON, the warning
    # to stderr
    code = main(["--json", "--out", str(tmp_path), "--seed", "3", "certify",
                 "--count", "3", "--delta-floor", "10"])
    assert code == 0
    captured = capsys.readouterr()
    aggregates = json.loads(captured.out)
    assert aggregates["records"] == 0
    assert aggregates["requested"] == 3
    assert "no records accepted" in captured.err
    report = json.loads((tmp_path / "certify_report.json").read_text())
    assert aggregates == report["aggregates"]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_certify_count_below_one_is_usage_error(tmp_path, capsys, count):
    code = main(["--out", str(tmp_path), "certify", "--count", count])
    assert code == 2
    captured = capsys.readouterr()
    assert "--count" in captured.err
    assert "no records accepted" not in captured.out
    assert not (tmp_path / "certify_report.json").exists()


@pytest.mark.parametrize("flags, name", [
    (["--min-degree", "0"], "--min-degree"),
    (["--min-degree", "4", "--max-degree", "2"], "--max-degree"),
    (["--workers", "0"], "--workers"),
    (["--delta-floor", "nan"], "--delta-floor"),
    (["--delta-floor", "inf"], "--delta-floor"),
], ids=["min-degree-0", "max-below-min", "workers-0", "delta-floor-nan",
        "delta-floor-inf"])
def test_certify_bad_flag_values_are_usage_errors(tmp_path, capsys, flags, name):
    # at seed 0, 40 draws include a degree-0 one for --min-degree 0
    code = main(["--out", str(tmp_path), "certify", "--count", "40", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert name in captured.err
    assert not (tmp_path / "certify_report.json").exists()


def test_tolerance_override_usage_error(capsys):
    assert main(["--tol", "bogus", "examples"]) == 2
    # a NaN tolerance fails every check and an infinite one passes every one
    for value in ("nan", "inf", "-inf", "0"):
        assert main(["--tol", f"residual={value}", "examples"]) == 2
        err = capsys.readouterr().err
        assert "tolerance residual must be finite and positive" in err


def test_missing_file_usage_error(tmp_path):
    assert main(["roots", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("argv", [
    lambda d, f: ["roots", str(d)],
    lambda d, f: ["--out", str(f), "figures"],
    lambda d, f: ["--out", str(f / "x"), "certify", "--count", "1"],
], ids=["roots-of-a-directory", "out-is-a-file", "out-under-a-file"])
def test_os_errors_are_usage_errors(tmp_path, capsys, argv):
    f = tmp_path / "file"
    f.write_text("")
    assert main(argv(tmp_path, f)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert len(err.strip().splitlines()) == 1


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_certify_worker_pool_matches_sequential(tmp_path):
    args = ["--seed", "11", "certify", "--count", "8"]
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    assert main(["--out", str(seq)] + args) == 0
    assert main(["--out", str(par)] + args + ["--workers", "2"]) == 0
    r1 = _strip_timing(json.loads((seq / "certify_report.json").read_text()))
    r2 = _strip_timing(json.loads((par / "certify_report.json").read_text()))
    assert r1 == r2


def _write_pair(tmp_path, record) -> tuple[str, str]:
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(record["A"]))
    b.write_text(json.dumps(record["B"]))
    return str(a), str(b)


def test_failing_certify_records_replay_with_solve(tmp_path, capsys):
    # no residual meets 1e-300, so every record fails; `bezmin solve` on the
    # pair a record carries gives that record's residual and norm(R)
    out = tmp_path / "c"
    assert main(["--out", str(out), "--tol", "residual=1e-300", "--seed", "7",
                 "certify", "--count", "4"]) == 1
    capsys.readouterr()
    records = json.loads((out / "certify_report.json").read_text())["records"]
    assert records
    for rec in records:
        assert rec["checks"]["residual"] is False
        assert main(["--json", "solve", *_write_pair(tmp_path, rec)]) == 0
        sol = json.loads(capsys.readouterr().out)["sylvester"]
        assert sol["residual"] == rec["residual_sylvester"]
        assert Polynomial.from_json_dict(sol["R"]).norm() == rec["norm_r"]


def test_skipped_analytic_backends_carry_the_pair(tmp_path, capsys, monkeypatch):
    from bezmin import backends
    from bezmin.errors import QuadratureNotConverged

    def refuse(*args, **kwargs):
        raise QuadratureNotConverged("refused")

    monkeypatch.setattr(backends, "solve_quadrature", refuse)
    out = tmp_path / "c"
    assert main(["--out", str(out), "--seed", "7", "certify", "--count", "4"]) == 0
    capsys.readouterr()
    records = json.loads((out / "certify_report.json").read_text())["records"]
    skipped = [r for r in records if "analytic_backend_skipped" in r]
    assert skipped
    for rec in skipped:
        assert rec["analytic_backend_skipped"] == "QuadratureNotConverged: refused"
        assert main(["--json", "delta", *_write_pair(tmp_path, rec)]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == rec["delta"]


def test_solve_quadrature_nonconvergence_exit_code(tmp_path, monkeypatch):
    # a higher-degree pair keeps ~1e-13 fluctuation under doubling, so an
    # absurd tolerance cannot be met and the command reports non-convergence
    import numpy as np

    from bezmin import backends
    from oracles import random_pair

    monkeypatch.setattr(backends, "MAX_ORDER", 64)

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


def test_unknown_region_kind_is_usage_error(poly_files, capsys):
    a, b = poly_files
    assert main(["regions", a, b, "--kind", "ea,foo"]) == 2
    assert "foo" in capsys.readouterr().err


def test_unknown_tolerance_name_is_usage_error(capsys):
    assert main(["--tol", "bogus=1", "examples"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_degenerate_region_exits_one_with_error_line(poly_files, capsys):
    # z has its root at the origin, so the D_A disks of gamma1 degenerate
    a, b = poly_files
    assert main(["regions", a, b, "--kind", "gamma1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DegenerateArrangement: ")
    assert len(err.strip().splitlines()) == 1


def test_roots_of_constant_exits_one_with_error_line(tmp_path, capsys):
    c = tmp_path / "c.json"
    c.write_text(json.dumps(Polynomial([3.0]).to_json_dict()))
    assert main(["roots", str(c)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DegreeZeroError: ")
    assert len(err.strip().splitlines()) == 1


_CONSTANT = "error: DegreeZeroError: cannot extract roots of a constant polynomial"
_COMMON = ("error: CommonRootError: delta = 0.000e+00 below common-root "
           "threshold 1.000e-12")
_PAIR_COMMANDS = [
    ["delta"],
    ["solve", "--backend", "sylvester"],
    ["solve", "--backend", "all"],
    ["solve", "--backend", "reversed"],
    ["regions"],
    ["sylvester"],
]
_ERROR_TABLE = [
    (a, b, cmd, _CONSTANT)
    for a, b in (([3.0], [1, -1]), ([0, 1], [3.0]))
    for cmd in _PAIR_COMMANDS
] + [
    ([0, 1], [0, 1, 1], cmd, err)
    for cmd, err in zip(_PAIR_COMMANDS, [
        None, _COMMON, _COMMON, _COMMON,
        "error: DegenerateArrangement: coincident roots of A and B give a "
        "radius-0 disk",
        _COMMON,
    ])
]


@pytest.mark.parametrize("coeffs_a, coeffs_b, command, err_line", _ERROR_TABLE)
def test_pair_command_errors(tmp_path, capsys, coeffs_a, coeffs_b, command, err_line):
    # a constant A or B, and the pair (z, z + z^2) that shares the root 0:
    # every pair command exits 1, and the first error it meets is the one
    # reported; delta reports the common root on stdout instead
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(Polynomial(coeffs_a).to_json_dict()))
    b.write_text(json.dumps(Polynomial(coeffs_b).to_json_dict()))
    assert main([command[0], str(a), str(b)] + command[1:]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ([] if err_line is None else [err_line])


def test_non_finite_coefficient_is_usage_error(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"coeffs": [[1, 0], [NaN, 0]]}')
    assert main(["roots", str(p)]) == 2
    assert "coefficient 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["roots", "solve"])
def test_overflowing_coefficient_is_usage_error(tmp_path, capsys, command):
    # each part is finite, but the modulus is not: |1.5e308 (1 + i)| > 1.8e308
    p = tmp_path / "p.json"
    p.write_text('{"coeffs": [[1, 0], [1.5e308, 1.5e308]]}')
    files = [str(p)] if command == "roots" else [str(p), str(p)]
    assert main([command] + files) == 2
    assert "coefficient 1" in capsys.readouterr().err


def test_solve_exits_one_when_a_residual_exceeds_its_tolerance(tmp_path, capsys):
    # sharpness_instance(4, 0.02) has delta 1.6e-7 and an ill-conditioned
    # Sylvester matrix, so double precision cannot reach the default 1e-9
    from bezmin import sylvester
    from bezmin.cli import sharpness_instance

    A, B = sharpness_instance(4, 0.02)
    # far from the singularity rule (a singular value at most 1e-14 times the
    # largest), so the solve is not refused for a change in SVD rounding
    sv = sylvester.build(A, B).singular_values
    assert sv[-1] >= 10 * 1e-14 * sv[0]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(A.to_json_dict()))
    b.write_text(json.dumps(B.to_json_dict()))
    argv = ["--json", "solve", str(a), str(b), "--backend", "sylvester"]
    assert main(argv) == 1
    failed = capsys.readouterr()
    residual = json.loads(failed.out)["sylvester"]["residual"]
    assert 1e-9 < residual < 1e-3
    assert len(failed.err.splitlines()) == 1
    assert "sylvester" in failed.err and "residual" in failed.err

    # stdout does not depend on the tolerance; only the exit code does
    assert main(["--tol", "residual=1e-3"] + argv) == 0
    passed = capsys.readouterr()
    assert passed.out == failed.out
    assert passed.err == ""
