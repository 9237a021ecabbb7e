"""Command-line interface: one-shot solves and reports, the worked example
families, figure reconstructions, and the randomized certification run.

Exit codes: 0 success, 1 check failure or refused input (any BezminError,
reported as one "error: <Type>: <message>" line), 2 usage error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backends, sylvester
from .errors import (
    BezminError,
    CommonRootError,
    DegenerateArrangement,
    QuadratureNotConverged,
    SeparationViolation,
)
from .poly import Polynomial
from .regions import (
    RegionKind,
    build_region,
    build_region_with_jitter,
    contour_metrics,
    winding_numbers,
)
from .roots import find_roots
from .separation import (
    DescentStats,
    check_separation,
    delta,
    delta_report,
    delta_tilde,
)
from .svgout import emit_svg, render_svg

DEFAULT_TOLERANCES = {
    "residual": 1e-9,
    "agreement": 1e-7,
    "resultant": 1e-6,
    "sandwich": 1e-9,
    "sharpness": 1e-8,
    "quadrature": 1e-9,
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


@dataclass
class RunConfig:
    seed: int = 0
    tolerances: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_TOLERANCES)
    )
    ensemble_size: int = 500
    min_degree: int = 1
    max_degree: int = 5
    delta_floor: float = 0.05
    separation_samples: int = 2000
    out_dir: Path = Path(".")
    as_json: bool = False
    workers: int = 1

    def __post_init__(self):
        for name, value in self.tolerances.items():
            if value <= 0:
                raise ValueError(f"tolerance {name} must be positive")

    def tol(self, name: str) -> float:
        return self.tolerances[name]


# figure instances: monic polynomials given by their roots
FIG1_ALPHAS = (0.25 + 0.125j, -0.5 + 0j, 0.4 + 0j)
FIG1_BETAS = (1 / 9 + 5j / 6, 1 / 8 + 0.5j, 1j / 3, 1j / 5)
FIG45_ALPHAS = (1 / 3 + 0j, -0.2 + 0.34641j, -0.2 - 0.34641j)
FIG45_BETAS = (1 + 0j, 1j, -1 + 0j, -1j)


def _load_poly(path: str) -> Polynomial:
    with open(path) as fh:
        return Polynomial.from_json_dict(json.load(fh))


def _load_pair(args) -> sylvester.Pair:
    """The Pair of the files poly_a and poly_b; its roots, delta and LU
    factors are computed when a command first needs them."""
    return sylvester.build(_load_poly(args.poly_a), _load_poly(args.poly_b))


def _emit(obj, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(obj, indent=1, sort_keys=True))
    else:
        print("\n".join(text_lines))


def sharpness_instance(n: int, a: float) -> tuple[Polynomial, Polynomial]:
    """A = z^n and B the monic polynomial with roots a*w^j, j = 1..n, where w
    is the primitive (2n-1)-th root of unity."""
    w = cmath.exp(2j * cmath.pi / (2 * n - 1))
    A = Polynomial.monomial(n)
    B = Polynomial.from_roots([a * w**j for j in range(1, n + 1)])
    return A, B


def discontinuity_pair(n: int) -> tuple[Polynomial, Polynomial]:
    return (
        Polynomial([0.0, 1.0, 1.0 / n]),
        Polynomial([1.0, -1.0, -(1.0 / n + 1.0 / n**2)]),
    )


# ---------------------------------------------------------------------------
# simple commands


def cmd_roots(args, config: RunConfig) -> int:
    _emit(find_roots(_load_poly(args.poly)).to_json_dict(), True, [])
    return EXIT_OK


def cmd_delta(args, config: RunConfig) -> int:
    report = delta_report(_load_pair(args))
    lines = [
        f"delta            {report.delta:.12g}",
        f"witness          {report.argmin_witness:.12g}",
        f"tilde bracket    [{report.delta_tilde_lower:.12g}, "
        f"{report.delta_tilde_upper:.12g}]",
        f"tilde witness    {report.tilde_witness:.12g}",
        f"sandwich_ok      {report.sandwich_ok}",
        f"common_root      {report.common_root}",
    ]
    _emit(report.to_json_dict(), config.as_json, lines)
    return EXIT_OK if not report.common_root else EXIT_CHECK_FAILED


def _parse_rhs(spec: str, n: int, k: int) -> Polynomial:
    if spec == "one":
        return Polynomial([1.0])
    if spec.startswith("monomial:"):
        t = int(spec.split(":", 1)[1])
        if not 0 <= t <= n + k - 1:
            raise ValueError(f"monomial power must be in 0..{n + k - 1}")
        return Polynomial.monomial(t)
    return _load_poly(spec)


def _quadrature_contours(pair: sylvester.Pair) -> tuple:
    """Contours around the roots of A and of B for solve_quadrature."""
    return tuple(
        build_region_with_jitter(kind, pair.rootsA, pair.rootsB)
        for kind in (RegionKind.E_A, RegionKind.E_B)
    )


def cmd_solve(args, config: RunConfig) -> int:
    pair = _load_pair(args)
    P = _parse_rhs(args.rhs, pair.N, pair.K)
    rep = delta(pair)

    wanted = (
        ["sylvester", "residue", "quadrature", "reversed"]
        if args.backend == "all"
        else [args.backend]
    )
    results = {}
    for name in wanted:
        try:
            if name == "sylvester":
                sol = sylvester.solve(pair, P)
            elif name == "residue":
                sol = backends.solve_residue(pair, P)
            elif name == "quadrature":
                sol = backends.solve_quadrature(
                    pair, _quadrature_contours(pair), P,
                    tol=config.tol("quadrature"),
                )
            elif name == "reversed":
                sol = backends.solve_reversed(pair)
            else:
                raise ValueError(name)
        except QuadratureNotConverged as exc:
            print(f"error [{name}]: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        except BezminError as exc:
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        if P == Polynomial([1.0]):
            cert = backends.certify_main_bound(pair, sol, rep.delta)
            sol.bound_report = cert.to_json_dict()
        results[name] = sol.to_json_dict()

    lines = []
    for name, res in results.items():
        if "error" in res:
            lines.append(f"{name}: {res['error']}")
        else:
            lines.append(f"{name}: residual {res['residual']:.3e}")
            lines.append(f"  R coeffs {res['R']['coeffs']}")
            lines.append(f"  S coeffs {res['S']['coeffs']}")
    _emit(results, config.as_json, lines)
    if all("error" in res for res in results.values()):
        return EXIT_CHECK_FAILED
    return EXIT_OK


_REGION_FLAGS = {
    "ea": RegionKind.E_A,
    "eb": RegionKind.E_B,
    "da": RegionKind.D_A,
    "gamma1": RegionKind.GAMMA1,
    "inverted": RegionKind.GAMMA1_INVERTED,
}


def cmd_regions(args, config: RunConfig) -> int:
    flags = [f.strip() for f in args.kind.split(",")]
    unknown = [f for f in flags if f not in _REGION_FLAGS]
    if unknown:
        raise ValueError(
            f"unknown region kind {', '.join(unknown)}; "
            f"expected {','.join(_REGION_FLAGS)}"
        )
    pair = _load_pair(args)
    rootsA, rootsB = pair.rootsA, pair.rootsB
    contours = []
    info = {}
    for flag in flags:
        kind = _REGION_FLAGS[flag]
        contour = build_region(kind, rootsA, rootsB)
        contours.append(contour)
        entry = contour.to_json_dict()
        if kind in (RegionKind.GAMMA1,):
            rep = delta(pair)
            entry["metrics"] = contour_metrics(contour, pair, rep.delta).to_json_dict()
        info[kind.value] = entry
    markers = list(rootsA.roots) + list(rootsB.roots)
    if args.svg:
        emit_svg(contours, markers, args.svg)
    if args.arcs_json:
        with open(args.arcs_json, "w") as fh:
            json.dump(info, fh, indent=1, sort_keys=True)
    lines = [
        f"{kind}: {entry['n_loops']} loops, length {entry['total_length']:.6g}"
        for kind, entry in info.items()
    ]
    _emit(info, config.as_json, lines)
    return EXIT_OK


def cmd_sylvester(args, config: RunConfig) -> int:
    pair = _load_pair(args)
    triple = sylvester.resultant(pair)
    rep = delta(pair)
    inv = sylvester.inverse_norm_report(pair, rep.delta)
    out = {
        "matrix": [[[v.real, v.imag] for v in row] for row in pair.entries],
        "resultant": {
            "det": [triple.det_value.real, triple.det_value.imag],
            "abs_det": abs(triple.det_value),
            "product_via_roots_of_B": triple.product_via_roots_of_B,
            "product_via_roots_of_A": triple.product_via_roots_of_A,
        },
        "inverse_norm": inv.to_json_dict(),
    }
    lines = [f"Sylvester matrix ({pair.size} x {pair.size}):"]
    for row in pair.entries:
        lines.append("  " + "  ".join(f"{v:10.4g}" for v in row))
    lines += [
        f"|resultant|   det {abs(triple.det_value):.9g}   "
        f"via A(beta) {triple.product_via_roots_of_B:.9g}   "
        f"via B(alpha) {triple.product_via_roots_of_A:.9g}",
        f"inverse max-entry norm  {inv.max_entry_norm:.9g}",
        f"bound value             {inv.bound_value:.9g}",
        f"tightness ratio         {inv.tightness_ratio:.9g}",
    ]
    _emit(out, config.as_json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# example sweeps


def cmd_examples(args, config: RunConfig) -> int:
    tol = config.tol("sharpness")
    ok = True
    rows = []
    lines = ["sharpness family: A = z^N, B has roots a*w^j (norm(R) = delta^(-2+1/N))"]
    lines.append(f"{'N':>3} {'a':>6} {'delta':>12} {'norm(R)':>14} "
                 f"{'predicted':>14} {'rel err':>10}")
    for n in (2, 3, 4, 5):
        for a in (1.0, 0.9, 0.5, 0.25, 0.1):
            pair = sylvester.build(*sharpness_instance(n, a))
            rep = delta(pair)
            sol = sylvester.solve(pair)
            predicted = rep.delta ** (-2.0 + 1.0 / n)
            err = abs(sol.R.norm() - predicted) / predicted
            passed = err <= tol and abs(rep.delta - a**n) <= 1e-9
            ok &= passed
            rows.append(
                {"family": "sharpness", "N": n, "a": a, "delta": rep.delta,
                 "norm_R": sol.R.norm(), "predicted": predicted,
                 "rel_err": err, "pass": passed}
            )
            lines.append(
                f"{n:>3} {a:>6.2f} {rep.delta:>12.6g} {sol.R.norm():>14.8g} "
                f"{predicted:>14.8g} {err:>10.2e}"
            )

    lines.append("")
    lines.append("unnormalized blow-up: A1 = a^-2 A, B1 = a^-2 B "
                 "(norm(R1) * delta1^2 = 1/a)")
    lines.append(f"{'N':>3} {'a':>6} {'delta1':>12} {'ratio':>14} "
                 f"{'1/a':>10} {'rel err':>10}")
    for n in (2, 3, 4):
        for a in (0.9, 0.5, 0.25, 0.1):
            A, B = sharpness_instance(n, a)
            pair = sylvester.build(A.scale(a**-2), B.scale(a**-2))
            rep = delta(pair)
            sol = sylvester.solve(pair)
            ratio = sol.R.norm() * rep.delta**2
            err = abs(ratio - 1.0 / a) * a
            passed = err <= tol
            ok &= passed
            rows.append(
                {"family": "unnormalized", "N": n, "a": a, "delta": rep.delta,
                 "ratio": ratio, "expected": 1.0 / a, "rel_err": err,
                 "pass": passed}
            )
            lines.append(
                f"{n:>3} {a:>6.2f} {rep.delta:>12.6g} {ratio:>14.8g} "
                f"{1.0 / a:>10.4g} {err:>10.2e}"
            )

    lines.append("")
    lines.append("delta discontinuity: A_n = z + z^2/n, "
                 "B_n = 1 - z - (1/n + 1/n^2) z^2")
    lines.append(f"{'n':>3} {'delta(A_n,B_n)':>16} {'norm(A_n - A)':>15}")
    A0 = Polynomial([0.0, 1.0])
    B0 = Polynomial([1.0, -1.0])
    rep0 = delta(sylvester.build(A0, B0))
    base_ok = abs(rep0.delta - 1.0) < 1e-15
    ok &= base_ok
    rows.append({"family": "discontinuity", "n": None,
                 "delta_base": rep0.delta, "pass": base_ok})
    for n in range(2, 11):
        An, Bn = discontinuity_pair(n)
        try:
            rep = delta(sylvester.build(An, Bn))
            dval = rep.delta
        except CommonRootError as exc:
            dval = exc.report.delta
        drift = (An - A0).norm()
        passed = dval <= 1e-9 and drift == 1.0 / n
        ok &= passed
        rows.append({"family": "discontinuity", "n": n, "delta": dval,
                     "norm_drift": drift, "pass": passed})
        lines.append(f"{n:>3} {dval:>16.3e} {drift:>15.10g}")
    lines.append("")
    lines.append(f"all examples {'PASS' if ok else 'FAIL'}")
    _emit({"rows": rows, "pass": ok}, config.as_json, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# figures


def cmd_figures(args, config: RunConfig) -> int:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    ok = True

    pair = sylvester.build(
        Polynomial.from_roots(FIG1_ALPHAS), Polynomial.from_roots(FIG1_BETAS)
    )
    ra, rb = pair.rootsA, pair.rootsB
    ea = build_region(RegionKind.E_A, ra, rb)
    eb = build_region(RegionKind.E_B, ra, rb)
    markers = list(ra.roots) + list(rb.roots)
    emit_svg([ea, eb], markers, out_dir / "fig1_regions.svg")
    (out_dir / "fig3_oriented.svg").write_text(
        render_svg([ea, eb], markers, direction_ticks=True)
    )
    summary["fig1"] = {"E_A_components": ea.n_loops, "E_B_components": eb.n_loops}
    ok &= ea.n_loops == 2 and eb.n_loops == 1

    pair = sylvester.build(
        Polynomial.from_roots(FIG45_ALPHAS), Polynomial.from_roots(FIG45_BETAS)
    )
    ra2, rb2 = pair.rootsA, pair.rootsB
    ea2 = build_region(RegionKind.E_A, ra2, rb2)
    da2 = build_region(RegionKind.D_A, ra2, rb2)
    g1 = build_region(RegionKind.GAMMA1, ra2, rb2)
    markers2 = list(ra2.roots) + list(rb2.roots)
    emit_svg([ea2, da2], markers2, out_dir / "fig4_ea_da.svg")
    emit_svg([g1], markers2, out_dir / "fig5_gamma1.svg")
    found = winding_numbers(g1, markers2).tolist()
    windings = {"alphas": found[: len(ra2.roots)], "betas": found[len(ra2.roots) :]}
    summary["fig5"] = windings
    ok &= all(w == 1 for w in windings["alphas"])
    ok &= all(w == 0 for w in windings["betas"])

    with open(out_dir / "figures.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    lines = [
        f"fig1: E_A components {ea.n_loops} (want 2), "
        f"E_B components {eb.n_loops} (want 1)",
        f"fig5: windings at zeros of A {windings['alphas']} (want all 1), "
        f"at zeros of B {windings['betas']} (want all 0)",
        f"wrote SVGs to {out_dir}",
        f"figures {'PASS' if ok else 'FAIL'}",
    ]
    _emit(summary, config.as_json, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# certification sweep


def _certify_one(task) -> dict:
    """One ensemble attempt; returns a record or a rejection marker."""
    config, index, seed = task
    rng = np.random.default_rng(seed)
    deg_a = int(rng.integers(config.min_degree, config.max_degree + 1))
    deg_b = int(rng.integers(config.min_degree, config.max_degree + 1))
    from .ensemble import random_polynomial

    pair = sylvester.build(
        random_polynomial(rng, deg_a), random_polynomial(rng, deg_b)
    )
    if not (pair.rootsA.verified and pair.rootsB.verified):
        return {"index": index, "rejected": "unverified_roots"}
    try:
        rep = delta(pair)
    except CommonRootError:
        return {"index": index, "rejected": "common_root"}
    if rep.delta < config.delta_floor:
        return {"index": index, "rejected": "delta_floor"}

    t0 = time.perf_counter()
    record: dict = {
        "index": index,
        "deg_a": deg_a,
        "deg_b": deg_b,
        "delta": rep.delta,
        "backends": ["sylvester"],
        "checks": {},
    }

    descent = DescentStats()
    lo, up, _ = delta_tilde(pair, n_rings=3, n_angles=8, stats=descent)
    record["tilde_lower"] = lo
    record["tilde_upper"] = up
    record["tilde_steps"] = descent.steps
    record["tilde_evals"] = descent.evals
    record["checks"]["sandwich"] = bool(
        lo - config.tol("sandwich") <= up <= rep.delta + config.tol("sandwich")
    )

    try:
        check_separation(
            pair, rep.delta, config.separation_samples,
            seed=int(rng.integers(2**31)),
        )
        record["checks"]["separation"] = True
    except SeparationViolation:
        record["checks"]["separation"] = False

    sol = sylvester.solve(pair)
    record["residual_sylvester"] = sol.residual
    record["norm_r"] = sol.R.norm()
    record["norm_s"] = sol.S.norm()
    record["checks"]["residual"] = sol.residual <= config.tol("residual")
    cert = backends.certify_main_bound(pair, sol, rep.delta)
    record["ratio"] = max(cert.ratio_r, cert.ratio_s)
    record["checks"]["ratio_ceiling"] = cert.passed

    triple = sylvester.resultant(pair)
    m = abs(triple.det_value)
    rel = max(
        abs(m - triple.product_via_roots_of_B),
        abs(m - triple.product_via_roots_of_A),
    ) / max(m, 1e-300)
    record["resultant_rel_spread"] = rel
    record["checks"]["resultant"] = rel <= config.tol("resultant")

    inv = sylvester.inverse_norm_report(pair, rep.delta)
    record["sylvester_inverse_ratio"] = inv.tightness_ratio

    simple = not (pair.rootsA.any_suspect or pair.rootsB.any_suspect)
    record["simple_roots"] = simple
    if simple:
        agree = 0.0
        try:
            sol_res = backends.solve_residue(pair)
            record["backends"].append("residue")
            record["residual_residue"] = sol_res.residual
            agree = max(
                (sol.R - sol_res.R).norm(), (sol.S - sol_res.S).norm()
            )
            sol_quad = backends.solve_quadrature(
                pair, _quadrature_contours(pair), tol=config.tol("quadrature")
            )
            record["backends"].append("quadrature")
            record["residual_quadrature"] = sol_quad.residual
            agree = max(
                agree, (sol.R - sol_quad.R).norm(), (sol.S - sol_quad.S).norm()
            )
            record["agreement"] = agree
            record["checks"]["agreement"] = agree <= config.tol("agreement")
        except (DegenerateArrangement, QuadratureNotConverged) as exc:
            record["analytic_backend_skipped"] = f"{type(exc).__name__}: {exc}"

    record["seconds"] = time.perf_counter() - t0
    return record


def cmd_certify(args, config: RunConfig) -> int:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(config.seed).spawn(config.ensemble_size)
    tasks = [(config, i, s) for i, s in enumerate(seeds)]

    if config.workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_certify_one, tasks, chunksize=8))
    else:
        results = [_certify_one(t) for t in tasks]

    records = [r for r in results if "rejected" not in r]
    rejections: dict[str, int] = {}
    for r in results:
        if "rejected" in r:
            rejections[r["rejected"]] = rejections.get(r["rejected"], 0) + 1

    failures = {}
    for r in records:
        for name, passed in r["checks"].items():
            if passed is False:
                failures.setdefault(name, []).append(r["index"])

    aggregates = {
        "requested": config.ensemble_size,
        "records": len(records),
        "rejections": rejections,
        "max_delta_observed": max((r["delta"] for r in records), default=None),
        "max_ratio": max((r["ratio"] for r in records), default=None),
        "max_residual_sylvester": max(
            (r["residual_sylvester"] for r in records), default=None
        ),
        "max_agreement": max(
            (r["agreement"] for r in records if "agreement" in r), default=None
        ),
        "max_resultant_spread": max(
            (r["resultant_rel_spread"] for r in records), default=None
        ),
        "failures": failures,
        "total_seconds": sum(r["seconds"] for r in records),
    }
    report = {"config": {
        "seed": config.seed,
        "ensemble_size": config.ensemble_size,
        "degree_range": [config.min_degree, config.max_degree],
        "delta_floor": config.delta_floor,
        "separation_samples": config.separation_samples,
        "tolerances": config.tolerances,
    }, "aggregates": aggregates, "records": records}

    path = out_dir / "certify_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    if not records:
        print(f"warning: no records accepted (delta floor too high?); "
              f"report at {path}")
        return EXIT_OK

    lines = [
        f"records          {len(records)} / {config.ensemble_size} "
        f"(rejections: {rejections or 'none'})",
        f"max delta        {aggregates['max_delta_observed']:.6g}",
        f"max ratio        {aggregates['max_ratio']:.6g}",
        f"max residual     {aggregates['max_residual_sylvester']:.3e}",
        f"max agreement    {aggregates['max_agreement'] if aggregates['max_agreement'] is not None else float('nan'):.3e}",
        f"max resultant    {aggregates['max_resultant_spread']:.3e}",
        f"failures         {failures or 'none'}",
        f"report           {path}",
    ]
    _emit(report["aggregates"], config.as_json, lines)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: main() may run many times."""
    ap = argparse.ArgumentParser(
        prog="bezmin",
        description="Minimal Bezout cofactors with separation certificates",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--tol", action="append", default=[], metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--json", action="store_true", help="machine output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="roots of one polynomial JSON")
    p.add_argument("poly")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("delta", help="separation report for a pair")
    p.add_argument("poly_a")
    p.add_argument("poly_b")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("solve", help="solve A R + B S = P")
    p.add_argument("poly_a")
    p.add_argument("poly_b")
    p.add_argument(
        "--backend",
        choices=["sylvester", "residue", "quadrature", "reversed", "all"],
        default="sylvester",
    )
    p.add_argument("--rhs", default="one", help="one | monomial:t | path.json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("regions", help="build region boundaries")
    p.add_argument("poly_a")
    p.add_argument("poly_b")
    p.add_argument(
        "--kind", default="ea,eb",
        help="comma list from ea,eb,da,gamma1,inverted",
    )
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--arcs-json", help="dump arcs (center/radius/angles) here")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("sylvester", help="matrix, resultant, inverse norm")
    p.add_argument("poly_a")
    p.add_argument("poly_b")
    p.set_defaults(func=cmd_sylvester)

    p = sub.add_parser("examples", help="run the three example families")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("figures", help="reconstruct the figure instances")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("certify", help="randomized certification sweep")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--min-degree", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--delta-floor", type=float, default=0.05)
    p.add_argument("--separation-samples", type=int, default=2000)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_certify)

    return ap


def _config_from_args(args) -> RunConfig:
    tolerances = dict(DEFAULT_TOLERANCES)
    for spec in args.tol:
        name, _, value = spec.partition("=")
        if not value:
            raise ValueError(f"--tol expects NAME=VALUE, got {spec!r}")
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(
                f"unknown tolerance {name!r}; expected one of "
                f"{', '.join(DEFAULT_TOLERANCES)}"
            )
        tolerances[name] = float(value)
    config = RunConfig(
        seed=args.seed,
        tolerances=tolerances,
        out_dir=Path(args.out),
        as_json=args.json,
    )
    if hasattr(args, "count"):
        if args.count < 1:
            raise ValueError(f"--count must be at least 1, got {args.count}")
        config.ensemble_size = args.count
        config.min_degree = args.min_degree
        config.max_degree = args.max_degree
        config.delta_floor = args.delta_floor
        config.separation_samples = args.separation_samples
        config.workers = args.workers
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, config)
    except (FileNotFoundError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureNotConverged as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except BezminError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
