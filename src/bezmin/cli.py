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
import itertools
import json
import math
import sys
import time
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
from .regions import RegionKind, build_region, winding_numbers
from .roots import find_roots
from .separation import (
    DescentStats,
    check_separation,
    delta_report,
    delta_tilde,
    sandwich_holds,
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

# backend name -> solve(pair, P, tolerances); each looks its solver up in its
# module when called, so a replaced module function is the one that runs
BACKENDS = {
    "sylvester": lambda pair, P, tol: sylvester.solve(pair, P),
    "residue": lambda pair, P, tol: backends.solve_residue(pair, P),
    "quadrature": lambda pair, P, tol: backends.solve_quadrature(
        pair, P, tol=tol["quadrature"]
    ),
    "reversed": lambda pair, P, tol: backends.solve_reversed(pair, P),
}


# figure instances: monic polynomials given by their roots
FIG1_ALPHAS = (0.25 + 0.125j, -0.5 + 0j, 0.4 + 0j)
FIG1_BETAS = (1 / 9 + 5j / 6, 1 / 8 + 0.5j, 1j / 3, 1j / 5)
FIG45_ALPHAS = (1 / 3 + 0j, -0.2 + 0.34641j, -0.2 - 0.34641j)
FIG45_BETAS = (1 + 0j, 1j, -1 + 0j, -1j)


def _load_poly(path: str) -> Polynomial:
    with open(path) as fh:
        return Polynomial.from_json_dict(json.load(fh))


def _load_pair(args) -> sylvester.Pair:
    """The Pair of the files poly_a and poly_b; its roots, delta and
    singular values are computed when a command first needs them."""
    return sylvester.build(_load_poly(args.poly_a), _load_poly(args.poly_b))


def _json_text(obj) -> str:
    """obj as the one line of JSON, keys sorted, that every command prints
    and writes; without indent, json.dumps runs its C encoder."""
    return json.dumps(obj, sort_keys=True)


def _print_json(obj) -> None:
    print(_json_text(obj))


def _emit(args, obj, text) -> None:
    """obj as JSON under --json, else the lines that text() formats; text
    is not called in --json mode."""
    if args.json:
        _print_json(obj)
    else:
        print("\n".join(text()))


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


def cmd_roots(args, tol) -> int:
    _print_json(find_roots(_load_poly(args.poly)).to_json_dict())
    return EXIT_OK


def cmd_delta(args, tol) -> int:
    report = delta_report(_load_pair(args), tol["sandwich"])
    _emit(args, report.to_json_dict(), lambda: [
        f"delta            {report.delta:.12g}",
        f"witness          {report.argmin_witness:.12g}",
        f"tilde bracket    [{report.delta_tilde_lower:.12g}, "
        f"{report.delta_tilde_upper:.12g}]",
        f"tilde witness    {report.tilde_witness:.12g}",
        f"sandwich_ok      {report.sandwich_ok}",
        f"common_root      {report.common_root}",
    ])
    ok = report.sandwich_ok and not report.common_root
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_rhs(spec: str, n: int, k: int) -> Polynomial:
    if spec == "one":
        return Polynomial([1.0])
    if spec.startswith("monomial:"):
        t = int(spec.split(":", 1)[1])
        if not 0 <= t <= n + k - 1:
            raise ValueError(f"monomial power must be in 0..{n + k - 1}")
        return Polynomial.monomial(t)
    return _load_poly(spec)


def cmd_solve(args, tol) -> int:
    pair = _load_pair(args)
    P = _parse_rhs(args.rhs, pair.N, pair.K)
    pair.delta  # a common root is refused before any backend runs

    results = {}
    for name in BACKENDS if args.backend == "all" else [args.backend]:
        try:
            sol = BACKENDS[name](pair, P, tol)
        except QuadratureNotConverged as exc:
            print(f"error [{name}]: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        except BezminError as exc:
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        if P == Polynomial([1.0]):
            cert = backends.certify_main_bound(pair, sol)
            sol.bound_report = cert.to_json_dict()
        results[name] = sol.to_json_dict()

    def text():
        lines = []
        for name, res in results.items():
            if "error" in res:
                lines.append(f"{name}: {res['error']}")
            else:
                lines.append(f"{name}: residual {res['residual']:.3e}")
                lines.append(f"  R coeffs {res['R']['coeffs']}")
                lines.append(f"  S coeffs {res['S']['coeffs']}")
        return lines

    _emit(args, results, text)
    if all("error" in res for res in results.values()):
        return EXIT_CHECK_FAILED
    above = [
        f"{name} {res['residual']:.3e}" for name, res in results.items()
        if "error" not in res and not res["residual"] <= tol["residual"]
    ]
    if above:
        print(f"check failed: residual above tolerance {tol['residual']:g}: "
              f"{', '.join(above)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_REGION_FLAGS = {
    "ea": RegionKind.E_A,
    "eb": RegionKind.E_B,
    "da": RegionKind.D_A,
    "gamma1": RegionKind.GAMMA1,
    "inverted": RegionKind.GAMMA1_INVERTED,
}


def cmd_regions(args, tol) -> int:
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
            entry["metrics"] = backends.contour_metrics(contour, pair).to_json_dict()
        info[kind.value] = entry
    markers = list(rootsA.roots) + list(rootsB.roots)
    if args.svg:
        emit_svg(contours, markers, args.svg)
    if args.arcs_json:
        with open(args.arcs_json, "w") as fh:
            fh.write(_json_text(info))
    _emit(args, info, lambda: [
        f"{kind}: {entry['n_loops']} loops, length {entry['total_length']:.6g}"
        for kind, entry in info.items()
    ])
    return EXIT_OK


def cmd_sylvester(args, tol) -> int:
    pair = _load_pair(args)
    triple = sylvester.resultant(pair)
    inv = sylvester.inverse_norm_report(pair)
    out = {
        "matrix": pair.entries.view(float).reshape(pair.size, pair.size, 2).tolist(),
        "resultant": {
            "det": [triple.det_value.real, triple.det_value.imag],
            "abs_det": abs(triple.det_value),
            "product_via_roots_of_B": triple.product_via_roots_of_B,
            "product_via_roots_of_A": triple.product_via_roots_of_A,
        },
        "inverse_norm": inv.to_json_dict(),
    }
    _emit(args, out, lambda: [
        f"Sylvester matrix ({pair.size} x {pair.size}):",
        *("  " + "  ".join(f"{v:10.4g}" for v in row) for row in pair.entries),
        f"|resultant|   det {abs(triple.det_value):.9g}   "
        f"via A(beta) {triple.product_via_roots_of_B:.9g}   "
        f"via B(alpha) {triple.product_via_roots_of_A:.9g}",
        f"inverse max-entry norm  {inv.max_entry_norm:.9g}",
        f"bound value             {inv.bound_value:.9g}",
        f"tightness ratio         {inv.tightness_ratio:.9g}",
    ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# example sweeps

# family -> (header lines, row format); the discontinuity base row (the one
# with delta_base) has no line of its own
_EXAMPLE_TEXT = {
    "sharpness": (
        ["sharpness family: A = z^N, B has roots a*w^j (norm(R) = delta^(-2+1/N))",
         f"{'N':>3} {'a':>6} {'delta':>12} {'norm(R)':>14} "
         f"{'predicted':>14} {'rel err':>10}"],
        "{N:>3} {a:>6.2f} {delta:>12.6g} {norm_R:>14.8g} {predicted:>14.8g} "
        "{rel_err:>10.2e}",
    ),
    "unnormalized": (
        ["", "unnormalized blow-up: A1 = a^-2 A, B1 = a^-2 B "
             "(norm(R1) * delta1^2 = 1/a)",
         f"{'N':>3} {'a':>6} {'delta1':>12} {'ratio':>14} "
         f"{'1/a':>10} {'rel err':>10}"],
        "{N:>3} {a:>6.2f} {delta:>12.6g} {ratio:>14.8g} {expected:>10.4g} "
        "{rel_err:>10.2e}",
    ),
    "discontinuity": (
        ["", "delta discontinuity: A_n = z + z^2/n, "
             "B_n = 1 - z - (1/n + 1/n^2) z^2",
         f"{'n':>3} {'delta(A_n,B_n)':>16} {'norm(A_n - A)':>15}"],
        "{n:>3} {delta:>16.3e} {norm_drift:>15.10g}",
    ),
}


def _examples_text(rows: list[dict], ok: bool) -> list[str]:
    lines = []
    for family, group in itertools.groupby(rows, key=lambda r: r["family"]):
        header, row_format = _EXAMPLE_TEXT[family]
        lines += header
        lines += [row_format.format(**r) for r in group if "delta_base" not in r]
    return lines + ["", f"all examples {'PASS' if ok else 'FAIL'}"]


def cmd_examples(args, tol) -> int:
    ok = True
    rows = []
    for n in (2, 3, 4, 5):
        for a in (1.0, 0.9, 0.5, 0.25, 0.1):
            pair = sylvester.build(*sharpness_instance(n, a))
            sol = sylvester.solve(pair)
            predicted = pair.delta ** (-2.0 + 1.0 / n)
            err = abs(sol.R.norm() - predicted) / predicted
            passed = err <= tol["sharpness"] and abs(pair.delta - a**n) <= 1e-9
            ok &= passed
            rows.append(
                {"family": "sharpness", "N": n, "a": a, "delta": pair.delta,
                 "norm_R": sol.R.norm(), "predicted": predicted,
                 "rel_err": err, "pass": passed}
            )

    for n in (2, 3, 4):
        for a in (0.9, 0.5, 0.25, 0.1):
            A, B = sharpness_instance(n, a)
            pair = sylvester.build(A.scale(a**-2), B.scale(a**-2))
            sol = sylvester.solve(pair)
            ratio = sol.R.norm() * pair.delta**2
            err = abs(ratio - 1.0 / a) * a
            passed = err <= tol["sharpness"]
            ok &= passed
            rows.append(
                {"family": "unnormalized", "N": n, "a": a, "delta": pair.delta,
                 "ratio": ratio, "expected": 1.0 / a, "rel_err": err,
                 "pass": passed}
            )

    A0 = Polynomial([0.0, 1.0])
    B0 = Polynomial([1.0, -1.0])
    base = sylvester.build(A0, B0).delta
    base_ok = abs(base - 1.0) < 1e-15
    ok &= base_ok
    rows.append({"family": "discontinuity", "n": None,
                 "delta_base": base, "pass": base_ok})
    for n in range(2, 11):
        An, Bn = discontinuity_pair(n)
        # A_n and B_n share a root, so delta_min reports it without refusing
        dval = sylvester.build(An, Bn).delta_min[0]
        drift = (An - A0).norm()
        passed = dval <= 1e-9 and drift == 1.0 / n
        ok &= passed
        rows.append({"family": "discontinuity", "n": n, "delta": dval,
                     "norm_drift": drift, "pass": passed})
    _emit(args, {"rows": rows, "pass": ok}, lambda: _examples_text(rows, ok))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# figures


def cmd_figures(args, tol) -> int:
    out_dir = Path(args.out)
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
        fh.write(_json_text(summary))
    _emit(args, summary, lambda: [
        f"fig1: E_A components {ea.n_loops} (want 2), "
        f"E_B components {eb.n_loops} (want 1)",
        f"fig5: windings at zeros of A {windings['alphas']} (want all 1), "
        f"at zeros of B {windings['betas']} (want all 0)",
        f"wrote SVGs to {out_dir}",
        f"figures {'PASS' if ok else 'FAIL'}",
    ])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# certification sweep


def _certify_one(task) -> dict:
    """One ensemble attempt; returns a record or a rejection marker."""
    args, tol, index, seed = task
    rng = np.random.default_rng(seed)
    deg_a = int(rng.integers(args.min_degree, args.max_degree + 1))
    deg_b = int(rng.integers(args.min_degree, args.max_degree + 1))
    from .ensemble import random_polynomial

    pair = sylvester.build(
        random_polynomial(rng, deg_a), random_polynomial(rng, deg_b)
    )
    if not (pair.rootsA.verified and pair.rootsB.verified):
        return {"index": index, "rejected": "unverified_roots"}
    try:
        delta = pair.delta
    except CommonRootError:
        return {"index": index, "rejected": "common_root"}
    if delta < args.delta_floor:
        return {"index": index, "rejected": "delta_floor"}

    t0 = time.perf_counter()
    record: dict = {
        "index": index,
        "deg_a": deg_a,
        "deg_b": deg_b,
        "delta": delta,
        "backends": ["sylvester"],
        "checks": {},
    }

    descent = DescentStats()
    lo, up, _ = delta_tilde(pair, stats=descent)
    record["tilde_lower"] = lo
    record["tilde_upper"] = up
    record["tilde_steps"] = descent.steps
    record["tilde_evals"] = descent.evals
    record["checks"]["sandwich"] = sandwich_holds(pair, lo, up, tol["sandwich"])

    try:
        check_separation(pair)
        record["checks"]["separation"] = True
    except SeparationViolation:
        record["checks"]["separation"] = False

    sol = sylvester.solve(pair)
    record["residual_sylvester"] = sol.residual
    record["norm_r"] = sol.R.norm()
    record["norm_s"] = sol.S.norm()
    record["checks"]["residual"] = sol.residual <= tol["residual"]
    cert = backends.certify_main_bound(pair, sol)
    record["ratio"] = max(cert.ratio_r, cert.ratio_s)
    record["checks"]["ratio_ceiling"] = cert.passed

    triple = sylvester.resultant(pair)
    m = abs(triple.det_value)
    rel = max(
        abs(m - triple.product_via_roots_of_B),
        abs(m - triple.product_via_roots_of_A),
    ) / max(m, 1e-300)
    record["resultant_rel_spread"] = rel
    record["checks"]["resultant"] = rel <= tol["resultant"]

    inv = sylvester.inverse_norm_report(pair)
    record["sylvester_inverse_ratio"] = inv.tightness_ratio

    simple = not (pair.rootsA.any_suspect or pair.rootsB.any_suspect)
    record["simple_roots"] = simple
    if simple:
        agree = 0.0
        try:
            for name in ("residue", "quadrature"):
                other = BACKENDS[name](pair, None, tol)
                record["backends"].append(name)
                record[f"residual_{name}"] = other.residual
                agree = max(
                    agree, (sol.R - other.R).norm(), (sol.S - other.S).norm()
                )
            record["agreement"] = agree
            record["checks"]["agreement"] = agree <= tol["agreement"]
        except (DegenerateArrangement, QuadratureNotConverged) as exc:
            record["analytic_backend_skipped"] = f"{type(exc).__name__}: {exc}"

    record["seconds"] = time.perf_counter() - t0
    if "analytic_backend_skipped" in record or not all(record["checks"].values()):
        # the input files of `bezmin solve A.json B.json`, which replays it
        record["A"] = pair.A.to_json_dict()
        record["B"] = pair.B.to_json_dict()
    return record


def cmd_certify(args, tol) -> int:
    for flag, value, least in (
        ("--count", args.count, 1),
        ("--min-degree", args.min_degree, 1),
        ("--max-degree", args.max_degree, args.min_degree),
        ("--workers", args.workers, 1),
    ):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    if not math.isfinite(args.delta_floor):
        raise ValueError(f"--delta-floor must be finite, got {args.delta_floor}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).spawn(args.count)
    tasks = [(args, tol, i, s) for i, s in enumerate(seeds)]

    if args.workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=args.workers) as pool:
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
        "requested": args.count,
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
        "seed": args.seed,
        "ensemble_size": args.count,
        "degree_range": [args.min_degree, args.max_degree],
        "delta_floor": args.delta_floor,
        "tolerances": tol,
    }, "aggregates": aggregates, "records": records}

    path = out_dir / "certify_report.json"
    with open(path, "w") as fh:
        fh.write(_json_text(report))

    if not records:
        warning = (f"warning: no records accepted (delta floor too high?); "
                   f"report at {path}")
        if args.json:
            print(warning, file=sys.stderr)
            _print_json(aggregates)
        else:
            print(warning)
        return EXIT_OK

    max_agreement = aggregates["max_agreement"]
    _emit(args, aggregates, lambda: [
        f"records          {len(records)} / {args.count} "
        f"(rejections: {rejections or 'none'})",
        f"max delta        {aggregates['max_delta_observed']:.6g}",
        f"max ratio        {aggregates['max_ratio']:.6g}",
        f"max residual     {aggregates['max_residual_sylvester']:.3e}",
        f"max agreement    "
        f"{max_agreement if max_agreement is not None else float('nan'):.3e}",
        f"max resultant    {aggregates['max_resultant_spread']:.3e}",
        f"failures         {failures or 'none'}",
        f"report           {path}",
    ])
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
    p.add_argument("--backend", choices=[*BACKENDS, "all"], default="sylvester")
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
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_certify)

    return ap


def _tolerances(specs: list[str]) -> dict[str, float]:
    """DEFAULT_TOLERANCES with the --tol NAME=VALUE overrides applied."""
    tolerances = dict(DEFAULT_TOLERANCES)
    for spec in specs:
        name, _, value = spec.partition("=")
        if not value:
            raise ValueError(f"--tol expects NAME=VALUE, got {spec!r}")
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(
                f"unknown tolerance {name!r}; expected one of "
                f"{', '.join(DEFAULT_TOLERANCES)}"
            )
        tolerances[name] = float(value)
    for name, value in tolerances.items():
        # a NaN tolerance fails every check and an infinite one none
        if not (0 < value < math.inf):
            raise ValueError(
                f"tolerance {name} must be finite and positive, got {value}"
            )
    return tolerances


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _tolerances(args.tol))
    except (OSError, ValueError) as exc:
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
