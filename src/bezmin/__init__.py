"""Minimal Bezout cofactors for coprime complex polynomials.

Core objects: Polynomial (dense complex coefficients), Pair (one input pair,
from build(A, B): its degrees, Sylvester entries, and the roots, delta and
LU factors, each computed once on first use), RootSet (certified roots),
DeltaReport (separation quantities), ContourSystem (a region boundary built
for a RegionKind, as one table of circular arcs: center, radius, start and
end angle arrays plus a loop index per arc), and BezoutSolution (the minimal-degree
pair R, S with A*R + B*S = P). The separation quantities, solvers and
reports all take the Pair; the monomial family P = z^l is
solve(build(A, B), Polynomial.monomial(l)).
"""

from .poly import Polynomial
from .roots import RootSet, find_roots
from .separation import (
    DeltaReport,
    check_separation,
    delta,
    delta_report,
    delta_tilde,
)
from .sylvester import (
    BezoutSolution,
    Pair,
    build,
    inverse_norm_report,
    resultant,
    solve,
)
from .regions import (
    ContourSystem,
    RegionKind,
    build_region,
    contour_metrics,
    invert_contour,
    membership,
    region_probes,
    winding_numbers,
)
from .backends import (
    certify_main_bound,
    solve_quadrature,
    solve_residue,
    solve_reversed,
)
from .svgout import emit_svg

__all__ = [
    "Polynomial",
    "RootSet",
    "find_roots",
    "DeltaReport",
    "delta",
    "delta_report",
    "delta_tilde",
    "check_separation",
    "Pair",
    "BezoutSolution",
    "build",
    "solve",
    "resultant",
    "inverse_norm_report",
    "ContourSystem",
    "RegionKind",
    "build_region",
    "contour_metrics",
    "invert_contour",
    "membership",
    "region_probes",
    "winding_numbers",
    "certify_main_bound",
    "solve_quadrature",
    "solve_residue",
    "solve_reversed",
    "emit_svg",
]

__version__ = "0.1.0"
