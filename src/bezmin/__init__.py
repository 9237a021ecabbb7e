"""Minimal Bezout cofactors for coprime complex polynomials.

Core objects: Polynomial (dense complex coefficients), Pair (one input pair,
from build(A, B): A and B after normalize(), which every layer reads, their
degrees, Sylvester entries, and the roots, the values of each polynomial at
the other's roots, delta and the singular values, each computed once on
first use; Pair.delta refuses a common root with CommonRootError), RootSet
(certified roots), DeltaReport (separation quantities), ContourSystem (a
region boundary built for a RegionKind: the arcs between cuts of its disk
circles whose midpoints lie on the boundary, as one table of center, radius,
start and end angle arrays plus a loop index per arc), and BezoutSolution
(the minimal-degree pair R, S with A*R + B*S = P). The separation
quantities, solvers and reports all take the Pair and read delta from it;
the monomial family P = z^l is solve(build(A, B), Polynomial.monomial(l)).
"""

from .poly import Polynomial
from .roots import RootSet, find_roots
from .separation import (
    DeltaReport,
    check_separation,
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
    invert_contour,
    region_probes,
    winding_numbers,
)
from .backends import (
    certify_main_bound,
    contour_metrics,
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
    "invert_contour",
    "region_probes",
    "winding_numbers",
    "certify_main_bound",
    "contour_metrics",
    "solve_quadrature",
    "solve_residue",
    "solve_reversed",
    "emit_svg",
]

__version__ = "0.1.0"
