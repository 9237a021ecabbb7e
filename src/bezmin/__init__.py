"""Minimal Bezout cofactors for coprime complex polynomials.

Core objects: Polynomial (dense complex coefficients), RootSet (certified
roots), DeltaReport (separation quantities), ContourSystem (circular-arc
region boundaries, built for a RegionKind), and BezoutSolution (the
minimal-degree pair R, S with A*R + B*S = P). The monomial family
P = z^l is solve(build(A, B), Polynomial.monomial(l)).
"""

from .poly import Polynomial
from .roots import RootSet, find_roots, perturb_to_simple
from .separation import (
    DeltaReport,
    check_separation,
    delta,
    delta_report,
    delta_tilde,
)
from .sylvester import (
    BezoutSolution,
    SylvesterMatrix,
    build,
    inverse_norm_report,
    resultant,
    solve,
)
from .regions import (
    Arc,
    ContourSystem,
    Disk,
    RegionKind,
    build_region,
    contour_metrics,
    invert_contour,
    membership,
    winding_number,
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
    "perturb_to_simple",
    "DeltaReport",
    "delta",
    "delta_report",
    "delta_tilde",
    "check_separation",
    "SylvesterMatrix",
    "BezoutSolution",
    "build",
    "solve",
    "resultant",
    "inverse_norm_report",
    "Arc",
    "ContourSystem",
    "Disk",
    "RegionKind",
    "build_region",
    "contour_metrics",
    "invert_contour",
    "membership",
    "winding_number",
    "winding_numbers",
    "certify_main_bound",
    "solve_quadrature",
    "solve_residue",
    "solve_reversed",
    "emit_svg",
]

__version__ = "0.1.0"
