"""Exception hierarchy shared across the package."""


class BezminError(Exception):
    """Base class for all package-specific failures."""


class DegreeZeroError(BezminError):
    """A constant polynomial was given where roots are needed: root finding,
    or the Pair of A and B, which needs both degrees at least 1."""


class CommonRootError(BezminError):
    """A and B (numerically) share a root, so no Bezout solution exists;
    raised by Pair.delta."""


class SeparationViolation(BezminError):
    """Both sub-level sets hold a box centre, or the box search gave up."""


class DegenerateArrangement(BezminError):
    """A region boundary cannot be built or certified: two circles that can
    carry it are tangent within tolerance, a disk has radius 0, a root of A
    lies at 0 where D_A needs it off, the boundary is empty, its arcs do not
    close into loops, or it fails its winding certificate."""


class OnContourError(BezminError):
    """Winding number requested at a point lying on the contour."""


class OriginTooClose(BezminError):
    """Inversion z -> 1/z requested for a contour that passes within
    tolerance of 0, or one of whose circles passes through 0 (its image would
    be a line); the inverted region kind raises it for such a GAMMA1."""


class SingularSystemError(BezminError):
    """The Sylvester system is numerically singular (common roots)."""


class MultipleRootsError(BezminError):
    """An analytic backend was given a root set with multiplicity flags."""


class IllConditionedInterpolation(BezminError):
    """Barycentric weights overflowed; interpolation nodes too close."""


class BadContour(BezminError):
    """A quadrature contour fails its winding-number admissibility check."""


class QuadratureNotConverged(BezminError):
    """Doubling the quadrature order still changes the result beyond tolerance."""


class ZeroRootError(BezminError):
    """The reversal pipeline needs A(0) != 0 and B(0) != 0; the Sylvester
    backend has no such restriction."""
