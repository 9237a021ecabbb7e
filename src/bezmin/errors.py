"""Exception hierarchy shared across the package."""


class BezminError(Exception):
    """Base class for all package-specific failures."""


class DegreeZeroError(BezminError):
    """A constant polynomial was given where roots are needed: root finding,
    or the Pair of A and B, which needs both degrees at least 1."""


class CommonRootError(BezminError):
    """A and B (numerically) share a root, so no Bezout solution exists.

    Carries the offending DeltaReport in ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SeparationViolation(BezminError):
    """A sampled point landed in both sub-level sets; indicates a bug."""


class DegenerateArrangement(BezminError):
    """Two distinct circles of an arrangement are tangent within tolerance."""


class ContourNestingError(BezminError):
    """A constructed boundary has nested loops; orientation rules are not
    defined for this case and the caller should jitter the instance."""


class OnContourError(BezminError):
    """Winding number requested at a point lying on the contour."""


class OriginTooClose(BezminError):
    """Inversion z -> 1/z requested for a contour passing through 0."""


class OriginInRegionError(OriginTooClose):
    """A region construction that requires inversion found 0 on the contour."""


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
