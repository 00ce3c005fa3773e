"""Exception types shared across the package."""


class MarkedPosetError(Exception):
    """Base class for all domain errors raised by this package."""


class UnboundedPolytope(MarkedPosetError):
    """The inequality system admits a recession direction (or cannot be certified bounded)."""


class EmptyPolytope(MarkedPosetError):
    """The inequality system has no solution."""


class DimensionTooLarge(MarkedPosetError):
    """An enumeration would exceed the configured work cap."""


class PointOutsidePolytope(MarkedPosetError):
    """A point handed to a face operation does not satisfy the polytope's constraints."""


class PreconditionViolated(MarkedPosetError):
    """An operation was called outside its stated hypotheses (e.g. a non-strict marking)."""


class ExtensionExplosion(MarkedPosetError):
    """The number of linear extensions exceeds the configured cap."""


class NonIntegralVertices(MarkedPosetError):
    """Lattice-point interpolation was requested for a polytope with non-integral vertices."""


class VerificationFailed(MarkedPosetError):
    """An internal cross-check failed; indicates a bug, not bad input."""
