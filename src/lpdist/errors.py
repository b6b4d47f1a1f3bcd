"""Exception types shared across the package."""


class LpError(Exception):
    """Base class for all errors raised by this package."""


class Infeasible(LpError):
    """The linear program has no feasible point."""


class Unbounded(LpError):
    """The objective is unbounded below over the feasible set."""


class SingularBasis(LpError):
    """A requested column subset is not invertible."""


class InstanceTooLarge(LpError):
    """Exhaustive enumeration would exceed the configured cap."""


class NotSlater(LpError):
    """The supplied point is not strictly positive and feasible."""


class DegenerateDenominator(LpError):
    """A ratio was requested with a zero denominator."""


class EmptyPolytope(LpError):
    """A geometric operation was applied to a polytope with no vertices."""


class NoConvergence(LpError):
    """An iterative routine exhausted its iteration budget."""


class NotUnique(LpError):
    """An operation requiring a unique optimum found several."""


class SingularCovariance(LpError):
    """A covariance matrix that must be invertible is singular."""


class InstanceMismatch(LpError):
    """A built-in instance failed its construction self-check."""


class NonFiniteData(LpError, ValueError):
    """An input array holds NaN or infinity."""
