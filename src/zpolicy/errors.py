"""Exception types shared across the package."""


class ZPolicyError(Exception):
    """Base class for all package errors."""


class NonPositiveRate(ZPolicyError):
    """A Markov transition rate was zero or negative."""


class InvalidSetPoint(ZPolicyError):
    """Set-point outside the admissible temperature range."""


class SingularSystem(ZPolicyError):
    """Stationary linear system is rank-deficient beyond the known
    conservation redundancy, or produced significantly negative densities."""


class UnsortedInput(ZPolicyError):
    """A vector that must be ascending was not."""


class NotADistribution(ZPolicyError):
    """A candidate threshold distribution violates monotonicity or bounds."""


class MissingOccupation(ZPolicyError):
    """Simulation result lacks occupation records needed by the caller."""


class NoCoalescence(ZPolicyError):
    """Coupling from the past exhausted its doubling budget."""


class EmptySamples(ZPolicyError):
    """An estimator was called with no samples."""


class UnstableScheme(ZPolicyError):
    """Explicit finite-difference scheme parameters violate the stability bound."""


class NoConvergence(ZPolicyError):
    """Iterative solver exceeded its iteration budget."""
