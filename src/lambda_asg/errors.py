"""Exception types raised by the lambda_asg toolkit."""


class LambdaAsgError(Exception):
    """Base class for all toolkit errors."""


class OrderViolation(LambdaAsgError):
    """The two measures are not stochastically ordered, so no monotone
    coupling with a nonnegative gap coordinate exists."""


class ZeroMass(LambdaAsgError):
    """An operation required a measure with positive total mass."""


class SizeLimit(LambdaAsgError):
    """A dense oracle or in-memory construction was asked to exceed its
    supported size."""


class SingularSystem(LambdaAsgError):
    """The interior absorption system is singular (reducible chain)."""


class StateCapReached(LambdaAsgError):
    """A line-counting path exceeded the configured state cap."""


class DegenerateSelection(LambdaAsgError):
    """The selective-gap coordinate vanishes, so the fixation recursion
    would divide by zero; use the neutral fixation formula instead."""


class NearSingular(LambdaAsgError):
    """A pivot in the polynomial back-substitution fell below tolerance."""


class NotConverged(LambdaAsgError):
    """The truncated fixation series has not converged at the requested
    truncation order."""
