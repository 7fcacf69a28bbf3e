"""Exception types raised by the lambda_asg toolkit, the two rules that
refuse an out-of-range argument, and the one file writer.

Every count, order and frequency argument outside its range raises a
``ValueError`` from :func:`check_range`, which names the argument, its bound
and the value: ``N must be >= 2, got 1`` for a lower bound alone, ``n0 must
lie in [1, 10], got 11`` for a closed range.  A horizon that is not a
positive finite number is refused by :func:`check_horizon`.  Both are
negated inclusive comparisons, so NaN is refused too.

Every file the package writes (an event log, a CSV or JSON artifact, a
manifest) is written by :func:`write_file`.
"""

import math


def check_range(name: str, value, lo, hi=None) -> None:
    """Refuse ``value`` outside ``[lo, hi]``, or below ``lo`` without ``hi``,
    by ``name``; NaN fails every comparison and is refused."""
    if hi is None:
        if not value >= lo:
            raise ValueError(f"{name} must be >= {lo}, got {value}")
    elif not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


def check_horizon(value: float, name: str = "horizon") -> None:
    """Refuse a horizon that is not a positive finite number, by ``name``."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def write_file(path, chunks) -> None:
    """Write the byte ``chunks`` to ``path``, truncated first: the one place
    the package opens a file for writing."""
    with open(path, "wb") as fh:
        fh.writelines(chunks)


class LambdaAsgError(Exception):
    """Base class for all toolkit errors."""


class OrderViolation(LambdaAsgError):
    """The two measures are not stochastically ordered, so no monotone
    coupling with a nonnegative gap coordinate exists.  ``witness`` is an x
    at which the lower measure's tail mass exceeds the upper's, or None when
    the refusal is a crossing of the inverse CDFs."""

    def __init__(self, message: str, witness: float | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class ZeroMass(LambdaAsgError):
    """An operation required a measure with positive total mass, such as
    the size-biased mass ``integral (y^2 + z)`` of the fixation series,
    which is zero for a coupling with no events."""


class SizeLimit(LambdaAsgError):
    """A dense oracle or in-memory construction was asked to exceed its
    supported size."""


class SingularSystem(LambdaAsgError):
    """The interior absorption system is singular (reducible chain)."""


class StateCapReached(LambdaAsgError):
    """A line-counting path exceeded the configured state cap."""


class NearSingular(LambdaAsgError):
    """A pivot in the polynomial back-substitution fell below tolerance."""


class NotConverged(LambdaAsgError):
    """The truncated fixation series has not converged at the requested
    truncation order."""
