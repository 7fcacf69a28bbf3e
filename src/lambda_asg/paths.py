"""Piecewise-constant jump paths recorded as (time, value) change points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_range


@dataclass(frozen=True)
class FrequencyPath:
    """A cadlag path: ``values[k]`` holds on ``[times[k], times[k+1])``.

    ``times[0]`` is the start time (usually 0) and the last value holds
    forever after; only change points are recorded.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if len(self.times) == 0:
            raise ValueError("a path needs at least its initial point")
        # a count of the increasing steps refuses a NaN time as ``all`` would,
        # and costs a third of it on the few points of a one-row path
        if np.count_nonzero(self.times[1:] > self.times[:-1]) != len(self.times) - 1:
            raise ValueError("times must be strictly increasing")

    def value_at(self, t: float):
        """Value of the path at time t (right-continuous); a t before the
        start, or NaN, is refused by name."""
        check_range("t", t, float(self.times[0]))
        return self.values[int(np.searchsorted(self.times, t, side="right")) - 1]

    @property
    def final(self):
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.times)
