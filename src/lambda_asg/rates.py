"""Jump rates of every chain the coupling drives, as slices of one binomial mixture.

``T_p[m, k] = sum_a mass_a Binom(m, p_a)(k)`` at ``p = y`` and ``p = y + z``:

- Moran chain at i of N, ``x = i / N``: ``i -> i + k`` at ``x T_y[N - i, k]``
  (a disadvantaged reproducer hits k advantaged individuals) and ``i -> i - k``
  at ``(1 - x) T_{y+z}[i, k]``.
- Ancestor counts at n lines, ``x = n / N`` for the potential ancestors in a
  population of N and ``x = 0`` for the limit chain: ``n -> n - j`` at
  ``x T_y[n - 1, j] + (1 - x) T_y[n, j + 1]`` (a member reproducer hits j other
  lines neutrally, or an outside one hits j + 1) and ``n -> n + 1`` at
  ``(1 - x) (T_y[n, 0] - T_{y+z}[n, 0])`` (an outside reproducer whose hits
  are all selective).

Rows follow the Pascal recurrence ``B(m + 1, k) = (1 - p) B(m, k) + p B(m, k - 1)``,
vectorized over atoms: every term is nonnegative, so relative accuracy holds in
the tails, and ``p = 0`` or ``1`` gives exact 0/1 entries.  The branch column is
differenced per atom before mixing: never negative, exactly 0 when neutral.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .measures import CoupledMeasure


def _pascal_rows(coupling: CoupledMeasure, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(m, rows)`` for m = 0..size, where ``rows[a, k + 1]`` is
    ``Binom(m, p_a)(k)`` over the stacked ``p = (y, y + z)`` atoms and column 0
    stays 0, so one update also covers k = 0.  One buffer is updated in place."""
    c = coupling
    p = np.concatenate([c.ys, c.ys + c.zs])[:, None]
    q = 1.0 - p
    rows = np.zeros((len(p), size + 2))
    rows[:, 1] = 1.0
    for m in range(size + 1):
        if m > 0:
            rows[:, 1 : m + 2] = q * rows[:, 1 : m + 2] + p * rows[:, : m + 1]
        yield m, rows


def _weights(coupling: CoupledMeasure) -> np.ndarray:
    """One row of weights per table over the stacked (y, y + z) atoms."""
    return np.kron(np.eye(2), coupling.masses)


class MixtureRows:
    """Rows ``m`` in ``ms`` of ``T_y``, ``T_{y+z}`` and ``branch`` (``y[m]``,
    ``s[m]`` of length m + 1, and ``branch[m]``), by the recurrence of
    :class:`MixtureTables` in O(max(ms)) memory.  Both classes read rates
    from ``y[m]``, ``s[m]`` and ``branch[m]`` alone."""

    def __init__(self, coupling: CoupledMeasure, ms: Iterable[int]) -> None:
        c = coupling
        ms = set(ms)
        weights = _weights(c)
        self.y, self.s, self.branch = {}, {}, {}
        for m, rows in _pascal_rows(c, max(ms)):
            if m in ms:
                self.y[m], self.s[m] = weights @ rows[:, 1 : m + 2]
                # (1 - p)^m is column k = 0 of the rows
                self.branch[m] = float((rows[: len(c), 1] - rows[len(c) :, 1]) @ c.masses)

    def moran_jumps(self, N: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``(up, down)``: rates of ``count -> count + k`` and ``count -> count - k``
        at index k (index 0 zero).  Needs rows ``N - count`` and ``count``."""
        x = count / N
        up = np.zeros(N - count + 1)
        down = np.zeros(count + 1)
        if 0 < count < N:
            up[1:] = x * self.y[N - count][1 : N - count + 1]
            down[1:] = (1.0 - x) * self.s[count][1 : count + 1]
        return up, down

    def ancestor_row(self, n: int, N: int | None) -> np.ndarray:
        """Row n of :meth:`MixtureTables.ancestor_rates`: the branch ``n -> n + 1``
        at column 0, the coalescence ``n -> n - j`` at column j.  Needs rows
        ``n - 1`` and ``n``."""
        x = n / N if N is not None else 0.0
        row = np.zeros(n + 1)
        row[0] = (1.0 - x) * self.branch[n]
        row[1:n] = x * self.y[n - 1][1:n] + (1.0 - x) * self.y[n][2 : n + 1]
        return row


class MixtureTables(MixtureRows):
    """``y = T_y``, ``s = T_{y+z}`` (zero for ``k > m``) and ``branch[m] =
    T_y[m, 0] - T_{y+z}[m, 0]`` for rows ``m = 0..size``."""

    def __init__(self, coupling: CoupledMeasure, size: int) -> None:
        c = coupling
        q = 1.0 - np.concatenate([c.ys, c.ys + c.zs])
        weights = _weights(c)
        self.y, self.s = mix = np.zeros((2, size + 1, size + 1))
        for m, rows in _pascal_rows(c, size):
            mix[:, m, : m + 1] = weights @ rows[:, 1 : m + 2]
        # (1 - p)^m by the same products as column k = 0 of the rows
        powers = np.cumprod(np.vstack([np.ones(len(q)), np.repeat(q[None], size, axis=0)]), axis=0)
        self.branch = (powers[:, : len(c)] - powers[:, len(c) :]) @ c.masses

    def ancestor_rates(self, size: int, N: int | None) -> np.ndarray:
        """Rates of an ancestor count at states ``0..size``: row n is
        :meth:`ancestor_row` (n), zero from column n on, all rows at once.
        ``N`` is the population size, None the limit chain."""
        rates = np.zeros((size + 1, size + 1))
        x = np.arange(1, size + 1)[:, None] / N if N is not None else 0.0
        rates[1:, :1] = (1.0 - x) * self.branch[1 : size + 1, None]
        rates[1:, 1:size] = (
            x * self.y[:size, 1:size] + (1.0 - x) * self.y[1 : size + 1, 2 : size + 1]
        )
        return rates


class AncestorChain:
    """Cumulative jump rows ``cum`` and total rates ``total`` of the limit
    ancestor count.  Row s holds the branch (target s + 1) at index 0, then
    targets s - 1 .. 1, and 1 from index s - 1 on.  The rows grow on demand
    by rebuilding the tables at the larger size."""

    def __init__(self, coupling: CoupledMeasure, size: int) -> None:
        self.coupling = coupling
        self.total = np.zeros(0)
        self.grow(size)

    def grow(self, size: int) -> None:
        if size < len(self.total):
            return
        rates = MixtureTables(self.coupling, size).ancestor_rates(size, None)
        self.total = rates.sum(axis=1)
        self.cum = np.divide(
            np.cumsum(rates, axis=1), self.total[:, None],
            out=np.ones_like(rates), where=self.total[:, None] > 0.0,
        )
        self.cum[~np.tri(size + 1, k=-2, dtype=bool)] = 1.0
