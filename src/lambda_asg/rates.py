"""Jump rates of every chain the coupling drives, as rows of one binomial mixture.

``T_p[m, k] = sum_a mass_a Binom(m, p_a)(k)`` at ``p = y`` and ``p = y + z``.
:class:`MixtureRows` gives one generator row per state, indexed by target
state (the diagonal entry is left 0):

- :meth:`MixtureRows.moran_row` (N, i), the Moran chain at i of N,
  ``x = i / N``: ``i -> i + k`` at ``x T_y[N - i, k]`` (a disadvantaged
  reproducer hits k advantaged individuals) and ``i -> i - k`` at
  ``(1 - x) T_{y+z}[i, k]``, for targets 0..N.
- :meth:`MixtureRows.ancestor_row` (n, N), ancestor counts at n lines,
  ``x = n / N`` for the potential ancestors in a population of N and
  ``x = 0`` for the limit chain (``N=None``): ``n -> n - j`` at
  ``x T_y[n - 1, j] + (1 - x) T_y[n, j + 1]`` (a member reproducer hits j
  other lines neutrally, or an outside one hits j + 1) and ``n -> n + 1`` at
  ``(1 - x) (T_y[n, 0] - T_{y+z}[n, 0])`` (an outside reproducer whose hits
  are all selective), for targets 0..n+1.  :meth:`MixtureRows.ancestor_rates`
  (K, N) stacks rows 1..K into the count's off-diagonal rates on 0..K, the one
  builder that the dense finite-N generator, the limit generator identity
  and :class:`AncestorChain` read.

Rows follow the Pascal recurrence ``B(m + 1, k) = (1 - p) B(m, k) + p B(m, k - 1)``,
vectorized over atoms: every term is nonnegative, so relative accuracy holds in
the tails, and ``p = 0`` or ``1`` gives exact 0/1 entries.  The branch column is
differenced per atom before mixing: never negative, exactly 0 when neutral.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .measures import CoupledMeasure


class MixtureRows:
    """Rows ``m`` in ``ms`` of ``T_y`` and ``T_{y+z}`` (``y[m]``, ``s[m]``, of
    length m + 1) and ``branch[m] = T_y[m, 0] - T_{y+z}[m, 0]`` for every m up
    to ``max(ms)``, in O(max(ms)) memory beyond the rows kept."""

    def __init__(self, coupling: CoupledMeasure, ms: Iterable[int]) -> None:
        c = coupling
        ms = set(ms)
        size = max(ms)
        # stacked (y, y + z) atoms; row a of ``pascal`` holds Binom(m, p_a)(k)
        # at column k + 1 and column 0 stays 0, so one update also covers k = 0
        p = np.concatenate([c.ys, c.ys + c.zs])[:, None]
        q = 1.0 - p
        weights = np.kron(np.eye(2), c.masses)
        pascal = np.zeros((len(p), size + 2))
        pascal[:, 1] = 1.0
        self.y, self.s = {}, {}
        for m in range(size + 1):
            if m > 0:
                pascal[:, 1 : m + 2] = q * pascal[:, 1 : m + 2] + p * pascal[:, : m + 1]
            if m in ms:
                self.y[m], self.s[m] = weights @ pascal[:, 1 : m + 2]
        # (1 - p)^m for every m in one pass, by the products of column k = 0
        powers = np.cumprod(np.vstack([np.ones(len(q)), np.repeat(q.T, size, axis=0)]), axis=0)
        self.branch = (powers[:, : len(c)] - powers[:, len(c) :]) @ c.masses

    def moran_row(self, N: int, i: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rates of ``i -> j`` for j = 0..N, written into ``out`` (zeros of
        length N + 1) if given.  Needs rows ``N - i`` and ``i``."""
        x = i / N
        row = np.zeros(N + 1) if out is None else out
        np.multiply(x, self.y[N - i][1:], out=row[i + 1 :])
        np.multiply(1.0 - x, self.s[i][:0:-1], out=row[:i])
        return row

    def ancestor_row(self, n: int, N: int | None, out: np.ndarray | None = None) -> np.ndarray:
        """Rates of ``n -> m`` for m = 0..n+1, written into ``out`` (zeros of
        length n + 2) if given.  ``N`` is the population size, None the limit
        chain.  Needs rows ``n - 1`` and ``n``."""
        x = n / N if N is not None else 0.0
        row = np.zeros(n + 2) if out is None else out
        row[n + 1] = (1.0 - x) * self.branch[n]
        lower = row[1:n]
        np.multiply(x, self.y[n - 1][n - 1 : 0 : -1], out=lower)
        lower += (1.0 - x) * self.y[n][n:1:-1]
        return row

    def ancestor_rates(self, K: int, N: int | None) -> np.ndarray:
        """The ancestor count's off-diagonal rates on states 0..K, a
        ``(K + 1, K + 2)`` array: row n is :meth:`ancestor_row` (n, N) at
        targets 0..n+1 for n = 1..K, row 0 is 0, and column K + 1 holds the
        branch out of K (0 at K = N).  ``K <= N`` at finite N, any K in the
        limit; needs rows 0..K."""
        rates = np.zeros((K + 1, K + 2))
        for n in range(1, K + 1):
            self.ancestor_row(n, N, out=rates[n, : n + 2])
        return rates


class AncestorChain:
    """Total rates ``total`` and the jump table ``window`` of the limit
    ancestor count on states ``0..size``, from
    :meth:`MixtureRows.ancestor_rates`; both grow on demand by rebuilding at
    the larger size.

    :meth:`grow` builds them from the cumulative jump rows ``cum``, which it
    does not keep.  Row s of ``cum`` runs over the targets from the top
    down: index k is target ``size + 1 - k``, so a row is 0 above its branch
    (target s + 1), accumulates the targets s + 1 down to 2 and is 1 from
    target 1 on.  A row whose total is 0 is 1 throughout, so it must never be
    sampled: it would send the count to ``size + 1``.

    ``window`` holds the entries of ``cum`` from the branch down, one row per
    offset: ``window[j, s] = cum[s, min(size - s + j, size)]``, entry j of
    row s below its zeros, and 1 past its own targets (j >= s).  A uniform
    u then jumps s to ``s + 1 - sum_{j < s} (u >= window[j, s])``, the
    target that counting ``u >= cum[s]`` gives (the zeros above the branch
    pass every u), by one 1-D gather per offset over a batch of states."""

    def __init__(self, coupling: CoupledMeasure, size: int) -> None:
        self.coupling = coupling
        self.total = np.zeros(0)
        self.grow(size)

    def grow(self, size: int) -> None:
        if size < len(self.total):
            return
        rates = MixtureRows(self.coupling, range(size + 1)).ancestor_rates(size, None)
        self.total = rates.sum(axis=1)
        cum = np.divide(
            np.cumsum(rates[:, ::-1], axis=1), self.total[:, None],
            out=np.ones_like(rates), where=self.total[:, None] > 0.0,
        )
        cum[:, size:] = 1.0
        states = np.arange(size + 1)
        self.window = cum[states, np.minimum(size - states + states[:, None], size)]
