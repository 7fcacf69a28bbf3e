"""Finite-population two-type Moran model driven by a selective coupling.

Events arrive at rate ``|coupling|``; each event picks a uniform reproducer
and an atom (y, z).  If the reproducer carries the disadvantaged type, every
other individual is replaced with probability y; if it carries the advantaged
type, with probability y + z.  The state is the count of disadvantaged
individuals, absorbing at 0 and N.

Besides the event-driven simulator this module builds the exact dense
generator matrix and the absorption-probability oracle used to verify
simulation output and fixation formulas; :mod:`lambda_asg.rates` has the rates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import SingularSystem, SizeLimit, check_horizon, check_range
from .measures import CoupledMeasure, invert_cdf
from .paths import FrequencyPath
from .rates import MixtureRows
from .rng import TAG_MORAN, TAG_MORAN_PATH, alone, batched

MAX_DENSE_N = 2000
# largest N for the dense matrix duality check B D = D A^T
MAX_DUALITY_N = 300
# largest expected event count of one draw; numpy's poisson refuses a mean
# above about 9.2e18
MAX_EVENT_MEAN = 1e18
# largest mean whose array of event counts is drawn by inverting its Poisson
# CDF table (one uniform per count); above it numpy's poisson, a transformed
# rejection sampler, stays.  At 65536 counts the table took 0.47 ms against
# 2.2 ms for poisson at mean 1.5, 0.56 against 3.0 at 4 and 1.6 against 3.1
# at 40, but the table grows with the mean and at 80 both took 2.9 ms
# (numpy 2.4.6, one core of a 2-core Xeon).  At 32 it has 89 entries.
POISSON_TABLE_MEAN = 32.0
# a table ends at the first count whose Poisson tail beyond it is below this
POISSON_TABLE_TAIL = 2.0**-53


@dataclass(frozen=True)
class MoranConfig:
    N: int
    coupling: CoupledMeasure
    initial_count: int

    def __post_init__(self) -> None:
        check_range("N", self.N, 2)
        check_range("initial_count", self.initial_count, 0, self.N)


def initial_count(N: int, x0: float) -> int:
    """The starting count ``round(x0 N)`` of the frequency ``x0`` (half to
    even): the one rule that starts a population of N from a frequency."""
    check_range("x0", x0, 0, 1)
    return int(round(x0 * N))


def jump_rates(cfg: MoranConfig, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition rates out of ``count`` disadvantaged individuals.

    Returns ``(up, down)`` with ``up[k]`` the rate of ``count -> count + k``
    for k = 1..N-count and ``down[k]`` the rate of ``count -> count - k`` for
    k = 1..count (index 0 of each array is unused and zero).
    """
    check_range("count", count, 0, cfg.N)
    row = MixtureRows(cfg.coupling, (count, cfg.N - count)).moran_row(cfg.N, count)
    return row[count:], row[count::-1].copy()


def generator_matrix(cfg: MoranConfig) -> np.ndarray:
    """Dense (N+1) x (N+1) generator of the count chain; rows 0 and N are zero."""
    N = cfg.N
    if N > MAX_DENSE_N:
        raise SizeLimit(f"dense generator limited to N <= {MAX_DENSE_N}, got {N}")
    return _generator_rows(MixtureRows(cfg.coupling, range(N + 1)), N)


def _generator_rows(rows: MixtureRows, N: int) -> np.ndarray:
    """:func:`generator_matrix` at N read from ``rows``, which hold rows 0..N
    or more (a row of the recurrence does not depend on the table size)."""
    Q = np.zeros((N + 1, N + 1))
    add = np.add.reduce  # what ndarray.sum runs, without its wrapper
    for i in range(1, N):
        row = rows.moran_row(N, i, out=Q[i])
        row[i] = -(add(row[i + 1 :]) + add(row[i - 1 :: -1]))
    return Q


def absorption_probability(cfg: MoranConfig) -> np.ndarray:
    """Probability h[i] of absorbing at N from each starting count.

    Solves Q h = 0 on interior states with h[0] = 0, h[N] = 1 by a dense
    linear solve.

    Raises:
        SingularSystem: if the interior system is singular, listing the
            interior states from which no absorbing state is reachable.
    """
    N = cfg.N
    Q = generator_matrix(cfg)
    A = Q[1:N, 1:N]
    b = -Q[1:N, N]
    try:
        interior = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        stuck = _states_not_reaching_boundary(Q)
        raise SingularSystem(
            "interior absorption system is singular; states with no path "
            f"to an absorbing boundary: {stuck}"
        ) from None
    h = np.empty(N + 1)
    h[0] = 0.0
    h[N] = 1.0
    h[1:N] = interior
    return h


def _states_not_reaching_boundary(Q: np.ndarray) -> list[int]:
    """Interior states from which neither 0 nor N is reachable through Q > 0."""
    n_states = Q.shape[0]
    reaches = np.zeros(n_states, dtype=bool)
    reaches[0] = reaches[-1] = True
    queue = deque([0, n_states - 1])
    incoming = [np.nonzero(Q[:, j] > 0)[0] for j in range(n_states)]
    while queue:
        j = queue.popleft()
        for i in incoming[j]:
            if i != j and not reaches[i]:
                reaches[i] = True
                queue.append(i)
    return [int(s) for s in np.nonzero(~reaches)[0]]


def _size(x):
    """The ``size`` of the draws of an event rule on the state ``x``: its
    shape, or None for a scalar.  A scalar state (a Python int or float, as
    a one-row run hands it) draws on numpy's scalar route, which gives the
    values of a one-entry array draw in Python scalars, many times faster."""
    return x.shape if isinstance(x, np.ndarray) else None


def _event_updates(counts, N: int, c: CoupledMeasure, rng: np.random.Generator):
    """Apply one reproduction event to every entry of ``counts`` (vectorized),
    or to one scalar count.

    Each event draws a uniform (is the reproducer disadvantaged?), an atom
    (y, z) and one binomial: a disadvantaged reproducer turns each of the
    ``N - count`` advantaged individuals with probability y, an advantaged
    one each of the ``count`` disadvantaged individuals with y + z.
    """
    n = _size(counts)
    minus = rng.random(n) * N < counts
    a = c.sample_atoms(rng, n)
    # where(minus, N - counts, counts), where(minus, y, y + z) and then
    # where(minus, counts + moved, counts - moved), the same numbers as
    # arithmetic, which a bool array and a Python bool both take
    moved = rng.binomial(counts + minus * (N - 2 * counts), c.ys[a] + c.zs[a] * (minus ^ True))
    return counts + moved * (2 * minus - 1)


def _rounds(x: np.ndarray, lo, hi, budget, update) -> Iterator[int]:
    """Apply events to the entries of ``x`` in place, one per round, and yield
    each round's index after it is applied.

    A round passes the entries strictly inside ``(lo, hi)`` that still have
    events left to ``update`` and stores its result.  ``budget`` holds each
    entry's event count.  An entry is live for a prefix of the rounds, so
    round e applies its e-th event.

    An entry that leaves the live set never returns to it: it is no longer
    updated, so it keeps its value, and its budget only counts down.  So the
    live indices are found once and then narrowed after each round to the
    ones whose update stayed inside with events left; every round hands
    ``update`` the same entries, in the same ascending order, as a scan of
    the whole array would.
    """
    idx = ((budget > 0) & (x > lo) & (x < hi)).nonzero()[0]
    left = budget[idx]
    step = 0
    while len(idx):
        x[idx] = v = update(x[idx])
        yield step
        step += 1
        k = ((left > step) & (v > lo) & (v < hi)).nonzero()[0]
        idx, left = idx[k], left[k]


@lru_cache(maxsize=256)
def _poisson_cdf(mean: float) -> np.ndarray:
    """The read-only CDF table of Poisson(mean), for ``0 <= mean <=
    POISSON_TABLE_MEAN``: entry k is P(X <= k), up to the first k whose tail
    P(X > k) is below ``POISSON_TABLE_TAIL``, and that last entry is exactly
    1.0.  Cached per mean."""
    top = int(mean + 20.0 * np.sqrt(mean) + 40.0)
    pmf = np.empty(top + 1)
    pmf[0] = np.exp(-mean)
    pmf[1:] = mean / np.arange(1, top + 1)
    np.cumprod(pmf, out=pmf)
    # P(X > k), summed from the far end (beyond top it is below 1e-80)
    tail = np.cumsum(pmf[::-1])[::-1][1:]
    last = int(np.argmax(tail < POISSON_TABLE_TAIL))
    cdf = np.minimum(np.cumsum(pmf[: last + 1]), 1.0)
    cdf[-1] = 1.0
    cdf.setflags(write=False)
    return cdf


def _event_counts(
    rng: np.random.Generator, rate: float, horizon: float, size: int | None = None
) -> np.ndarray | int:
    """Poisson(rate * horizon) event counts of the rows of a run, one per
    entry of ``size``, or one Python int without it (one row, or an ASG
    realization): the count rule of every event stream.

    With a mean up to ``POISSON_TABLE_MEAN`` each count takes one uniform,
    inverted through the mean's CDF table (:func:`_poisson_cdf`) by
    :func:`~lambda_asg.measures.invert_cdf`, the rule of the atom draws; so
    one count is the count of a one-entry array.  A larger mean is one
    ``poisson`` call.

    Raises:
        ValueError: if the mean is negative, NaN or above ``MAX_EVENT_MEAN``,
            naming the horizon and the expected event count.
    """
    mean = rate * horizon
    if not mean >= 0.0:
        raise ValueError(
            f"horizon {horizon:g} gives {mean:.3g} expected events (mass * horizon); "
            "it must be a nonnegative number"
        )
    if mean > MAX_EVENT_MEAN:
        raise ValueError(
            f"horizon {horizon:g} gives {mean:.3g} expected events (mass * horizon), "
            f"more than the {MAX_EVENT_MEAN:.0e} that can be drawn; shorten the horizon"
        )
    if mean > POISSON_TABLE_MEAN:
        return rng.poisson(mean, size)
    return invert_cdf(_poisson_cdf(mean), rng.random(size))


def _event_times(rng: np.random.Generator, k: int, horizon: float) -> np.ndarray:
    """The times of k events on [0, horizon], sorted: given its count, a
    Poisson process puts its events at sorted uniforms (``random(k)``).  The
    one array is sorted and scaled in place, 8 bytes per event."""
    times = rng.random(k)
    times.sort()
    times *= horizon
    return times


def _path(
    rng: np.random.Generator, count: int, horizon: float, values: list, dtype
) -> FrequencyPath:
    """The recorded path of a run of ``count`` events: the start and every
    change of the list ``values``, the run's value at the start and after
    each event, at the event times that :func:`_event_times` draws for all
    ``count`` events.  ``values`` may end early, where the run stopped and
    held still, and its items beyond ``count + 1`` are not read."""
    stamps, held = [0.0], values[:1]
    for t, before, after in zip(_event_times(rng, count, horizon).tolist(), values, values[1:]):
        if after != before:
            stamps.append(t)
            held.append(after)
    return FrequencyPath(times=np.array(stamps), values=np.array(held, dtype=dtype))


def record_events(
    x: np.ndarray, lo, hi, rate: float, horizon: float, update,
    rng: np.random.Generator, keep: int,
) -> tuple[np.ndarray, list[FrequencyPath]]:
    """Run the entries of ``x`` on [0, horizon] and record the first ``keep``.

    Each entry draws a Poisson(rate * horizon) event count (one
    :func:`_event_counts` call for all), then :func:`_rounds` applies the
    events.  Given its count k, an entry's event times are k sorted uniforms
    on [0, horizon], independent of the events (order statistics of a
    Poisson process), so they are drawn after the rounds by :func:`_path`,
    for each recorded entry in turn: the final values do not depend on
    ``keep``.  Returns ``x`` and the paths of its first ``keep`` entries,
    recorded at change points.

    A one-entry ``x`` draws the same numbers on a route of Python scalars
    (see :func:`_size`): one count, and a loop that hands ``update`` the
    value while it stays inside ``(lo, hi)``.
    """
    check_horizon(horizon)
    if len(x) == 1:
        counts = [_event_counts(rng, rate, horizon)]
        v = x.item(0)
        runs = [[v]]
        for _ in range(counts[0]):
            if not lo < v < hi:
                break
            v = update(v)
            runs[0].append(v)
        x[0] = v
    else:
        counts = _event_counts(rng, rate, horizon, len(x))
        top = counts[:keep].max(initial=0)
        seen = [x[:keep].copy()]
        for step in _rounds(x, lo, hi, counts, update):
            if step < top:
                seen.append(x[:keep].copy())
        # row j of runs is entry j's values after each round
        runs = np.array(seen).T.tolist()
    return x, [_path(rng, k, horizon, run, x.dtype) for k, run in zip(counts[:keep], runs)]


def _moran_run(
    n: int, rng: np.random.Generator, cfg: MoranConfig, horizon: float, keep: int = 0
) -> tuple[np.ndarray, list[FrequencyPath]]:
    """:func:`record_events` on n replicates of the count chain."""
    N, c = cfg.N, cfg.coupling
    return record_events(
        np.full(n, cfg.initial_count, dtype=np.int64), 0, N, c.total_mass, horizon,
        lambda x: _event_updates(x, N, c, rng), rng, keep,
    )


def simulate(cfg: MoranConfig, horizon: float, seed: int, replicate: int = 0) -> FrequencyPath:
    """Event-driven exact simulation up to ``horizon``.

    Records the initial point and every count change; the path is constant
    once absorbed.  The one-replicate case of :func:`simulate_replicates` on
    stream ``(seed, TAG_MORAN_PATH, replicate)``.
    """
    return alone(seed, TAG_MORAN_PATH, replicate, _moran_run, cfg, horizon)


def simulate_final_counts(
    cfg: MoranConfig, horizon: float, replicates: int, seed: int,
    key: tuple[int, ...] = (TAG_MORAN,),
) -> np.ndarray:
    """Time-``horizon`` marginal counts over many replicates (vectorized).

    Replicates are processed in fixed-size chunks with independent seed
    streams, so results do not depend on batching or worker count.
    """
    return batched(
        replicates, seed, key, lambda n, rng: _moran_run(n, rng, cfg, horizon)[0]
    )


def simulate_replicates(
    cfg: MoranConfig, horizon: float, replicates: int, seed: int, max_paths: int
) -> tuple[np.ndarray, list[FrequencyPath]]:
    """The counts of :func:`simulate_final_counts` and the paths of its first
    ``max_paths`` replicates: path r ends at count r."""
    return batched(
        replicates, seed, (TAG_MORAN,), _moran_run, cfg, horizon, paths=max_paths
    )
