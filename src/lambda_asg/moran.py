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

import numpy as np

from .errors import SingularSystem, SizeLimit
from .measures import CoupledMeasure
from .paths import FrequencyPath
from .rates import MixtureTables
from .rng import TAG_EVENT_JUMPS, TAG_MORAN, TAG_MORAN_PATH, batched, substream

MAX_DENSE_N = 2000
# largest N for the dense matrix duality check B D = D A^T
MAX_DUALITY_N = 300


@dataclass(frozen=True)
class MoranConfig:
    N: int
    coupling: CoupledMeasure
    initial_count: int

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("population size must be >= 2")
        if not 0 <= self.initial_count <= self.N:
            raise ValueError("initial_count must lie in [0, N]")


def jump_rates(cfg: MoranConfig, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition rates out of ``count`` disadvantaged individuals.

    Returns ``(up, down)`` with ``up[k]`` the rate of ``count -> count + k``
    for k = 1..N-count and ``down[k]`` the rate of ``count -> count - k`` for
    k = 1..count (index 0 of each array is unused and zero).
    """
    if not 0 <= count <= cfg.N:
        raise ValueError("count out of range")
    tables = MixtureTables(cfg.coupling, max(count, cfg.N - count))
    return tables.moran_jumps(cfg.N, count)


def generator_matrix(cfg: MoranConfig) -> np.ndarray:
    """Dense (N+1) x (N+1) generator of the count chain; rows 0 and N are zero."""
    N = cfg.N
    if N > MAX_DENSE_N:
        raise SizeLimit(f"dense generator limited to N <= {MAX_DENSE_N}, got {N}")
    tables = MixtureTables(cfg.coupling, N)
    Q = np.zeros((N + 1, N + 1))
    for i in range(1, N):
        up, down = tables.moran_jumps(N, i)
        Q[i, i + 1 :] = up[1:]
        Q[i, i - 1 :: -1] = down[1:]
        Q[i, i] = -(up[1:].sum() + down[1:].sum())
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


def _event_updates(
    counts: np.ndarray, N: int, c: CoupledMeasure, rng: np.random.Generator
) -> np.ndarray:
    """Apply one reproduction event to every entry of ``counts`` (vectorized)."""
    n = np.shape(counts)
    reproducer_minus = rng.random(n) * N < counts
    a = c.sample_atoms(rng, n)
    gains = rng.binomial(N - counts, c.ys[a])
    losses = rng.binomial(counts, c.ys[a] + c.zs[a])
    return np.where(reproducer_minus, counts + gains, counts - losses)


def run_events(x: np.ndarray, lo, hi, budget, update) -> np.ndarray:
    """Apply events to the entries of ``x`` in place, one per round, and return it.

    A round passes the entries strictly inside ``(lo, hi)`` that still have
    events left to ``update`` and stores its result.  ``budget`` is each
    entry's event count, or one cap shared by all entries.
    """
    for step in range(int(np.max(budget, initial=0))):
        live = (budget > step) & (x > lo) & (x < hi)
        if not live.any():
            break
        idx = np.nonzero(live)[0]
        x[idx] = update(x[idx])
    return x


def event_path(
    x0, lo, hi, rate: float, horizon: float, update, rng: np.random.Generator
) -> FrequencyPath:
    """One path from ``x0`` up to ``horizon``, recorded at change points.

    Per step: an exponential holding time at ``rate``, then one event applied
    by ``update`` to a 0-d array.  Stops early once the value leaves
    ``(lo, hi)``, where it stays.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times = [0.0]
    values = [x0]
    t = 0.0
    x = x0
    while rate > 0.0 and lo < x < hi:
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        new = update(np.array(x)).item()
        if new != x:
            x = new
            times.append(t)
            values.append(x)
    return FrequencyPath(times=np.asarray(times), values=np.asarray(values))


def simulate(cfg: MoranConfig, horizon: float, seed: int, replicate: int = 0) -> FrequencyPath:
    """Event-driven exact simulation up to ``horizon``.

    Records the initial point and every count change; stops early once
    absorbed (the path is constant afterwards).  Deterministic given
    (seed, replicate).
    """
    rng = substream(seed, TAG_MORAN_PATH, replicate)
    N, c = cfg.N, cfg.coupling
    return event_path(
        int(cfg.initial_count), 0, N, c.total_mass, horizon,
        lambda x: _event_updates(x, N, c, rng), rng,
    )


def simulate_final_counts(
    cfg: MoranConfig, horizon: float, replicates: int, seed: int,
    key: tuple[int, ...] = (TAG_MORAN,),
) -> np.ndarray:
    """Time-``horizon`` marginal counts over many replicates (vectorized).

    Replicates are processed in fixed-size chunks with independent seed
    streams, so results do not depend on batching or worker count.
    """
    N, c = cfg.N, cfg.coupling

    def run(n: int, rng: np.random.Generator) -> np.ndarray:
        # event times are irrelevant for the fixed-time marginal; only the
        # Poisson event count per path matters
        return run_events(
            np.full(n, cfg.initial_count, dtype=np.int64), 0, N,
            rng.poisson(c.total_mass * horizon, size=n),
            lambda x: _event_updates(x, N, c, rng),
        )

    return batched(replicates, seed, key, np.int64, run)


def sample_event_jumps(
    cfg: MoranConfig, count: int, n_events: int, seed: int
) -> np.ndarray:
    """Signed jump sizes of ``n_events`` independent single events at a pinned
    count (the state is reset after each event); oracle for the jump law."""
    rng = substream(seed, TAG_EVENT_JUMPS, 0)
    c = cfg.coupling
    if c.total_mass == 0.0:
        return np.zeros(n_events, dtype=np.int64)
    pinned = np.full(n_events, count, dtype=np.int64)
    return _event_updates(pinned, cfg.N, c, rng) - count
