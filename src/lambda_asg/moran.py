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
from .rng import TAG_EVENT_JUMPS, TAG_MORAN, TAG_MORAN_PATH, chunk_bounds, substream

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
    counts: np.ndarray, N: int, c: CoupledMeasure, atom_p: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply one reproduction event to every entry of ``counts`` (vectorized)."""
    n = len(counts)
    reproducer_minus = rng.random(n) * N < counts
    a = rng.choice(len(c), size=n, p=atom_p)
    gains = rng.binomial(N - counts, c.ys[a])
    losses = rng.binomial(counts, c.ys[a] + c.zs[a])
    return np.where(reproducer_minus, counts + gains, counts - losses)


def simulate(cfg: MoranConfig, horizon: float, seed: int, replicate: int = 0) -> FrequencyPath:
    """Event-driven exact simulation up to ``horizon``.

    Records the initial point and every count change; stops early once
    absorbed (the path is constant afterwards).  Deterministic given
    (seed, replicate).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = substream(seed, TAG_MORAN_PATH, replicate)
    N, c = cfg.N, cfg.coupling
    times = [0.0]
    counts = [cfg.initial_count]
    rate = c.total_mass
    if rate > 0.0:
        atom_p = c.masses / rate
        t = 0.0
        i = cfg.initial_count
        while 0 < i < N:
            t += rng.exponential(1.0 / rate)
            if t > horizon:
                break
            new = int(_event_updates(np.array([i]), N, c, atom_p, rng)[0])
            if new != i:
                i = new
                times.append(t)
                counts.append(i)
    return FrequencyPath(times=np.asarray(times), values=np.asarray(counts, dtype=np.int64))


def simulate_final_counts(
    cfg: MoranConfig, horizon: float, replicates: int, seed: int,
    key: tuple[int, ...] = (TAG_MORAN,),
) -> np.ndarray:
    """Time-``horizon`` marginal counts over many replicates (vectorized).

    Replicates are processed in fixed-size chunks with independent seed
    streams, so results do not depend on batching or worker count.
    """
    out = np.empty(replicates, dtype=np.int64)
    for chunk_idx, start, stop in chunk_bounds(replicates):
        rng = substream(seed, *key, chunk_idx)
        out[start:stop] = _final_counts_chunk(cfg, horizon, stop - start, rng)
    return out


def _final_counts_chunk(
    cfg: MoranConfig, horizon: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    N, c = cfg.N, cfg.coupling
    counts = np.full(n, cfg.initial_count, dtype=np.int64)
    if c.total_mass == 0.0 or n == 0:
        return counts
    atom_p = c.masses / c.total_mass
    # event times are irrelevant for the fixed-time marginal; only the
    # Poisson event count per path matters
    n_events = rng.poisson(c.total_mass * horizon, size=n)
    for step in range(int(n_events.max(initial=0))):
        live = (n_events > step) & (counts > 0) & (counts < N)
        if not live.any():
            break
        idx = np.nonzero(live)[0]
        counts[idx] = _event_updates(counts[idx], N, c, atom_p, rng)
    return counts


def sample_event_jumps(
    cfg: MoranConfig, count: int, n_events: int, seed: int
) -> np.ndarray:
    """Signed jump sizes of ``n_events`` independent single events at a pinned
    count (the state is reset after each event); oracle for the jump law."""
    rng = substream(seed, TAG_EVENT_JUMPS, 0)
    c = cfg.coupling
    if c.total_mass == 0.0:
        return np.zeros(n_events, dtype=np.int64)
    atom_p = c.masses / c.total_mass
    pinned = np.full(n_events, count, dtype=np.int64)
    return _event_updates(pinned, cfg.N, c, atom_p, rng) - count
