"""Scaling limits: the jump SDE for the frequency, the limit ancestor chain,
and the truncation scheme connecting finite populations to the limit.

The limiting frequency Y is a pure-jump process: events arrive at the
coupling's total rate; an event with atom (y, z) and uniform u moves Y up by
``y (1 - Y)`` when ``u < Y`` and down by ``(y + z) Y`` otherwise.  This is the
uncompensated form, valid for finite-mass couplings, which atom lists always
are.  Measures meant to model infinite activity enter through
:func:`truncate_measure`, which restricts to ``y^2 > N^{-alpha}`` at
population size N.

The limit ancestor count coalesces from m to m - k when k + 1 of m lines are
hit neutrally and branches to m + 1 on selective-only events (rates in
:mod:`lambda_asg.rates`); its branch rate is at most ``m * integral(z)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asg import _ancestor_run, _count_rates
from .errors import NotConverged, StateCapReached
from .measures import CoupledMeasure
from .moran import MoranConfig, record_events, run_events, simulate_final_counts
from .paths import FrequencyPath
from .rates import AncestorChain
from .rng import (
    TAG_CHAIN_PATH,
    TAG_CONVERGENCE_MORAN,
    TAG_CONVERGENCE_SDE,
    TAG_KS_BOOTSTRAP,
    TAG_LIMIT_CHAIN,
    TAG_SDE,
    TAG_SDE_ABSORPTION,
    TAG_SDE_PATH,
    batched,
    substream,
)


# an absorption run stops a path once it is within this distance of 0 or 1
ABSORPTION_THRESHOLD = 1e-9


def _check_x0(x0: float) -> None:
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")


@dataclass(frozen=True)
class SdeConfig:
    coupling: CoupledMeasure
    x0: float
    horizon: float

    def __post_init__(self) -> None:
        _check_x0(self.x0)
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class TruncationScheme:
    """Keep only atoms with ``y^2 > N**(-alpha)``; alpha in (0, 1/2)."""

    alpha: float
    N: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        if self.N < 1:
            raise ValueError("N must be >= 1")


def truncate_measure(coupling: CoupledMeasure, scheme: TruncationScheme) -> CoupledMeasure:
    """Restriction of the coupling to the truncation region.

    Warns when atoms with y = 0 and z > 0 are present: they are removed at
    every truncation level yet feed the limit branch rate, so truncated-model
    rates differ from limit rates by their z-mass.
    """
    if np.any((coupling.ys == 0.0) & (coupling.zs > 0.0)):
        warnings.warn(
            "coupling carries mass on {y = 0, z > 0}, which every truncation "
            "level removes; truncated branch rates will undershoot the limit",
            stacklevel=2,
        )
    keep = coupling.ys**2 > scheme.N ** (-scheme.alpha)
    return CoupledMeasure.from_atoms(
        zip(coupling.ys[keep], coupling.zs[keep], coupling.masses[keep])
    )


# -- frequency SDE -------------------------------------------------------------


def _sde_events(vals: np.ndarray, c: CoupledMeasure, rng: np.random.Generator) -> np.ndarray:
    """One event per entry of ``vals``: up by y(1-v) w.p. v, else down by (y+z)v."""
    n = np.shape(vals)
    a = c.sample_atoms(rng, n)
    u = rng.random(n)
    y = c.ys[a]
    s = y + c.zs[a]
    return np.where(u < vals, vals + y * (1.0 - vals), vals - s * vals)


def frequency_generator(coupling: CoupledMeasure, f, xs: np.ndarray) -> np.ndarray:
    """The limit frequency generator applied to ``f``, pointwise on ``xs``:
    the sum over atoms of ``mass * (x f(x + y(1-x)) + (1-x) f(x(1-y-z)) - f(x))``.
    ``f`` is applied elementwise to ``(len(xs), atoms)`` and ``(len(xs), 1)``
    arrays."""
    x = np.asarray(xs, dtype=float)[:, None]
    c = coupling
    up = f(x + c.ys * (1.0 - x))
    dn = f(x * (1.0 - c.ys - c.zs))
    return (x * up + (1.0 - x) * dn - f(x)) @ c.masses


def _sde_run(
    n: int, rng: np.random.Generator, coupling: CoupledMeasure, x0: float, horizon: float,
    keep: int = 0,
) -> tuple[np.ndarray, list[FrequencyPath]]:
    """:func:`lambda_asg.moran.record_events` on n replicates of the SDE."""
    return record_events(
        np.full(n, float(x0)), 0.0, 1.0, coupling.total_mass, horizon,
        lambda v: _sde_events(v, coupling, rng), rng, keep,
    )


def simulate_sde(cfg: SdeConfig, seed: int, replicate: int = 0) -> FrequencyPath:
    """Exact event-driven path of the limiting frequency in [0, 1].

    Jumps multiply the distance to the approached boundary, so the path hits
    0 or 1 exactly only through atoms with y = 1 or y + z = 1; it is recorded
    at change points and is constant once absorbed.  The one-replicate case
    of :func:`sde_replicates` on stream ``(seed, TAG_SDE_PATH, replicate)``.
    """
    rng = substream(seed, TAG_SDE_PATH, replicate)
    return _sde_run(1, rng, cfg.coupling, cfg.x0, cfg.horizon, keep=1)[1][0]


def sde_final_values(
    coupling: CoupledMeasure,
    x0: float,
    horizon: float,
    replicates: int,
    seed: int,
    key: tuple[int, ...] = (TAG_SDE,),
) -> np.ndarray:
    """Time-``horizon`` marginal of the SDE over many replicates (vectorized)."""
    _check_x0(x0)
    return batched(
        replicates, seed, key, float,
        lambda n, rng: _sde_run(n, rng, coupling, x0, horizon)[0],
    )


def sde_replicates(
    cfg: SdeConfig, replicates: int, seed: int, max_paths: int
) -> tuple[np.ndarray, list[FrequencyPath]]:
    """The values of :func:`sde_final_values` and the paths of its first
    ``max_paths`` replicates: path r ends at value r."""
    return batched(
        replicates, seed, (TAG_SDE,), float, _sde_run, cfg.coupling, cfg.x0, cfg.horizon,
        paths=max_paths,
    )


def sde_absorption(
    coupling: CoupledMeasure,
    x0: float,
    replicates: int,
    seed: int,
    max_events: int = 10**5,
) -> np.ndarray:
    """Run each replicate until it is within ``ABSORPTION_THRESHOLD`` of 0 or 1.

    Returns a boolean array marking absorption near 1 (fixation of the
    disadvantaged type).  Time plays no role, so events are applied directly.

    Raises:
        NotConverged: if some path is still interior after ``max_events``.
    """
    _check_x0(x0)
    if coupling.total_mass <= 0.0:
        raise ValueError("absorption needs a coupling with events")
    lo, hi = ABSORPTION_THRESHOLD, 1.0 - ABSORPTION_THRESHOLD

    def run(n: int, rng: np.random.Generator) -> np.ndarray:
        vals = run_events(
            np.full(n, float(x0)), lo, hi, np.full(n, max_events),
            lambda v: _sde_events(v, coupling, rng),
        )
        if ((vals > lo) & (vals < hi)).any():
            raise NotConverged(
                f"paths still interior after {max_events} events; "
                "increase max_events or check the coupling"
            )
        return vals >= hi

    return batched(replicates, seed, (TAG_SDE_ABSORPTION,), bool, run)


# -- limit ancestor chain ------------------------------------------------------


def limit_chain_rates(coupling: CoupledMeasure, m: int) -> tuple[np.ndarray, float]:
    """Rates out of state ``m``, laid out as in
    :func:`lambda_asg.asg.line_count_rates`: ``coalesce[k]`` sends m to m - k
    for k = 1..m-1 (index 0 unused), ``branch`` sends m to m + 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _count_rates(coupling, m, None)


def simulate_limit_chain(
    coupling: CoupledMeasure,
    n0: int,
    horizon: float,
    seed: int,
    state_cap: int = 10**6,
    replicate: int = 0,
) -> FrequencyPath:
    """One path of the limit ancestor chain (values >= 1), drawn event by event.

    Raises:
        StateCapReached: if the path exceeds ``state_cap`` (diagnostic guard
            against branching explosion).
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    rng = substream(seed, TAG_CHAIN_PATH, replicate)
    path = _ancestor_run(1, rng, None, coupling, n0, horizon, state_cap + 1, keep=1)[1][0]
    if path.final > state_cap:
        raise StateCapReached(f"ancestor count exceeded cap {state_cap}")
    return path


def chain_final_states(
    coupling: CoupledMeasure,
    n0: int,
    horizon: float,
    replicates: int,
    seed: int,
    state_cap: int = 10**6,
) -> np.ndarray:
    """Time-``horizon`` marginal of the limit chain over many replicates.

    Raises:
        StateCapReached: if a count exceeds ``state_cap``, ``n0`` included.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if n0 > state_cap:
        raise StateCapReached(f"ancestor count exceeded cap {state_cap}")
    table = AncestorChain(coupling, max(n0 + 8, 16))
    return batched(
        replicates, seed, (TAG_LIMIT_CHAIN,), np.int64,
        lambda n, rng: _chain_chunk(table, n0, horizon, n, rng, state_cap),
    )


def _chain_chunk(
    table: AncestorChain,
    n0: int,
    horizon: float,
    n_paths: int,
    rng: np.random.Generator,
    state_cap: int,
) -> np.ndarray:
    """Final states of n_paths chains from n0 at a finite ``horizon``.

    ``idx``, ``t`` and ``s`` hold the live paths only, in ascending order:
    their indices, clocks and states.  A path that passes the horizon leaves
    them for good, so each step draws for the same paths, in the same order,
    as a mask over all of them would.
    """
    states = np.full(n_paths, n0, dtype=np.int64)
    idx = np.arange(n_paths)
    t = np.zeros(n_paths)
    s = states.copy()
    while len(idx):
        if int(s.max()) >= len(table.total) - 1:
            table.grow(2 * int(s.max()))
        totals = table.total[s]
        draws = rng.exponential(1.0, size=len(idx))
        with np.errstate(divide="ignore"):
            dt = np.where(totals > 0.0, draws / totals, np.inf)
        t += dt
        # a row with total 0 (all ones in ``cum``) has dt = inf, which passes
        # every finite horizon, so it never reaches the jump below
        k = (t <= horizon).nonzero()[0]
        idx, t, s = idx[k], t[k], s[k]
        if not len(idx):
            break
        u = rng.random(len(idx))
        # the target is len(total) less the entries passed; ``>=`` passes the
        # zeros above the branch even for a uniform of exactly 0
        s = len(table.total) - (u[:, None] >= table.cum[s]).sum(axis=1)
        states[idx] = s
        if int(s.max()) > state_cap:
            raise StateCapReached(f"ancestor count exceeded cap {state_cap}")
    return states


# -- convergence of truncated models to the SDE --------------------------------


def _pooled_ranks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Rank of every value of ``a`` and of ``b`` among the K distinct pooled
    values, and K."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("KS needs two non-empty samples")
    support, ranks = np.unique(np.concatenate([a, b]), return_inverse=True)
    return ranks[: len(a)], ranks[len(a):], len(support)


def _ks_counted(ra: np.ndarray, rb: np.ndarray, k: int) -> float:
    """KS statistic of two samples given as ranks into a support of size k."""
    na, nb = len(ra), len(rb)
    gap = np.bincount(ra, minlength=k) * nb - np.bincount(rb, minlength=k) * na
    return float(np.abs(np.cumsum(gap)).max()) / (na * nb)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, exact and tie-aware.

    Both samples are counted over the distinct pooled values; ``na nb``
    times the gap of the empirical CDFs at each such value is the integer
    ``cumsum(ca nb - cb na)``, so the only rounding is the final division.

    Raises:
        ValueError: if either sample is empty.
    """
    return _ks_counted(*_pooled_ranks(a, b))


def ks_bootstrap_stderr(
    a: np.ndarray, b: np.ndarray, resamples: int, rng: np.random.Generator
) -> float:
    """Standard deviation of the KS statistic over bootstrap resamples.

    Each resample draws ``rng.integers(0, len(a), len(a))`` and then
    ``rng.integers(0, len(b), len(b))``, exactly the draws of indexing the
    values themselves, so a generator state fixes the resamples.  The pooled
    sample is ranked once; a resample indexes the ranks and is counted as in
    :func:`ks_distance`, so nothing is sorted again and every statistic is
    exact.

    Raises:
        ValueError: if ``resamples < 2`` (no standard deviation) or either
            sample is empty.
    """
    if resamples < 2:
        raise ValueError(f"bootstrap needs at least 2 resamples, got {resamples}")
    ra, rb, k = _pooled_ranks(a, b)
    stats = np.empty(resamples)
    for r in range(resamples):
        stats[r] = _ks_counted(
            ra[rng.integers(0, len(ra), len(ra))],
            rb[rng.integers(0, len(rb), len(rb))],
            k,
        )
    return float(stats.std(ddof=1))


def convergence_study(
    coupling: CoupledMeasure,
    x0: float,
    schemes: list[TruncationScheme],
    T: float,
    replicates: int,
    seed: int,
    bootstrap: int = 1000,
) -> list[dict]:
    """KS distance between truncated-model and SDE marginals at time T.

    One SDE sample is drawn from the full coupling; each scheme simulates the
    finite model of size N driven by the truncated coupling from
    ``floor(x0 N) / N`` and reports the distance of the two time-T samples
    with a bootstrap standard error.
    """
    if T <= 0:
        raise ValueError(f"t must be positive, got {T}")
    if sorted(s.N for s in schemes) != [s.N for s in schemes]:
        raise ValueError("schemes must be ordered by increasing N")
    sde = sde_final_values(
        coupling, x0, T, replicates, seed, key=(TAG_CONVERGENCE_SDE,)
    )
    rows = []
    for level, scheme in enumerate(schemes):
        truncated = truncate_measure(coupling, scheme)
        cfg = MoranConfig(
            N=scheme.N, coupling=truncated,
            initial_count=int(math.floor(x0 * scheme.N)),
        )
        counts = simulate_final_counts(
            cfg, T, replicates, seed, key=(TAG_CONVERGENCE_MORAN, level)
        )
        freqs = counts / scheme.N
        boot_rng = substream(seed, TAG_KS_BOOTSTRAP, level)
        rows.append({
            "N": scheme.N,
            "alpha": scheme.alpha,
            "truncated_mass": truncated.total_mass,
            "ks": ks_distance(freqs, sde),
            "stderr": ks_bootstrap_stderr(freqs, sde, bootstrap, boot_rng),
        })
    return rows
