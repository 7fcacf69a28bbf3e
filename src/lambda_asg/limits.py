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

import warnings
from dataclasses import dataclass

import numpy as np

from .asg import _ancestor_run, _count_rates
from .errors import NotConverged, SizeLimit, StateCapReached, check_horizon, check_range
from .measures import CoupledMeasure
from .moran import (
    MAX_DENSE_N, MoranConfig, _rounds, _size, initial_count, record_events, simulate_final_counts,
)
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
    alone,
    batched,
    substream,
)


# an absorption run stops a path once it is within this distance of 0 or 1
ABSORPTION_THRESHOLD = 1e-9
# events an absorption run applies to a path before it gives up (NotConverged)
ABSORPTION_MAX_EVENTS = 10**5
# largest count of a single limit-chain path (StateCapReached above it)
PATH_STATE_CAP = 10**6

# bootstrap resamples drawn per block; a block's histograms take
# BOOTSTRAP_BLOCK x bins x 8 bytes
BOOTSTRAP_BLOCK = 64


@dataclass(frozen=True)
class TruncationScheme:
    """Keep only atoms with ``y^2 > N**(-alpha)``; alpha in (0, 1/2)."""

    alpha: float
    N: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        check_range("N", self.N, 1)


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


def _sde_events(vals, c: CoupledMeasure, rng: np.random.Generator):
    """One event per entry of ``vals`` (an array, or one scalar value): up by
    y(1-v) w.p. v, else down by (y+z)v."""
    n = _size(vals)
    a = c.sample_atoms(rng, n)
    up = rng.random(n) < vals
    # v + (1 - v) y up and v + (0 - v)(y + z) down, the numbers of
    # v + y (1 - v) and v - (y + z) v, without a select: a bool array and a
    # Python bool both take it
    return vals + (up - vals) * (c.ys[a] + c.zs[a] * (up ^ True))


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
    """:func:`lambda_asg.moran.record_events` on n replicates of the SDE
    from ``x0``, the one place x0 is checked."""
    check_range("x0", x0, 0, 1)
    return record_events(
        np.full(n, float(x0)), 0.0, 1.0, coupling.total_mass, horizon,
        lambda v: _sde_events(v, coupling, rng), rng, keep,
    )


def simulate_sde(
    coupling: CoupledMeasure, x0: float, horizon: float, seed: int, replicate: int = 0
) -> FrequencyPath:
    """Exact event-driven path of the limiting frequency in [0, 1].

    Jumps multiply the distance to the approached boundary, so the path hits
    0 or 1 exactly only through atoms with y = 1 or y + z = 1; it is recorded
    at change points and is constant once absorbed.  The one-replicate case
    of :func:`sde_replicates` on stream ``(seed, TAG_SDE_PATH, replicate)``.
    """
    return alone(seed, TAG_SDE_PATH, replicate, _sde_run, coupling, x0, horizon)


def sde_final_values(
    coupling: CoupledMeasure,
    x0: float,
    horizon: float,
    replicates: int,
    seed: int,
    key: tuple[int, ...] = (TAG_SDE,),
) -> np.ndarray:
    """Time-``horizon`` marginal of the SDE over many replicates (vectorized)."""
    return batched(
        replicates, seed, key, lambda n, rng: _sde_run(n, rng, coupling, x0, horizon)[0]
    )


def sde_replicates(
    coupling: CoupledMeasure, x0: float, horizon: float, replicates: int, seed: int,
    max_paths: int,
) -> tuple[np.ndarray, list[FrequencyPath]]:
    """The values of :func:`sde_final_values` and the paths of its first
    ``max_paths`` replicates: path r ends at value r."""
    return batched(
        replicates, seed, (TAG_SDE,), _sde_run, coupling, x0, horizon, paths=max_paths
    )


def sde_absorption(
    coupling: CoupledMeasure,
    x0: float,
    replicates: int,
    seed: int,
) -> np.ndarray:
    """Run each replicate until it is within ``ABSORPTION_THRESHOLD`` of 0 or 1.

    Returns a boolean array marking absorption near 1 (fixation of the
    disadvantaged type).  Time plays no role, so events are applied directly.

    Raises:
        NotConverged: if some path is still interior after
            ``ABSORPTION_MAX_EVENTS`` events.
    """
    check_range("x0", x0, 0, 1)
    if coupling.total_mass <= 0.0:
        raise ValueError("absorption needs a coupling with events")
    lo, hi = ABSORPTION_THRESHOLD, 1.0 - ABSORPTION_THRESHOLD

    def run(n: int, rng: np.random.Generator) -> np.ndarray:
        vals, budget = np.full(n, float(x0)), np.full(n, ABSORPTION_MAX_EVENTS)
        # each round applies its events to vals in place; nothing is recorded
        for _ in _rounds(vals, lo, hi, budget, lambda v: _sde_events(v, coupling, rng)):
            pass
        if ((vals > lo) & (vals < hi)).any():
            raise NotConverged(
                f"paths still interior after {ABSORPTION_MAX_EVENTS} events; "
                "raise limits.ABSORPTION_MAX_EVENTS or check the coupling"
            )
        return vals >= hi

    return batched(replicates, seed, (TAG_SDE_ABSORPTION,), run)


# -- limit ancestor chain ------------------------------------------------------


def limit_chain_rates(coupling: CoupledMeasure, m: int) -> tuple[np.ndarray, float]:
    """Rates out of state ``m``, laid out as in
    :func:`lambda_asg.asg.line_count_rates`: ``coalesce[k]`` sends m to m - k
    for k = 1..m-1 (index 0 unused), ``branch`` sends m to m + 1."""
    check_range("m", m, 1)
    return _count_rates(coupling, m, None)


def simulate_limit_chain(
    coupling: CoupledMeasure,
    n0: int,
    horizon: float,
    seed: int,
    replicate: int = 0,
) -> FrequencyPath:
    """One path of the limit ancestor chain (values >= 1), drawn event by event.

    Raises:
        StateCapReached: if the path exceeds ``PATH_STATE_CAP`` (diagnostic
            guard against branching explosion).
    """
    cap = PATH_STATE_CAP
    path = alone(seed, TAG_CHAIN_PATH, replicate, _ancestor_run, None, coupling, n0, horizon, cap + 1)
    if path.final > cap:
        raise StateCapReached(f"ancestor count exceeded cap {cap} (limits.PATH_STATE_CAP)")
    return path


def chain_final_states(
    coupling: CoupledMeasure,
    n0: int,
    horizon: float,
    replicates: int,
    seed: int,
) -> np.ndarray:
    """Time-``horizon`` marginal of the limit chain over many replicates.

    The rate table grows with the largest count up to states
    ``0..MAX_DENSE_N``, the limit of the dense generators, which is the
    chain's only cap.

    Raises:
        SizeLimit: if a count reaches ``MAX_DENSE_N``, ``n0`` included: its
            next step would need a larger table.
    """
    check_range("n0", n0, 1)
    check_horizon(horizon)
    table = AncestorChain(coupling, min(max(n0 + 8, 16), MAX_DENSE_N))
    return batched(
        replicates, seed, (TAG_LIMIT_CHAIN,),
        lambda n, rng: _chain_chunk(table, n0, horizon, n, rng),
    )


def _chain_chunk(
    table: AncestorChain,
    n0: int,
    horizon: float,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Final states of n_paths chains from n0 at a finite ``horizon``.

    The live paths are kept in ascending order: their indices, clocks and
    states.  A path that passes the horizon leaves them for good, so each
    step draws for the same paths, in the same order, as a mask over all of
    them would.  A jump counts the uniform against the rows of
    :attr:`AncestorChain.window` below the largest live state: one gather,
    one compare and one subtraction per row.

    Every per-step array is a row of one block allocated per chunk: two
    halves each of the indices, clocks and states (a step compacts each into
    its other half, and the jump writes the states back), the totals and
    then the uniforms, the exponential draws and then the gathered window
    entries, and a mask.  Draws are made into it with ``out=``, and
    ``standard_exponential`` gives the bits of ``exponential(1.0)``.  Separate
    arrays per step made glibc return and re-fault their pages on every
    pass; one block is reused warm and takes no minor faults.
    """
    states = np.full(n_paths, n0, dtype=np.int64)
    work = np.empty((9, n_paths))
    idx, idx_next, s, s_next = work[:4].view(np.int64)
    t, t_next, first, second = work[4:8]
    mask = work[8].view(bool)
    idx[:] = np.arange(n_paths)
    t[:] = 0.0
    s[:] = n0
    n, top = n_paths, n0
    while n:
        if top >= len(table.total) - 1:
            if top >= MAX_DENSE_N:
                raise SizeLimit(
                    f"ancestor count {top} by horizon {horizon:g} needs a rate table past "
                    f"state {MAX_DENSE_N}; shorten the horizon, or draw single paths "
                    "with simulate_limit_chain, which holds no table"
                )
            table.grow(min(2 * top, MAX_DENSE_N))
        totals, dt = first[:n], second[:n]
        table.total.take(s[:n], out=totals, mode="clip")
        rng.standard_exponential(out=dt)
        # a row with total 0 gives a clock of inf (nan for a draw of 0),
        # which fails the horizon test, so it never reaches the jump below
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dt, totals, out=dt)
        np.add(t[:n], dt, out=t[:n])
        live = np.flatnonzero(np.less_equal(t[:n], horizon, out=mask[:n]))
        n = len(live)
        for src, dst in ((idx, idx_next), (t, t_next), (s, s_next)):
            src.take(live, out=dst[:n], mode="clip")
        idx, idx_next, t, t_next = idx_next, idx, t_next, t
        if not n:
            break
        u, column, hit = first[:n], second[:n], mask[:n]
        rng.random(out=u)
        # s_next holds the live states; the target is s + 1 less the window
        # entries the uniform passes, and entries past a row's targets are 1
        np.add(s_next[:n], 1, out=s[:n])
        for j in range(top):
            table.window[j].take(s_next[:n], out=column, mode="clip")
            np.greater_equal(u, column, out=hit)
            np.subtract(s[:n], hit, out=s[:n])
        states[idx[:n]] = s[:n]
        top = int(s[:n].max())
    return states


# -- convergence of truncated models to the SDE --------------------------------


def _merged_counts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts of ``a`` and of ``b`` over merged bins of the pooled values.

    The distinct pooled values are ranked once.  A value held by both
    samples is its own bin; every maximal run of consecutive values held by
    one sample only is merged into one bin.
    """
    for name, x in (("a", a), ("b", b)):
        if len(x) == 0:
            raise ValueError("KS needs two non-empty samples")
        nan = np.count_nonzero(np.isnan(x))
        if nan:
            raise ValueError(f"KS sample {name} holds {nan} NaN value(s)")
    support, ranks = np.unique(np.concatenate([a, b]), return_inverse=True)
    ca = np.bincount(ranks[: len(a)], minlength=len(support))
    cb = np.bincount(ranks[len(a):], minlength=len(support))
    # 1: held by a only, 2: by b only, 3: by both
    holder = (ca > 0) + 2 * (cb > 0)
    starts = np.flatnonzero(
        np.concatenate([[True], (holder[1:] != holder[:-1]) | (holder[1:] == 3)])
    )
    return np.add.reduceat(ca, starts), np.add.reduceat(cb, starts)


def _ks_of_gaps(gap: np.ndarray, na: int, nb: int) -> np.ndarray:
    """KS statistic of each row of ``ca nb - cb na`` over the bins; the rows
    are overwritten."""
    np.cumsum(gap, axis=-1, out=gap)
    return np.abs(gap, out=gap).max(axis=-1) / (na * nb)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, exact and tie-aware.

    ``na nb`` times the gap of the empirical CDFs after each distinct pooled
    value is the integer ``cumsum(ca nb - cb na)``, so the only rounding is
    the final division.  Both samples are counted over merged bins (see
    :func:`_merged_counts`), and that keeps ``max |cumsum|`` exactly: inside
    a run of values held by one sample only, every increment has one sign,
    so each partial sum lies between the sums before and after the run,
    and those two are kept (the one before is 0 or the previous bin's sum).

    Raises:
        ValueError: if either sample is empty or holds a NaN.
    """
    return _ks_of_counts(*_merged_counts(a, b), len(a), len(b))


def _ks_of_counts(ha: np.ndarray, hb: np.ndarray, na: int, nb: int) -> float:
    """:func:`ks_distance` of two samples of sizes na and nb counted over
    their merged bins."""
    return float(_ks_of_gaps(ha * nb - hb * na, na, nb))


def ks_bootstrap_stderr(
    a: np.ndarray, b: np.ndarray, resamples: int, rng: np.random.Generator
) -> float:
    """Standard deviation of the KS statistic over bootstrap resamples.

    A resample of ``a`` has, over the merged bins of :func:`ks_distance`,
    the Multinomial(na, ha / na) histogram of na index draws, so it is drawn
    directly in O(bins): ``rng.multinomial(na, ha[ia] / na)`` over the bins
    ``ia`` where ``a`` has mass, and likewise for ``b``.  Resamples are
    drawn in blocks of :data:`BOOTSTRAP_BLOCK` (the last block takes the
    rest): each block draws all its ``a`` histograms in one call, then all
    its ``b`` histograms, so a generator state and the data fix the
    resamples.  A resample's values are a sub-multiset of the data, so the
    merged bins stay exact for it and every statistic is exact.

    Raises:
        ValueError: if ``resamples < 2`` (no standard deviation), or either
            sample is empty or holds a NaN.
    """
    return _bootstrap_stderr(*_merged_counts(a, b), len(a), len(b), resamples, rng)


def _bootstrap_stderr(
    ha: np.ndarray, hb: np.ndarray, na: int, nb: int, resamples: int,
    rng: np.random.Generator,
) -> float:
    """:func:`ks_bootstrap_stderr` of two samples of sizes na and nb counted
    over their merged bins."""
    check_range("resamples", resamples, 2)
    ia, ib = ha.nonzero()[0], hb.nonzero()[0]
    pa, pb = ha[ia] / na, hb[ib] / nb
    stats = np.empty(resamples)
    for lo in range(0, resamples, BOOTSTRAP_BLOCK):
        m = min(BOOTSTRAP_BLOCK, resamples - lo)
        gap = np.zeros((m, len(ha)), dtype=np.int64)
        gap[:, ia] = rng.multinomial(na, pa, size=m) * nb
        gap[:, ib] -= rng.multinomial(nb, pb, size=m) * na
        stats[lo: lo + m] = _ks_of_gaps(gap, na, nb)
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
    ``initial_count(N, x0) / N`` (:func:`lambda_asg.moran.initial_count`)
    and reports the distance of the two time-T samples
    with a bootstrap standard error, both from one count of the two samples
    over their merged bins (:func:`_merged_counts`).

    Raises:
        ValueError: if ``schemes`` is empty, not ordered by strictly
            increasing N or starts below N = 2, before any draw.
    """
    check_horizon(T, "t")
    if len(schemes) == 0:
        raise ValueError("schemes must list at least one truncation scheme")
    sizes = [s.N for s in schemes]
    if any(m >= n for m, n in zip(sizes, sizes[1:])):
        raise ValueError(f"schemes must be ordered by strictly increasing N, got {sizes}")
    check_range("N", sizes[0], 2)
    sde = sde_final_values(
        coupling, x0, T, replicates, seed, key=(TAG_CONVERGENCE_SDE,)
    )
    rows = []
    for level, scheme in enumerate(schemes):
        truncated = truncate_measure(coupling, scheme)
        cfg = MoranConfig(
            N=scheme.N, coupling=truncated, initial_count=initial_count(scheme.N, x0)
        )
        counts = simulate_final_counts(
            cfg, T, replicates, seed, key=(TAG_CONVERGENCE_MORAN, level)
        )
        freqs = counts / scheme.N
        merged = (*_merged_counts(freqs, sde), len(freqs), len(sde))
        boot_rng = substream(seed, TAG_KS_BOOTSTRAP, level)
        rows.append({
            "N": scheme.N,
            "alpha": scheme.alpha,
            "truncated_mass": truncated.total_mass,
            "ks": _ks_of_counts(*merged),
            "stderr": _bootstrap_stderr(*merged, bootstrap, boot_rng),
        })
    return rows
