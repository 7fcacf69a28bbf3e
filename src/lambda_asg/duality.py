"""Duality between the forward frequency process and the ancestral count.

The duality function is the all-disadvantaged sampling probability
``S(i, n) = C(i, n) / C(N, n)``: the chance that a uniform n-sample from a
population with i disadvantaged members is entirely disadvantaged.  The
forward chain X and the ancestor count A satisfy
``E_i[S(X_t, n)] = E_n[S(i, A_t)]`` exactly; in matrix form ``B D = D A^T``.

Verification is offered at three levels: the exact finite-N matrix identity,
a Monte Carlo pathwise check that evaluates both sides on shared event
streams, and Monte Carlo moment duality ``E_x[Y_t^n] = E_n[x^{A_t}]`` for the
scaling limits, plus the closed-form limit generator identity.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import limits
from .asg import Round, _backward_rounds, _chunk_size, _draw_rounds, _forward_rounds
from .errors import SizeLimit, check_horizon, check_range
from .measures import CoupledMeasure
from .moran import MAX_DENSE_N, MAX_DUALITY_N, _generator_rows
from .rates import MixtureRows
from .rng import TAG_PATHWISE, batched


def _sampling_rows(N: int, i, n: int) -> np.ndarray:
    """``S(i, m)`` for m = 0..n, one row per entry of the counts ``i``, taken
    as floats: the one recurrence that every reader of S shares."""
    i = np.asarray(i, dtype=float)
    D = np.empty((len(i), n + 1))
    D[:, 0] = 1.0
    for m in range(n):
        D[:, m + 1] = D[:, m] * np.maximum(i - m, 0.0) / (N - m)
    return D


def sampling_function(N: int, i: int, n: int) -> float:
    """``C(i, n) / C(N, n)`` via the stable product form; 0 when n > i.  The
    entry ``sampling_matrix(N)[i, n]``, bit for bit."""
    check_range("i", i, 0, N)
    check_range("n", n, 0, N)
    return float(_sampling_rows(N, [i], n)[0, n])


def sampling_matrix(N: int) -> np.ndarray:
    """Matrix D with D[i, n] = sampling_function(N, i, n)."""
    return _sampling_rows(N, np.arange(N + 1), N)


def line_count_generator(N: int, coupling: CoupledMeasure) -> np.ndarray:
    """Generator of the ancestor count on states 0..N; row 0 is inert padding
    (the constant column of the duality function lies in the kernel of B)."""
    return _line_count_rows(MixtureRows(coupling, range(N + 1)), N)


def _line_count_rows(rows: MixtureRows, N: int) -> np.ndarray:
    """:func:`line_count_generator` at N read from ``rows``, which hold rows
    0..N or more."""
    rates = rows.ancestor_rates(N, N)
    # the branch out of N, column N + 1, has rate 0
    A = rates[:, : N + 1].copy()
    # each diagonal entry sums its row's own n + 2 entries: a sum over the
    # zero-padded row would group numpy's pairwise sum differently
    add = np.add.reduce  # what ndarray.sum runs, without its wrapper
    np.fill_diagonal(A[1:, 1:], [-add(rates[n, : n + 2]) for n in range(1, N + 1)])
    return A


def generator_duality_check(N: int, coupling: CoupledMeasure) -> float:
    """Max abs entry of B D - D A^T; exactly 0 in exact arithmetic."""
    return generator_duality_residuals([N], coupling)[0]


def generator_duality_residuals(Ns: list[int], coupling: CoupledMeasure) -> list[float]:
    """:func:`generator_duality_check` at every N of ``Ns``, with B and A read
    from one rate table of rows 0..max(Ns).  Every N is checked before the
    table is built.

    Raises:
        ValueError: for an empty ``Ns`` or an N below 2.
        SizeLimit: for an N above :data:`MAX_DUALITY_N`.
    """
    if len(Ns) == 0:
        raise ValueError("Ns must list at least one N")
    for N in Ns:
        check_range("N", N, 2)
        if N > MAX_DUALITY_N:
            raise SizeLimit(f"matrix duality check limited to N <= {MAX_DUALITY_N}, got {N}")
    rows = MixtureRows(coupling, range(max(Ns) + 1))
    residuals = []
    for N in Ns:
        D = sampling_matrix(N)
        residual = _generator_rows(rows, N) @ D - D @ _line_count_rows(rows, N).T
        residuals.append(float(np.abs(residual).max()))
    return residuals


@dataclass(frozen=True)
class DualityReport:
    """Two Monte Carlo estimates of equal quantities and their z-score."""

    lhs: float
    rhs: float
    stderr_lhs: float
    stderr_rhs: float
    z: float
    replicates: int
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _report(lhs: np.ndarray, rhs: np.ndarray, params: dict) -> DualityReport:
    n_l, n_r = len(lhs), len(rhs)
    se_l = float(lhs.std(ddof=1) / math.sqrt(n_l)) if n_l > 1 else 0.0
    se_r = float(rhs.std(ddof=1) / math.sqrt(n_r)) if n_r > 1 else 0.0
    denom = math.hypot(se_l, se_r)
    diff = float(lhs.mean() - rhs.mean())
    z = diff / denom if denom > 0 else (0.0 if diff == 0.0 else math.inf)
    return DualityReport(
        lhs=float(lhs.mean()), rhs=float(rhs.mean()),
        stderr_lhs=se_l, stderr_rhs=se_r, z=z,
        replicates=max(n_l, n_r), params=params,
    )


def _subsets(rng: np.random.Generator, n: int, N: int, k: int) -> np.ndarray:
    """``(n, N)`` masks of uniform k-subsets of the N individuals, one per row."""
    mask = np.zeros((n, N), dtype=bool)
    np.put_along_axis(mask, rng.random((n, N)).argsort(axis=1)[:, :k], True, axis=1)
    return mask


def _pathwise_draws(
    n: int, rng: np.random.Generator, N: int, coupling: CoupledMeasure, T: float,
    initial_count: int, sample_size: int,
) -> tuple[list[Round], np.ndarray, np.ndarray]:
    """The rounds of n replicates, then their initial disadvantaged sets and
    their samples, as ``(n, N)`` masks."""
    return (
        _draw_rounds(rng, n, N, coupling, T),
        _subsets(rng, n, N, initial_count),
        _subsets(rng, n, N, sample_size),
    )


def _pathwise_counts(
    rounds: list[Round], minus: np.ndarray, sample: np.ndarray
) -> np.ndarray:
    """``(n, 2)`` rows ``(X_T, A_T)``: the disadvantaged count once ``minus``
    is propagated forward through the rounds in order, and the ancestor
    count of ``sample`` swept back through them reversed.  Both masks are
    updated in place."""
    final = _forward_rounds(rounds, minus).sum(axis=1)
    ancestors = _backward_rounds(reversed(rounds), sample[:, None, :]).sum(axis=(1, 2))
    return np.column_stack([final, ancestors])


def pathwise_duality_check(
    N: int,
    coupling: CoupledMeasure,
    T: float,
    initial_count: int,
    sample_size: int,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> DualityReport:
    """Estimate both sides of the sampling duality on shared realizations.

    Per replicate one event stream is drawn; the left side propagates a
    random disadvantaged set of the given size forward and samples
    ``S(X_T, n)``, the right side sweeps a uniform n-sample backward and
    evaluates ``S(i, A_T)``.  Sharing streams correlates the sides, which
    only makes the pooled-stderr z-score conservative.  The replicates are
    drawn and swept a chunk at a time, chunk c from stream
    (seed, tag, c), with chunk sizes independent of the worker count.
    """
    check_range("initial_count", initial_count, 0, N)
    check_range("sample_size", sample_size, 1, N)
    check_range("N", N, 2)
    check_horizon(T)
    counts = batched(
        replicates, seed, (TAG_PATHWISE,),
        lambda n, rng: _pathwise_counts(
            *_pathwise_draws(n, rng, N, coupling, T, initial_count, sample_size)
        ),
        chunk=_chunk_size(N, 2, coupling.total_mass * T), threads=threads,
    )
    lhs = _sampling_rows(N, np.arange(N + 1), sample_size)[:, -1][counts[:, 0]]
    rhs = _sampling_rows(N, [initial_count], N)[0][counts[:, 1]]
    return _report(lhs, rhs, {
        "N": N, "T": T, "initial_count": initial_count,
        "sample_size": sample_size, "seed": seed,
    })


def limit_moment_duality_check(
    coupling: CoupledMeasure,
    x: float,
    n: int,
    t: float,
    replicates: int,
    seed: int,
) -> DualityReport:
    """Monte Carlo check of ``E_x[Y_t^n] = E_n[x^{A_t}]`` for the limits."""
    check_range("n", n, 1)
    check_horizon(t, "t")
    y_final = limits.sde_final_values(coupling, x, t, replicates, seed)
    a_final = limits.chain_final_states(coupling, n, t, replicates, seed)
    lhs = y_final**n
    # one pow per distinct count, the same bits as a pow per replicate
    rhs = np.power(x, np.arange(a_final.max() + 1.0))[a_final]
    return _report(lhs, rhs, {"x": x, "n": n, "t": t, "seed": seed})


def limit_generator_duality(
    coupling: CoupledMeasure, n_max: int, grid: int
) -> float:
    """Max residual of the closed-form limit generator identity.

    Applies the frequency generator to x -> x^n and the limit ancestor chain's
    generator, with rates from :mod:`lambda_asg.rates`, to n -> x^n; both
    reduce to the same atom sums, so the residual is pure floating-point error.
    ``n_max`` lies in [1, ``MAX_DENSE_N``], the bound of every rate table
    (the rows come from the Pascal recurrence, which holds the residual near
    4e-16 at every order), and the x-grid has ``grid >= 1`` points.  The
    powers x^k that the count side reads, k <= n_max + 1, are tabulated
    once, so it costs O(grid * n_max^2) multiply-adds and O(grid * n_max)
    powers.
    """
    check_range("n_max", n_max, 1, MAX_DENSE_N)
    check_range("grid", grid, 1)
    xs = np.linspace(0.0, 1.0, grid)
    c = coupling
    rates = MixtureRows(c, range(n_max + 1)).ancestor_rates(n_max, None)
    powers = xs[:, None] ** np.arange(n_max + 2)
    worst = 0.0
    for n in range(1, n_max + 1):
        # frequency side: the limit generator applied to x -> x^n
        bh = limits.frequency_generator(c, lambda v: np.power(v, n), xs)
        # count side: the limit chain's branch sends x^n to x^{n+1}, its
        # coalescence to n - j lines sends it to x^{n-j}
        targets = np.concatenate([[n + 1], np.arange(n - 1, 0, -1)])
        # x^n keeps its scalar exponent: numpy's scalar route (a square at
        # n = 2) may differ from the table's array pow in the last bit
        ah = (powers[:, targets] - xs[:, None] ** n) @ rates[n, targets]
        worst = max(worst, float(np.abs(bh - ah).max()))
    return worst
