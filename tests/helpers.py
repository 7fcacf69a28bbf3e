"""Shared test utilities: random ordered pairs and brute-force oracles."""

from __future__ import annotations

import csv
import hashlib
import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from lambda_asg.asg import OUTCOME_NEUTRAL, OUTCOME_NONE, AsgRealization
from lambda_asg.errors import OrderViolation, check_horizon
from lambda_asg.fixation import IDENTITY_GRID, _QUAD_ORDER
from lambda_asg.measures import MASS_DROP, CoupledMeasure, FiniteMeasure1D
from lambda_asg.moran import _event_counts, _event_times
from lambda_asg.paths import FrequencyPath
from lambda_asg.quadrature import gauss_legendre_01
from lambda_asg.rates import MixtureRows


def random_ordered_pair(
    rng: np.random.Generator,
    max_atoms: int = 4,
    lattice: int | None = None,
    total_mass: float = 1.0,
) -> tuple[FiniteMeasure1D, FiniteMeasure1D]:
    """Draw a stochastically ordered pair (lower, upper) of equal-size atoms.

    The upper measure is random; the lower one redistributes each upper
    atom's mass onto locations at or below it, which lowers every quantile
    and therefore every tail mass.  With ``lattice`` set, locations live on
    the grid k/lattice so tail-mass comparisons are exact.
    """
    nb = int(rng.integers(1, max_atoms + 1))
    if lattice:
        locs = rng.integers(1, lattice + 1, size=nb) / lattice
    else:
        locs = rng.uniform(0.05, 1.0, size=nb)
    masses = rng.dirichlet(np.ones(nb)) * total_mass
    upper = FiniteMeasure1D.from_atoms(zip(locs, masses))
    lower_atoms = []
    for loc, mass in zip(upper.locations, upper.masses):
        pieces = int(rng.integers(1, 3))
        weights = rng.dirichlet(np.ones(pieces))
        for w in weights:
            if lattice:
                steps = max(int(round(loc * lattice)), 1)
                new_loc = rng.integers(1, steps + 1) / lattice
            else:
                new_loc = rng.uniform(0.0, 1.0) * loc
            lower_atoms.append((new_loc, w * mass))
    lower = FiniteMeasure1D.from_atoms(lower_atoms)
    return lower, upper


def reference_quantile_coupling(a: FiniteMeasure1D, b: FiniteMeasure1D) -> CoupledMeasure:
    """The quantile coupling of an ordered pair of equal mass by a hand-stepped
    sweep of the merged breakpoints: the slow reference for
    :func:`lambda_asg.measures.quantile_coupling` after its input checks."""
    cum_a = np.cumsum(a.masses)
    cum_b = np.cumsum(b.masses)
    breaks = np.unique(np.concatenate([cum_a, cum_b]))
    atoms = []
    prev = 0.0
    ia = ib = 0
    for u in breaks:
        m = u - prev
        if m > MASS_DROP:
            y = a.locations[ia]
            gap = b.locations[ib] - y
            if gap < -1e-9:
                raise OrderViolation(
                    f"inverse CDFs cross at cumulative mass {u}: gap {gap}"
                )
            atoms.append((y, max(gap, 0.0), m))
        prev = u
        # advance the inverse-CDF indices past the exhausted atoms
        while ia < len(cum_a) and cum_a[ia] <= u + MASS_DROP:
            ia += 1
        while ib < len(cum_b) and cum_b[ib] <= u + MASS_DROP:
            ib += 1
        ia = min(ia, len(a.locations) - 1)
        ib = min(ib, len(b.locations) - 1)
    return CoupledMeasure.from_atoms(atoms)


def random_coupling(rng: np.random.Generator, max_atoms: int = 4) -> CoupledMeasure:
    """A random valid coupling on the simplex with positive selective mass."""
    k = int(rng.integers(1, max_atoms + 1))
    ys = rng.uniform(0.0, 1.0, k)
    zs = rng.uniform(0.0, 1.0, k) * (1.0 - ys)
    ms = rng.uniform(0.1, 1.0, k)
    return CoupledMeasure.from_atoms(zip(ys, zs, ms))


@lru_cache(maxsize=None)
def _support_solvers(na: int, nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Every support of ``na + nb - 1`` cells of an ``na x nb`` plan, in the
    order of ``itertools.combinations`` over the row-major cells, as
    ``(supports, pinv)``: the cell indices ``(S, k)`` and the pseudo-inverses
    of the 0/1 systems ``(S, na + nb, k)`` that take a support's entries to
    the row and column sums, from one batched SVD."""
    k = na + nb - 1
    supports = np.array(list(itertools.combinations(range(na * nb), k)), dtype=np.intp)
    A = np.zeros((len(supports), na + nb, k))
    rows, cols = np.arange(len(supports))[:, None], np.arange(k)
    A[rows, supports // nb, cols] = 1.0
    A[rows, na + supports % nb, cols] = 1.0
    return supports, np.linalg.pinv(A)


def transport_vertices(p: np.ndarray, q: np.ndarray) -> list[np.ndarray]:
    """All vertices of the transport polytope with marginals p and q.

    Vertices have at most ``len(p) + len(q) - 1`` support cells; every such
    support set with a consistent solution is solved, all at once by the
    shape's cached pseudo-inverses (:func:`_support_solvers`), which give
    the minimum-norm least-squares solution of ``lstsq``.  Supports are read
    in the order of :func:`reference_transport_vertices`, with its
    feasibility tolerances and rounding of duplicates.  Intended for tiny
    instances (a 6 x 3 plan has 43758 supports).
    """
    na, nb = len(p), len(q)
    supports, pinv = _support_solvers(na, nb)
    target = np.concatenate([p, q])
    plans = np.zeros((len(supports), na * nb))
    plans[np.arange(len(supports))[:, None], supports] = pinv @ target
    plans = plans.reshape(-1, na, nb)
    sums = np.concatenate([plans.sum(axis=2), plans.sum(axis=1)], axis=1)
    feasible = (np.abs(sums - target).max(axis=1) <= 1e-9) & (plans.min(axis=(1, 2)) >= -1e-9)
    vertices: list[np.ndarray] = []
    seen: set[tuple] = set()
    for gamma in np.maximum(plans[feasible], 0.0):
        key = tuple(np.round(gamma, 9).ravel())
        if key not in seen:
            seen.add(key)
            vertices.append(gamma)
    return vertices


def reference_transport_vertices(p: np.ndarray, q: np.ndarray) -> list[np.ndarray]:
    """:func:`transport_vertices` one support at a time, each solved by
    ``np.linalg.lstsq``: the slow reference for it."""
    na, nb = len(p), len(q)
    cells = list(itertools.product(range(na), range(nb)))
    target = np.concatenate([p, q])
    vertices: list[np.ndarray] = []
    seen: set[tuple] = set()
    for support in itertools.combinations(cells, na + nb - 1):
        A = np.zeros((na + nb, len(support)))
        for col, (i, j) in enumerate(support):
            A[i, col] = 1.0
            A[na + j, col] = 1.0
        sol, residuals, rank, _ = np.linalg.lstsq(A, target, rcond=None)
        if np.abs(A @ sol - target).max() > 1e-9 or sol.min() < -1e-9:
            continue
        gamma = np.zeros((na, nb))
        for col, (i, j) in enumerate(support):
            gamma[i, j] = max(sol[col], 0.0)
        key = tuple(np.round(gamma, 9).ravel())
        if key not in seen:
            seen.add(key)
            vertices.append(gamma)
    return vertices


def plan_cost(gamma: np.ndarray, a_locs: np.ndarray, b_locs: np.ndarray) -> float:
    """Squared-difference transport cost of a plan over given atom locations."""
    diff = b_locs[None, :] - a_locs[:, None]
    return float((gamma * diff**2).sum())


# -- exact-rational oracle for the fixation recursion ---------------------------


def rational_moment_table(
    atoms: list[tuple[Fraction, Fraction, Fraction]], jmax: int, kmax: int
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Moment families computed in exact rational arithmetic.

    The u-integral has the closed form
    ``int_0^1 2u (1-uy)^j (uy)^k du = 2 y^k sum_i C(j,i) (-y)^i / (k+i+2)``.
    """
    tilde = sum(w * (y * y + z) for y, z, w in atoms)
    M = [[Fraction(0) for _ in range(kmax + 1)] for _ in range(jmax + 1)]
    q = [Fraction(0) for _ in range(jmax + 1)]
    for y, z, w in atoms:
        for j in range(jmax + 1):
            q[j] += w * ((1 - y) ** (j + 1) - (1 - y - z) ** (j + 1)) / ((j + 1) * tilde)
            if y != 0:
                for k in range(kmax + 1):
                    integral = 2 * y**k * sum(
                        comb(j, i) * (-y) ** i * Fraction(1, k + i + 2)
                        for i in range(j + 1)
                    )
                    M[j][k] += w * y * y * integral / tilde
    return M, q


def rational_polynomials(
    M: list[list[Fraction]], q: list[Fraction], nmax: int
) -> list[list[Fraction]]:
    """The coefficient triangle computed exactly (mirrors the float pipeline)."""
    coeffs: list[list[Fraction]] = [[Fraction(1)]]
    for n in range(1, nmax + 1):
        prev = coeffs[n - 1]
        a = [Fraction(0) for _ in range(n + 1)]
        a[n] = q[n - 1] / M[n - 1][0] * prev[n - 1]
        for j in range(n - 2, -1, -1):
            acc = sum(
                comb(r, j) * M[j][r - j - 1] * a[r] for r in range(j + 2, n + 1)
            )
            a[j + 1] = (n * q[j] * prev[j] - acc) / ((j + 1) * M[j][0])
        a[0] = Fraction(1, n + 1) - sum(a[r] / (r + 1) for r in range(1, n + 1))
        coeffs.append(a)
    return coeffs


# -- scalar and per-row references for the exact-oracle fast paths -------------


def reference_build_polynomials(table) -> list[np.ndarray]:
    """The coefficient triangle up to the table's order by the scalar triple
    loop that :func:`lambda_asg.fixation.build_polynomials` replaced (no
    pivot checks): a ``math.comb`` per term, summed from 0.0 in increasing r.
    An overflow is left in the coefficients as inf or NaN."""
    M, q = table.M, table.q
    coeffs = [np.array([1.0])]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, table.nmax + 1):
            prev = coeffs[n - 1]
            a = np.zeros(n + 1)
            a[n] = q[n - 1] / M[n - 1, 0] * prev[n - 1]
            for j in range(n - 2, -1, -1):
                acc = 0.0
                for r in range(j + 2, n + 1):
                    acc += comb(r, j) * M[j, r - j - 1] * a[r]
                a[j + 1] = (n * q[j] * prev[j] - acc) / ((j + 1) * M[j, 0])
            rs = np.arange(1, n + 1)
            a[0] = 1.0 / (n + 1) - float((a[1:] / (rs + 1.0)).sum())
            coeffs.append(a)
    return coeffs


def reference_identity_residual(seq, coupling: CoupledMeasure) -> float:
    """:func:`lambda_asg.fixation.defining_identity_residual` with h_n
    evaluated atom by atom: the quadrature points of each atom are their own
    arrays, and h_n and h_{n-1} are evaluated afresh on each."""
    xs = np.linspace(0.0, 1.0, IDENTITY_GRID)
    nodes, wts = gauss_legendre_01(_QUAD_ORDER)
    quad = 2.0 * nodes * wts
    c = coupling
    tilde_mass = float(c.masses @ (c.ys * c.ys + c.zs))
    lhs_terms, rhs_terms = [], []
    for wa, ya, za in zip(c.masses, c.ys, c.zs):
        if ya > 0.0:
            w_vals = nodes * ya
            shrunk = xs[:, None] * (1.0 - w_vals)
            lhs_terms.append((wa * ya * ya / tilde_mass, shrunk + w_vals, shrunk, w_vals))
        if za > 0.0:
            rhs_terms.append((wa * za / tilde_mass, xs[:, None] * (1.0 - ya - za * nodes)))
    worst = []
    for n in range(1, seq.nmax + 1):
        lhs = np.zeros_like(xs)
        for weight, hi, lo, w_vals in lhs_terms:
            lhs += weight * ((seq.h(n, hi) - seq.h(n, lo)) / w_vals @ quad)
        rhs = np.zeros_like(xs)
        for weight, args in rhs_terms:
            rhs += weight * (seq.h(n - 1, args) @ wts)
        rhs *= n
        scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
        worst.append(float(np.abs(lhs - rhs).max()) / scale)
    return float(np.max(worst, initial=0.0))


def reference_write_csv(path, header, rows) -> None:
    """``csv.writer`` with each float formatted by ``format(float(v),
    ".17g")`` and any other value by ``str``: the writer that
    :func:`lambda_asg.cli.write_csv` replaced."""
    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def reference_moran_row(rows, N: int, i: int) -> np.ndarray:
    """One fresh Moran row of :class:`lambda_asg.rates.MixtureRows`, the
    downward rates assigned through a reversed view."""
    x = i / N
    row = np.zeros(N + 1)
    row[i + 1 :] = x * rows.y[N - i][1:]
    row[:i][::-1] = (1.0 - x) * rows.s[i][1:]
    return row


def reference_ancestor_row(rows, n: int, N: int | None) -> np.ndarray:
    """One fresh ancestor-count row of :class:`lambda_asg.rates.MixtureRows`,
    the coalescences assigned through a reversed view."""
    x = n / N if N is not None else 0.0
    row = np.zeros(n + 2)
    row[n + 1] = (1.0 - x) * rows.branch[n]
    row[1:n][::-1] = x * rows.y[n - 1][1:n] + (1.0 - x) * rows.y[n][2 : n + 1]
    return row


def reference_generator_rows(rows, N: int) -> np.ndarray:
    """The Moran generator on 0..N, one fresh row copied in at a time."""
    Q = np.zeros((N + 1, N + 1))
    for i in range(1, N):
        Q[i] = reference_moran_row(rows, N, i)
        Q[i, i] = -(Q[i, i + 1 :].sum() + Q[i, i - 1 :: -1].sum())
    return Q


def reference_ancestor_rates(rows, K: int, N: int | None) -> np.ndarray:
    """The ancestor count's off-diagonal rates on 0..K, one fresh row copied
    in at a time."""
    rates = np.zeros((K + 1, K + 2))
    for n in range(1, K + 1):
        rates[n, : n + 2] = reference_ancestor_row(rows, n, N)
    return rates


def reference_line_count_rows(rows, N: int) -> np.ndarray:
    """The ancestor count's generator on 0..N, each diagonal entry an
    ``ndarray.sum`` of its row's own n + 2 rates."""
    rates = reference_ancestor_rates(rows, N, N)
    A = rates[:, : N + 1].copy()
    np.fill_diagonal(A[1:, 1:], [-rates[n, : n + 2].sum() for n in range(1, N + 1)])
    return A


def merged_chisquare_pvalue(
    observed_counts: dict[int, int], probs: dict[int, float], total: int,
    min_expected: float = 5.0,
) -> float:
    """Chi-square goodness-of-fit p-value with small expected bins pooled."""
    from scipy.stats import chisquare

    keys = sorted(probs)
    obs, exp = [], []
    pool_obs = pool_exp = 0.0
    for k in keys:
        e = probs[k] * total
        o = observed_counts.get(k, 0)
        if e < min_expected:
            pool_obs += o
            pool_exp += e
        else:
            obs.append(o)
            exp.append(e)
    if pool_exp > 0:
        obs.append(pool_obs)
        exp.append(pool_exp)
    obs_arr = np.asarray(obs, dtype=float)
    exp_arr = np.asarray(exp, dtype=float)
    # renormalize tiny mismatch from probabilities not summing exactly to 1
    exp_arr *= obs_arr.sum() / exp_arr.sum()
    return float(chisquare(obs_arr, exp_arr).pvalue)


def two_sample_chisquare_pvalue(a: np.ndarray, b: np.ndarray, min_expected: float = 5.0) -> float:
    """Chi-square homogeneity p-value of two samples of integer counts.

    The 2 x K table counts each sample per value; runs of consecutive
    values are merged, from the lowest up, until both rows expect at least
    ``min_expected`` in the cell, and a short last run joins the cell
    before it.  One cell left gives no evidence of a difference: 1.0."""
    from scipy.stats import chi2_contingency

    hi = int(max(a.max(), b.max())) + 1
    table = np.array([np.bincount(a, minlength=hi), np.bincount(b, minlength=hi)])
    share = min(len(a), len(b)) / (len(a) + len(b))
    cells, run = [], np.zeros(2, dtype=np.int64)
    for column in table.T:
        run = run + column
        if run.sum() * share >= min_expected:
            cells.append(run)
            run = np.zeros(2, dtype=np.int64)
    if len(cells) < 2:
        return 1.0
    cells[-1] = cells[-1] + run
    return float(chi2_contingency(np.array(cells).T, correction=False).pvalue)


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the dtype and bytes of each array, to pin a realization."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def replicate_realization(rounds, j: int, horizon: float) -> AsgRealization:
    """Replicate j of a chunk's event rounds as a realization for the public
    API: its e-th event is row ``sum(widths[:e]) + j`` of the columns, placed
    at increasing times inside (0, horizon)."""
    K = int(rounds.counts[j])
    rows = np.concatenate([[0], np.cumsum(rounds.widths)])[:K] + j
    return AsgRealization(
        N=rounds.outcomes.shape[1], horizon=horizon,
        times=horizon * np.arange(1, K + 1) / (K + 1),
        reproducers=rounds.reproducers[rows], ys=rounds.ys[rows], zs=rounds.zs[rows],
        outcomes=rounds.outcomes[rows],
    )


# -- scalar per-event references for the ASG rules --------------------------------


def reference_propagate_forward(asg: AsgRealization, minus: np.ndarray) -> np.ndarray:
    """The final types of ``minus`` pushed forward one event at a time: an
    advantaged reproducer converts every hit individual, a disadvantaged one
    only the neutral-hit ones."""
    minus = minus.copy()
    for e in range(len(asg)):
        out = asg.outcomes[e]
        if minus[asg.reproducers[e]]:
            minus[out == OUTCOME_NEUTRAL] = True
        else:
            minus[out != OUTCOME_NONE] = False
    return minus


def reference_potential_ancestors(asg, sample, from_time, to_time):
    """The single-sample backward sweep, one event at a time."""
    members = np.zeros(asg.N, dtype=bool)
    members[list(sample)] = True
    lo = int(np.searchsorted(asg.times, to_time, side="right"))
    hi = int(np.searchsorted(asg.times, from_time, side="right"))
    for e in range(hi - 1, lo - 1, -1):
        out = asg.outcomes[e]
        r = asg.reproducers[e]
        hit = members & (out != OUTCOME_NONE)
        hit[r] = False
        if hit.any():
            members[hit & (out == OUTCOME_NEUTRAL)] = False
            members[r] = True
    return {int(i) for i in np.nonzero(members)[0]}


# -- full-scan references for the vectorized event kernels ----------------------


def reference_rounds(x: np.ndarray, lo, hi, budget, update):
    """:func:`lambda_asg.moran._rounds` as a scan of every entry in every
    round: the live entries are found afresh from the budget and the values."""
    for step in range(int(budget.max(initial=0))):
        idx = ((budget > step) & (x > lo) & (x < hi)).nonzero()[0]
        if not len(idx):
            return
        x[idx] = update(x[idx])
        yield step


def reference_record_events(x, lo, hi, rate, horizon, update, rng, keep):
    """:func:`lambda_asg.moran.record_events` before its one-row route: every
    run, one entry too, draws its counts as one array, runs the rounds as a
    full scan (:func:`reference_rounds`) that hands ``update`` arrays, and
    reads its paths off the matrix of the recorded values after each round."""
    check_horizon(horizon)
    counts = _event_counts(rng, rate, horizon, len(x))
    kept = counts[:keep].tolist()
    top = max(kept, default=0)
    seen = [x[:keep].copy()]
    for step in reference_rounds(x, lo, hi, counts, update):
        if step < top:
            seen.append(x[:keep].copy())
    seen += [x[:keep]] * (top + 1 - len(seen))
    values = np.array(seen)
    marks = np.empty(values.shape, dtype=bool)
    marks[0] = True
    np.not_equal(values[1:], values[:-1], out=marks[1:])
    paths = []
    for j, k in enumerate(kept):
        mark = marks[: k + 1, j]
        times = np.concatenate(([0.0], _event_times(rng, k, horizon)))[mark]
        paths.append(FrequencyPath(times=times, values=values[: k + 1, j][mark]))
    return x, paths


class FixedUniforms:
    """A generator whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


def reference_moran_event(counts: np.ndarray, N: int, c: CoupledMeasure, rng) -> np.ndarray:
    """:func:`lambda_asg.moran._event_updates` entry by entry, in its draw
    order: a uniform per entry (is the reproducer disadvantaged?), an atom per
    entry (the ``rng.choice`` of ``sample_atoms``), then one binomial per
    entry: ``N - count`` trials at y for a disadvantaged reproducer, ``count``
    trials at y + z for an advantaged one."""
    minus = rng.random(len(counts)) * N < counts
    atoms = rng.choice(len(c), size=len(counts), p=c.masses / c.total_mass)
    trials, probs, signs = [], [], []
    for k, m, a in zip(counts.tolist(), minus.tolist(), atoms.tolist()):
        trials.append(N - k if m else k)
        probs.append(c.ys[a] if m else c.ys[a] + c.zs[a])
        signs.append(1 if m else -1)
    return counts + np.array(signs) * rng.binomial(trials, probs)


def chain_cum(coupling: CoupledMeasure, size: int) -> np.ndarray:
    """The cumulative jump rows of the limit ancestor count on states
    ``0..size``, built as :meth:`lambda_asg.rates.AncestorChain.grow` builds
    them before it keeps their window: row s over the targets from the top
    down, index k being target ``size + 1 - k``, 0 above the branch and 1
    from target 1 on (1 throughout for a row whose total is 0)."""
    rates = MixtureRows(coupling, range(size + 1)).ancestor_rates(size, None)
    total = rates.sum(axis=1)
    cum = np.divide(
        np.cumsum(rates[:, ::-1], axis=1), total[:, None],
        out=np.ones_like(rates), where=total[:, None] > 0.0,
    )
    cum[:, size:] = 1.0
    return cum


def reference_chain_chunk(table, n0, horizon, n_paths, rng) -> np.ndarray:
    """:func:`lambda_asg.limits._chain_chunk` with a full-length live mask and
    clock, comparing each uniform with every column of its row of
    :func:`chain_cum` at the table's size."""
    states = np.full(n_paths, n0, dtype=np.int64)
    cum = chain_cum(table.coupling, len(table.total) - 1)
    t = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        s = states[idx]
        if int(s.max()) >= len(table.total) - 1:
            table.grow(2 * int(s.max()))
            cum = chain_cum(table.coupling, len(table.total) - 1)
        totals = table.total[s]
        draws = rng.exponential(1.0, size=len(idx))
        with np.errstate(divide="ignore"):
            dt = np.where(totals > 0.0, draws / totals, np.inf)
        t[idx] += dt
        done = t[idx] > horizon
        active[idx[done]] = False
        live = idx[~done]
        if len(live) == 0:
            continue
        u = rng.random(len(live))
        states[live] = len(table.total) - (u[:, None] >= cum[states[live]]).sum(axis=1)
    return states


# -- the per-value KS counting the merged bins replaced --------------------------


def reference_pooled_ranks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Rank of every value of ``a`` and of ``b`` among the K distinct pooled
    values, and K."""
    support, ranks = np.unique(np.concatenate([a, b]), return_inverse=True)
    return ranks[: len(a)], ranks[len(a):], len(support)


def reference_ks_counted(ra: np.ndarray, rb: np.ndarray, k: int) -> float:
    """KS statistic of two samples given as ranks into a support of size k,
    counted over every distinct pooled value."""
    na, nb = len(ra), len(rb)
    gap = np.bincount(ra, minlength=k) * nb - np.bincount(rb, minlength=k) * na
    return float(np.abs(np.cumsum(gap)).max()) / (na * nb)
