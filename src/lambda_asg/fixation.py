"""Fixation probability of the disadvantaged type via a polynomial recursion.

The generator of the limiting frequency process can be rewritten against the
size-biased measure ``(y^2 + z) * coupling`` using auxiliary variables
U (density 2u on [0, 1]), V (uniform) and W = U Y.  Harmonic functions then
admit a series expansion in polynomials ``h_n`` whose coefficients satisfy a
triangular recursion driven by two moment families,

    M[j][k] = E[(1 - W)^j W^k  * Y^2 / (Z + Y^2)],
    q[j]    = E[(1 - Y - Z V)^j * Z / (Z + Y^2)],

both of which reduce to closed forms per atom.  The fixation probability is
the normalized exponential series

    p(x) = (e^2 - 1)^{-1} * sum_{n >= 1} 2^n / n! * H_n(x),
    H_n(x) = integral_0^x n h_{n-1},

with the constant coefficient of each h_n pinned by ``integral_0^1 h_n =
1/(n+1)``, so that H_n(0) = 0 and H_n(1) = 1.  Hence p(0) = 0 exactly, and
p(1) is the sum of the series weights, which is 1 up to rounding: at order
30 it reads 1 - 2^-53.

The recursion's independent correctness oracle is the defining identity

    E[(h_n(x(1-W)+W) - h_n(x(1-W))) / W * Y^2/(Z+Y^2)]
        = n E[h_{n-1}(x(1-Y-ZV)) * Z/(Z+Y^2)],

which :func:`defining_identity_residual` evaluates by direct quadrature
against the coupling, bypassing the moment table and the back-substitution.

The diagonal of the recursion is seeded with the ratio product starting at
index 0 (``a[n][n] = prod_{i=0}^{n-1} q[i] / M[i][0]``); starting at 1 would
contradict the recursion at n = 1 unless q[0] = M[0][0].  The identity oracle
above adjudicates this choice.

A neutral coupling (z = 0 on every atom) needs no case of its own: its
forcing ``q`` vanishes, so ``h_n = 1/(n+1)``, ``H_n(x) = x`` and the series
sums to the martingale answer p(x) = x, converged from order 17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingular, NotConverged, ZeroMass, check_range
from .limits import frequency_generator
from .measures import CoupledMeasure
from .quadrature import gauss_legendre_01

PIVOT_TOL = 1e-13
# the series counts as converged when its last term is at most this share of
# its value
SERIES_TOL = 1e-10
# the series weight 2^n / n! needs n! as a float, and 171! overflows one
MAX_ORDER = 170
_QUAD_ORDER = 64  # exact for polynomial integrands up to degree 127
# x-grid size of defining_identity_residual, and the most atoms whose
# quadrature points it holds at once
IDENTITY_GRID = 21
IDENTITY_ATOMS = 16


@dataclass(frozen=True)
class MomentTable:
    """Moment families of the size-biased coupling.

    ``M[j, k]`` and ``q[j]`` as in the module docstring; ``tilde_mass`` is
    the total size-biased mass ``integral (y^2 + z)``.  ``M`` is
    ``(nmax, nmax)`` and ``q`` is ``(nmax,)``: the entries the polynomials of
    orders up to ``nmax`` read.
    """

    M: np.ndarray
    q: np.ndarray
    tilde_mass: float

    @property
    def nmax(self) -> int:
        """The order the table was built for."""
        return len(self.q)


def build_moment_table(coupling: CoupledMeasure, nmax: int) -> MomentTable:
    """Closed-form moment table for the polynomials of orders up to
    ``nmax``, which sets the order of every later step; exact up to
    quadrature of polynomial degree 127.

    Per atom of weight w the size-biased weight is ``w (y^2 + z) / tilde_mass``;
    the Y^2/(Z+Y^2) and Z/(Z+Y^2) factors cancel against it, leaving

        M[j, k] += w y^2 / tilde_mass * integral_0^1 2u (1-uy)^j (uy)^k du,
        q[j]    += w / tilde_mass * ((1-y)^{j+1} - (1-y-z)^{j+1}) / (j+1).

    The difference in ``q`` is taken without a subtraction, as
    ``z S_j`` with ``S_j = sum_{i <= j} A^i B^{j-i}`` (A = 1 - y, B = 1 - y - z),
    by ``S_0 = 1, S_j = B S_{j-1} + A^j``: every term is nonnegative, so an
    atom with a small z keeps its relative accuracy, where the difference
    of powers would lose about 1e-16 / z of it.

    Raises:
        ValueError: for an order outside ``[1, MAX_ORDER]`` (the series weight
            needs n! as a float), before any moment is computed.
        ZeroMass: if the size-biased mass vanishes (no atom with y^2 + z > 0),
            as for a coupling with no events.
    """
    check_range("nmax", nmax, 1, MAX_ORDER)
    w, y, z = coupling.masses, coupling.ys, coupling.zs
    tilde_mass = float(w @ (y * y + z))
    if tilde_mass <= 0.0:
        raise ZeroMass(
            "size-biased coupling has zero mass: no atom has y^2 + z > 0, so no "
            "event moves the frequency; give the coupling an atom with y > 0 or z > 0"
        )
    M = np.zeros((nmax, nmax))
    nodes, wts = gauss_legendre_01(_QUAD_ORDER)
    base = 2.0 * nodes * wts
    js = np.arange(nmax)
    for wa, ya in zip(w, y):
        if ya <= 0.0:
            continue
        pj = (1.0 - nodes * ya)[None, :] ** js[:, None]   # (nmax, nodes)
        pk = (nodes * ya)[None, :] ** js[:, None]
        M += (wa * ya * ya / tilde_mass) * ((pj * base) @ pk.T)
    A, B = 1.0 - y, 1.0 - y - z
    S = A[None, :] ** js[:, None]
    for j in range(1, nmax):
        S[j] += B * S[j - 1]
    q = S @ (w * z) / (tilde_mass * (js + 1.0))
    return MomentTable(M=M, q=q, tilde_mass=tilde_mass)


def _horner(c: np.ndarray, x, out: np.ndarray | None = None):
    """The polynomial with coefficients ``c`` (constant first) at ``x``, by
    Horner's rule in place (in ``out`` if given): the operations of numpy's
    ``polyval`` in its order, so the values are the same bits, without a new
    array per step."""
    out = np.multiply(x, 0.0, out=out)
    out += c[-1]
    for k in range(len(c) - 2, -1, -1):
        out *= x
        out += c[k]
    return out


@dataclass(frozen=True)
class PolySeq:
    """Coefficient triangle: ``coeffs[n][r]`` multiplies x^r in h_n.

    Raises:
        ValueError: for an order outside ``[1, MAX_ORDER]``, so that a
            sequence cut to order 0 is not read as a converged p = 0.
    """

    coeffs: list[np.ndarray]

    def __post_init__(self):
        check_range("nmax", self.nmax, 1, MAX_ORDER)

    @property
    def nmax(self) -> int:
        return len(self.coeffs) - 1

    def h(self, n: int, x) -> np.ndarray:
        """Evaluate h_n pointwise."""
        return _horner(self.coeffs[n], x)

    def antiderivative_coeffs(self, n: int) -> np.ndarray:
        """Coefficients of H_n(x) = integral_0^x n h_{n-1}; H_n(1) = 1."""
        a = self.coeffs[n - 1]
        out = np.zeros(len(a) + 1)
        out[1:] = n * a / (np.arange(len(a)) + 1.0)
        return out


def build_polynomials(table: MomentTable) -> PolySeq:
    """Back-substitute the triangular recursion up to the table's order.

    The weights ``comb(r, j) M[j, r - j - 1]`` are tabulated once; each inner sum
    adds its terms one at a time in increasing r, starting at 0.0.

    A vanishing ``q[j]`` (no selective gap) forces nothing: the pivot
    ``denoms[j] / (n q[j])`` is then infinite, never small.

    Raises:
        NearSingular: if a back-substitution pivot falls below tolerance.
        NotConverged: if a coefficient overflows to a non-finite value.
    """
    M, q, nmax = table.M, table.q, table.nmax
    # weights[j][r] = comb(r, j) * M[j, r - j - 1], read for r >= j + 2; the
    # inner loops run on Python floats, the double operations of numpy
    # scalars without their overhead
    js = np.arange(nmax)[:, None]
    lags = np.maximum(np.arange(nmax + 1) - js - 1, 0)
    combs = np.array([[math.comb(r, j) for r in range(nmax + 1)] for j in range(nmax)], dtype=float)
    weights = (combs * M[js, lags]).tolist()
    denoms = (js[:, 0] + 1) * M[:, 0]
    denoms_list = denoms.tolist()
    coeffs = [np.array([1.0])]
    # the recursion may overflow: quietly, since a non-finite coefficient is
    # refused below (Python floats never warn); a pivot over q = 0 is inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(1, nmax + 1):
            prev = coeffs[n - 1]
            if abs(M[n - 1, 0]) < PIVOT_TOL:
                raise NearSingular(
                    f"diagonal denominator {M[n - 1, 0]:.3e} below {PIVOT_TOL} at n={n}"
                )
            pivots = denoms[: n - 1] / (n * q[: n - 1])
            small = np.flatnonzero(np.abs(pivots) < PIVOT_TOL)
            if small.size:
                j = small[-1]
                raise NearSingular(f"pivot {pivots[j]:.3e} below {PIVOT_TOL} at n={n}, j={j}")
            targets = (n * q[: n - 1] * prev[: n - 1]).tolist()
            a = [0.0] * (n + 1)
            a[n] = float(q[n - 1] / M[n - 1, 0] * prev[n - 1])
            for j in range(n - 2, -1, -1):
                w = weights[j]
                acc = 0.0
                for r in range(j + 2, n + 1):
                    acc += w[r] * a[r]
                a[j + 1] = (targets[j] - acc) / denoms_list[j]
            a = np.array(a)
            # integral_0^1 h_n = 1/(n+1) pins the constant coefficient
            rs = np.arange(1, n + 1)
            a[0] = 1.0 / (n + 1) - float((a[1:] / (rs + 1.0)).sum())
            if not np.isfinite(a).all():
                raise NotConverged(
                    f"h_{n} has a non-finite coefficient: the recursion overflows at "
                    f"order {n}; lower nmax below {n}"
                )
            coeffs.append(a)
    return PolySeq(coeffs=coeffs)


def build_fixation_solver(coupling: CoupledMeasure, nmax: int = 30) -> "FixationSolver":
    """Convenience: the moment table of order ``nmax`` plus its polynomials."""
    table = build_moment_table(coupling, nmax)
    return FixationSolver(table=table, seq=build_polynomials(table))


@dataclass(frozen=True)
class FixationSolver:
    table: MomentTable
    seq: PolySeq

    def p(self, x: float) -> float:
        return fixation_probability(self.seq, x)[0]


def _series_weight(n: int) -> float:
    """The weight ``2^n / n! / (e^2 - 1)`` of H_n in the series for p."""
    return 1.0 / math.expm1(2.0) * 2.0**n / math.factorial(n)


def unconverged(values, lasts):
    """Where the series has not converged: its value is not finite, or its
    last term is not within :data:`SERIES_TOL` of its value (NaN included)."""
    return ~np.isfinite(values) | ~(lasts <= SERIES_TOL * np.abs(values))


def fixation_series_coeffs(seq: PolySeq) -> np.ndarray:
    """Polynomial coefficients of the series for p truncated at
    ``seq.nmax``."""
    out = np.zeros(seq.nmax + 2)
    for n in range(1, seq.nmax + 1):
        hn = seq.antiderivative_coeffs(n)
        out[: len(hn)] += _series_weight(n) * hn
    return out


def fixation_series(seq: PolySeq, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Series values truncated at ``seq.nmax`` on ``xs`` and the magnitudes
    of their last terms.

    Each antiderivative is evaluated once for the whole grid and the orders
    are summed in increasing n, so every entry equals the one-point sum.
    Convergence is left to the caller (see :func:`unconverged`).

    Raises:
        ValueError: for an x outside [0, 1], naming the first.
    """
    xs = np.asarray(xs, dtype=float)
    outside = np.flatnonzero(~((xs >= 0.0) & (xs <= 1.0)))
    if len(outside):
        check_range("x", float(xs.flat[outside[0]]), 0, 1)
    value = np.zeros_like(xs)
    last = np.zeros_like(xs)
    for n in range(1, seq.nmax + 1):
        hn = _horner(seq.antiderivative_coeffs(n), xs)
        last = _series_weight(n) * hn
        value += last
    return value, np.abs(last)


def fixation_probability(seq: PolySeq, x: float) -> tuple[float, float]:
    """Series value truncated at ``seq.nmax`` and the magnitude of its last
    term.

    Raises:
        NotConverged: if the last term exceeds :data:`SERIES_TOL` of the value.
    """
    values, lasts = fixation_series(seq, np.array([x]))
    value, last = float(values[0]), float(lasts[0])
    if unconverged(value, last):
        raise NotConverged(
            f"last series term {last:.3e} exceeds {SERIES_TOL} of p({x}) = {value:.6e}"
        )
    return value, last


def harmonicity_values(seq: PolySeq, coupling: CoupledMeasure, xs: np.ndarray) -> np.ndarray:
    """Generator applied to the truncated p, pointwise on ``xs``.

    The exact fixation probability is harmonic; the truncation error of the
    series is the only contribution.
    """
    coeffs = fixation_series_coeffs(seq)
    return frequency_generator(coupling, lambda v: _horner(coeffs, v), xs)


def harmonicity_residual(seq: PolySeq, coupling: CoupledMeasure, grid: int) -> float:
    """Max of |generator applied to the truncated p| over a uniform x-grid
    of ``grid >= 1`` points."""
    check_range("grid", grid, 1)
    xs = np.linspace(0.0, 1.0, grid)
    return float(np.abs(harmonicity_values(seq, coupling, xs)).max())


def defining_identity_residual(
    seq: PolySeq,
    coupling: CoupledMeasure,
) -> float:
    """Largest relative violation of the defining identity of the polynomials
    of orders 1..``seq.nmax`` on an ``IDENTITY_GRID``-point x-grid.

    Both expectations are evaluated by Gauss-Legendre quadrature straight
    against the coupling's atoms (independently of the moment table and the
    recursion), with h_n evaluated pointwise.  Each order is normalized by
    the larger side's magnitude (floored at 1): the polynomials' pointwise
    scale grows without bound in n, so an absolute residual would only
    measure floating-point granularity at that scale.
    """
    xs = np.linspace(0.0, 1.0, IDENTITY_GRID)
    nodes, wts = gauss_legendre_01(_QUAD_ORDER)
    quad = 2.0 * nodes * wts  # the density 2u of U on the u-grid
    c = coupling
    tilde_mass = float(c.masses @ (c.ys * c.ys + c.zs))
    # both sides of every order, summed atom by atom in the coupling's order;
    # rhs[n] collects h_{n-1}, so h_n adds to rhs[n + 1]
    lhs = np.zeros((seq.nmax + 1, IDENTITY_GRID))
    rhs = np.zeros((seq.nmax + 2, IDENTITY_GRID))
    for start in range(0, len(c), IDENTITY_ATOMS):
        ws, ys, zs = (a[start:start + IDENTITY_ATOMS] for a in (c.masses, c.ys, c.zs))
        up, down = ys > 0.0, zs > 0.0
        lhs_weights = ws[up] * ys[up] * ys[up] / tilde_mass
        rhs_weights = ws[down] * zs[down] / tilde_mass
        w_vals = nodes * ys[up, None]  # W = U y on the u-grid
        shrunk = xs[:, None] * (1.0 - w_vals[:, None, :])
        args = xs[:, None] * (1.0 - ys[down, None, None] - zs[down, None, None] * nodes)
        # the chunk's quadrature points, which no order changes: every
        # atom's hi, then every lo, then every rhs argument
        points = np.concatenate([shrunk + w_vals[:, None, :], shrunk, args])
        values = np.empty_like(points)
        lo_at, rhs_at = len(w_vals), 2 * len(w_vals)
        for n in range(seq.nmax + 1):
            _horner(seq.coeffs[n], points, out=values)
            for k, weight in enumerate(lhs_weights):
                lhs[n] += weight * ((values[k] - values[lo_at + k]) / w_vals[k] @ quad)
            for k, weight in enumerate(rhs_weights):
                rhs[n + 1] += weight * (values[rhs_at + k] @ wts)
    lhs, rhs = lhs[1:], rhs[1:-1] * np.arange(1.0, seq.nmax + 1)[:, None]
    scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1)))
    # NaN, where an order overflows, is kept rather than skipped
    return float(np.max(np.abs(lhs - rhs).max(axis=1) / scale, initial=0.0))
