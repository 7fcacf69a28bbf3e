"""Finite measures on [0, 1] and on the simplex, and their monotone coupling.

The reproduction law of the disadvantaged type (``lambda_minus``) and of the
advantaged type (``lambda_plus``) are finite atomic measures on [0, 1].  When
they are stochastically ordered they can be merged into a single *selective
coupling* on the simplex ``{(y, z): y >= 0, z >= 0, y + z <= 1}``: ``y`` is
the neutral reproduction strength shared by both types and ``z`` is the extra
("selective") strength available only to the advantaged type.  The coupling's
first marginal recovers ``lambda_minus`` and the pushforward of ``y + z``
recovers ``lambda_plus``.

Everything here is atoms-only: continuous densities are ingested by
deterministic binning (see :func:`measure_from_beta_density`), after which all
downstream integrals are exact finite sums.  Measures are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import math
import sys
import typing
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import OrderViolation, ZeroMass, check_range
from .quadrature import gauss_legendre_01

# Atoms lighter than this are numerical noise and dropped on construction.
MASS_DROP = 1e-15
# Absolute tolerance for tail-mass comparisons in the stochastic order.
ORDER_TOL = 1e-12
# An array draw through :func:`invert_cdf` counts the table edges at or
# below each uniform, one vectorized compare per edge, from a table of at
# most COUNTED_ATOMS entries (so the counts fit in uint8) with at least
# COUNTED_DRAWS_PER_EDGE draws per edge; below that a binary search per
# draw is faster.  At 65536 draws counting took 28 us against 706 us on 2
# atoms, 77 against 1136 us on 5 and 2.2 against 4.0 ms on 128 (numpy 2.4.6,
# one core of a 2-core Xeon).
COUNTED_ATOMS = 128
COUNTED_DRAWS_PER_EDGE = 256


def invert_cdf(cdf: np.ndarray, u: np.ndarray | float) -> np.ndarray | int:
    """Indices of the uniforms ``u`` under the discrete law with CDF table
    ``cdf`` (sorted, its last entry exactly 1.0): for each u the number of
    entries at most u, ``cdf.searchsorted(u, side="right")``.

    An array ``u`` with a short table and many draws per edge
    (:data:`COUNTED_ATOMS`, :data:`COUNTED_DRAWS_PER_EDGE`) counts
    ``u >= edge`` over the edges instead, which is the same number: the table
    is sorted, and its last entry is 1.0, which no uniform reaches.  A Python
    float ``u`` is one ``bisect_right``, the same binary search without
    numpy's scalar overhead, and gives a Python int.
    """
    if not isinstance(u, np.ndarray):
        return bisect_right(cdf, u)
    if u.ndim and len(cdf) <= COUNTED_ATOMS and (
        u.size >= COUNTED_DRAWS_PER_EDGE * (len(cdf) - 1)
    ):
        count = np.zeros(u.shape, dtype=np.uint8)
        for edge in cdf[:-1]:
            count += u >= edge
        return count.astype(np.intp)
    return cdf.searchsorted(u, side="right")


def _merge_atoms(keys: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort atoms lexicographically by key rows and sum masses of duplicates."""
    if keys.ndim == 1:
        keys = keys[:, None]
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    masses = masses[order]
    if len(masses) == 0:
        return keys, masses
    new_group = np.any(keys[1:] != keys[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(new_group)[0] + 1])
    merged = np.add.reduceat(masses, starts)
    return keys[starts], merged


def _from_columns(cls, atoms: Iterable[tuple], names: tuple[str, ...], tidy: Callable):
    """``cls`` built from ``atoms``, each read as one float per name in
    ``names`` (the masses last).

    ValueError names the first column with a NaN or an infinity; a negative
    mass and an overflowing total are refused too.  ``tidy`` applies the
    class's own coordinate rules to the columns and returns the ones to
    store, which are made read-only and followed by their total mass.
    """
    rows = list(atoms)
    columns = [np.asarray([row[i] for row in rows], dtype=float) for i in range(len(names))]
    for name, values in zip(names, columns):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    if np.any(columns[-1] < 0.0):
        raise ValueError("atom masses must be nonnegative")
    # a merge of duplicates or the total may overflow to inf: the check below tells
    with np.errstate(over="ignore"):
        columns = tidy(*columns)
        total = float(columns[-1].sum())
    if not math.isfinite(total):
        raise ValueError("total mass must be finite")
    for values in columns:
        values.setflags(write=False)
    return cls(*columns, total)


def _scaled(masses: np.ndarray, factor: float) -> np.ndarray:
    """``masses * factor`` for ``factor >= 0``.  A mass that overflows is
    left for the reader to refuse, without a numpy warning."""
    if factor < 0:
        raise ValueError("scale factor must be nonnegative")
    with np.errstate(over="ignore"):
        return masses * factor


def _tidy_line(locs: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate rules of a measure on [0, 1]: locations in range, then
    duplicates merged, then dust dropped."""
    if np.any(locs < 0.0) or np.any(locs > 1.0):
        raise ValueError("atom locations must lie in [0, 1]")
    keys, ms = _merge_atoms(locs, ms)
    keep = ms > MASS_DROP
    return keys[keep, 0], ms[keep]


@dataclass(frozen=True)
class FiniteMeasure1D:
    """A finite measure on [0, 1] stored as strictly increasing weighted atoms."""

    locations: np.ndarray
    masses: np.ndarray
    total_mass: float

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "FiniteMeasure1D":
        """Build from (location, mass) pairs; merges duplicates, drops dust.

        Raises:
            ValueError: if a location or a mass is not finite, a mass is
                negative, a location is outside [0, 1] or the total mass
                overflows.
        """
        return _from_columns(cls, atoms, ("atom locations", "atom masses"), _tidy_line)

    @classmethod
    def point_mass(cls, location: float, mass: float = 1.0) -> "FiniteMeasure1D":
        return cls.from_atoms([(location, mass)])

    def __len__(self) -> int:
        return len(self.locations)

    def scaled(self, factor: float) -> "FiniteMeasure1D":
        """Return the measure with all masses multiplied by ``factor >= 0``."""
        return FiniteMeasure1D.from_atoms(zip(self.locations, _scaled(self.masses, factor)))

    def tail_mass(self, x: float) -> float:
        """Mass of [x, 1]."""
        return float(self.masses[self.locations >= x - 1e-15].sum())

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.masses, f(self.locations)))

    def mean(self) -> float:
        return float(np.dot(self.masses, self.locations))


def measure_from_beta_density(
    a: float, b: float, grid: int = 256, mass: float = 1.0
) -> FiniteMeasure1D:
    """Bin a Beta(a, b) density onto ``grid`` equal cells.

    Each cell becomes one atom at its midpoint carrying the cell integral,
    computed with 16-node Gauss-Legendre (near-exact for smooth densities;
    endpoint singularities for a < 1 or b < 1 stay integrable because nodes
    are interior).  Total mass is renormalized to ``mass`` exactly.

    Raises:
        ValueError: naming ``a``, ``b``, ``grid`` or ``mass`` if a or b is
            not positive and finite, grid is below 1 or mass is not finite.
    """
    for name, value in (("a", a), ("b", b)):
        if not 0 < value < math.inf:
            raise ValueError(f"beta parameter {name} must be positive and finite, got {value}")
    check_range("grid", grid, 1)
    if not math.isfinite(mass):
        raise ValueError(f"mass must be finite, got {mass}")
    nodes, weights = gauss_legendre_01(16)
    edges = np.linspace(0.0, 1.0, grid + 1)
    widths = np.diff(edges)
    # evaluation points per cell: shape (grid, 16)
    pts = edges[:-1, None] + widths[:, None] * nodes[None, :]
    lognorm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    dens = np.exp((a - 1.0) * np.log(pts) + (b - 1.0) * np.log1p(-pts) - lognorm)
    cell_mass = widths * (dens @ weights)
    cell_mass *= mass / cell_mass.sum()
    mids = 0.5 * (edges[:-1] + edges[1:])
    return FiniteMeasure1D.from_atoms(zip(mids, cell_mass))


def _tidy_simplex(ys: np.ndarray, zs: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, ...]:
    """The coordinate rules of a measure on the simplex: roundoff-level
    boundary violations clamped and real ones refused, then dust and (0, 0)
    atoms dropped, then duplicates merged."""
    for name, v in (("y", ys), ("z", zs)):
        if np.any(v < -ORDER_TOL):
            raise ValueError(f"{name} coordinates must be >= 0")
    if np.any(ys + zs > 1.0 + ORDER_TOL):
        raise ValueError("atoms must satisfy y + z <= 1")
    ys = np.clip(ys, 0.0, 1.0)
    zs = np.minimum(np.clip(zs, 0.0, 1.0), 1.0 - ys)
    keep = (ms > MASS_DROP) & ~((ys == 0.0) & (zs == 0.0))
    keys, ms = _merge_atoms(np.column_stack([ys[keep], zs[keep]]), ms[keep])
    return keys[:, 0].copy(), keys[:, 1].copy(), ms


@dataclass(frozen=True)
class CoupledMeasure:
    """A finite measure on the simplex, stored as (y, z, mass) atoms.

    ``y`` is the neutral strength, ``z`` the selective gap.  Atoms at exactly
    (0, 0) are stripped on construction: they generate events that touch
    nobody and are invisible to every downstream process except as a
    constant no-op event rate.
    """

    ys: np.ndarray
    zs: np.ndarray
    masses: np.ndarray
    total_mass: float

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float, float]]) -> "CoupledMeasure":
        """Build from (y, z, mass) triples; strips (0, 0), drops dust, then
        merges duplicates.

        Raises:
            ValueError: if a coordinate or a mass is not finite, a mass is
                negative, an atom lies off the simplex beyond roundoff or the
                total mass overflows.
        """
        names = ("y coordinates", "z coordinates", "atom masses")
        return _from_columns(cls, atoms, names, _tidy_simplex)

    def __len__(self) -> int:
        return len(self.masses)

    @cached_property
    def _atom_cdf(self) -> np.ndarray:
        # as rng.choice builds it; empty for the empty measure
        cdf = np.cumsum(self.masses / self.total_mass)
        return cdf / cdf[-1] if len(cdf) else cdf

    def sample_atoms(
        self, rng: np.random.Generator, size: int | tuple | None
    ) -> np.ndarray | int:
        """Atom indices of shape ``size`` drawn by mass: the draws of
        ``rng.choice(len(self), size, p=masses / total_mass)``, one uniform each.

        The index of a uniform u is the number of CDF entries at most u, the
        ``searchsorted(u, side="right")`` of ``rng.choice``, read by
        :func:`invert_cdf`, the inversion rule the event counts share.  With
        ``size=None`` it is one index, a Python int, from one binary search.
        """
        return invert_cdf(self._atom_cdf, rng.random(size))

    def scaled(self, factor: float) -> "CoupledMeasure":
        return CoupledMeasure.from_atoms(zip(self.ys, self.zs, _scaled(self.masses, factor)))

    def integrate(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
        """Sum of mass * f(y, z) over atoms."""
        return float(np.dot(self.masses, f(self.ys, self.zs)))

    def y_marginal(self) -> FiniteMeasure1D:
        """Law of the neutral coordinate y."""
        return FiniteMeasure1D.from_atoms(zip(self.ys, self.masses))

    def sum_marginal(self) -> FiniteMeasure1D:
        """Law of the total strength y + z."""
        return FiniteMeasure1D.from_atoms(zip(self.ys + self.zs, self.masses))

    def selective_mass(self) -> float:
        """Integral of z, the mean selective gap (expected selective arrows per event)."""
        return float(np.dot(self.masses, self.zs))


def transport_cost(coupling: CoupledMeasure) -> float:
    """Second moment of the selective gap, ``sum of mass * z**2``.

    In (lower, upper) marginal coordinates this is the squared-difference
    transport cost of the coupling; the quantile coupling minimizes it among
    all couplings of the same ordered pair.
    """
    return float(np.dot(coupling.masses, coupling.zs**2))


def stochastic_order_leq(a: FiniteMeasure1D, b: FiniteMeasure1D) -> bool:
    """True iff a[x, 1] <= b[x, 1] + ORDER_TOL for every x.

    Tail masses are piecewise constant with breakpoints at atom locations, so
    checking every atom location of either measure (plus x = 0) is exhaustive.
    """
    return order_violation_witness(a, b) is None


def order_violation_witness(a: FiniteMeasure1D, b: FiniteMeasure1D) -> float | None:
    """Return an x with a[x, 1] > b[x, 1] + ORDER_TOL, or None if the order
    holds.  ``ORDER_TOL`` is the one order tolerance of the package."""
    xs = np.unique(np.concatenate([[0.0], a.locations, b.locations]))
    for x in xs:
        if a.tail_mass(x) > b.tail_mass(x) + ORDER_TOL:
            return float(x)
    return None


@dataclass(frozen=True)
class NormalizationRecord:
    """Probability-measure reduction of an ordered finite pair.

    ``mu_plus = lambda_plus / |lambda_plus|`` and
    ``mu_minus = lambda_minus / |lambda_plus| + c * delta_0`` with
    ``c = 1 - |lambda_minus| / |lambda_plus|``.  The original model is the
    normalized one run at event rate ``rate_scale = |lambda_plus|``; the
    compensating atom at 0 produces events that replace nobody.
    """

    mu_minus: FiniteMeasure1D
    mu_plus: FiniteMeasure1D
    c: float
    rate_scale: float

    def coupling(self) -> "CoupledMeasure":
        """The quantile coupling of the normalized pair, run at ``rate_scale``."""
        return quantile_coupling(self.mu_minus, self.mu_plus).scaled(self.rate_scale)


def normalize_pair(lm: FiniteMeasure1D, lp: FiniteMeasure1D) -> NormalizationRecord:
    """Reduce an ordered pair of finite measures to probability measures.

    Raises:
        ZeroMass: if ``lp`` has zero total mass.
        OrderViolation: if the pair is not ordered (tail masses).
    """
    if lp.total_mass <= 0.0:
        raise ZeroMass("lambda_plus must have positive total mass")
    w = order_violation_witness(lm, lp)
    if w is not None:
        raise OrderViolation(f"tail mass of lambda_minus exceeds lambda_plus at x={w}")
    scale = lp.total_mass
    c = 1.0 - lm.total_mass / scale
    c = max(c, 0.0)  # order at x=0 guarantees c >= 0 up to roundoff
    minus_atoms = list(zip(lm.locations, lm.masses / scale))
    if c > MASS_DROP:
        minus_atoms.append((0.0, c))
    return NormalizationRecord(
        mu_minus=FiniteMeasure1D.from_atoms(minus_atoms),
        mu_plus=lp.scaled(1.0 / scale),
        c=c,
        rate_scale=scale,
    )


def quantile_coupling(a: FiniteMeasure1D, b: FiniteMeasure1D) -> CoupledMeasure:
    """Monotone (inverse-CDF) coupling of an ordered pair of equal total mass.

    Splits [0, total_mass] at the merged breakpoints of both cumulative-mass
    functions; each u-interval of length m contributes one atom
    ``(F_a^{-1}, F_b^{-1} - F_a^{-1})`` of mass m, with both inverse CDFs read
    at once over all intervals by ``searchsorted``.  Intended for probability measures; any pair of equal total
    mass works after the same construction on [0, total_mass].

    Raises:
        OrderViolation: if the inputs are not stochastically ordered (a
            nonnegative gap coordinate would be impossible).
        ValueError: if total masses differ beyond tolerance or are zero.
    """
    if abs(a.total_mass - b.total_mass) > 1e-9:
        raise ValueError("quantile coupling needs equal total masses; normalize first")
    if a.total_mass <= 0.0:
        raise ValueError("cannot couple zero-mass measures")
    w = order_violation_witness(a, b)
    if w is not None:
        raise OrderViolation(f"tail mass of the lower measure exceeds the upper at x={w}")
    cums = [np.cumsum(a.masses), np.cumsum(b.masses)]
    breaks = np.unique(np.concatenate(cums))
    starts = np.concatenate([[0.0], breaks[:-1]])
    keep = breaks - starts > MASS_DROP
    breaks, starts = breaks[keep], starts[keep]
    # each inverse CDF on (start, break] is the first atom not exhausted at start
    ys, upper = (
        m.locations[np.minimum(cum.searchsorted(starts + MASS_DROP, side="right"), len(m) - 1)]
        for m, cum in zip((a, b), cums)
    )
    gaps = upper - ys
    crossed = np.flatnonzero(gaps < -1e-9)
    if len(crossed):
        i = crossed[0]
        raise OrderViolation(f"inverse CDFs cross at cumulative mass {breaks[i]}: gap {gaps[i]}")
    return CoupledMeasure.from_atoms(zip(ys, np.maximum(gaps, 0.0), breaks - starts))


def coupling_from_pair(lm: FiniteMeasure1D, lp: FiniteMeasure1D) -> CoupledMeasure:
    """Full pipeline: normalize an ordered finite pair, couple, restore rate.

    The result drives every event-driven process at total event rate
    ``|lambda_plus|`` (minus any stripped (0,0) no-op atoms).
    """
    return normalize_pair(lm, lp).coupling()


def marginal_mismatch(
    coupling: CoupledMeasure,
    lm: FiniteMeasure1D,
    lp: FiniteMeasure1D,
) -> float:
    """Largest per-location mass discrepancy between the coupling's marginals
    and a declared pair.

    The location 0 is skipped (compensating atoms at 0 and stripped (0,0)
    atoms live there).
    """

    def mismatch(got: FiniteMeasure1D, want: FiniteMeasure1D) -> float:
        locs = np.unique(np.concatenate([got.locations, want.locations]))
        worst = 0.0
        for x in locs:
            if x == 0.0:
                continue
            g = got.masses[np.abs(got.locations - x) < 1e-13].sum()
            t = want.masses[np.abs(want.locations - x) < 1e-13].sum()
            worst = max(worst, abs(float(g - t)))
        return worst

    return max(
        mismatch(coupling.y_marginal(), lm),
        mismatch(coupling.sum_marginal(), lp),
    )


# how a config error names a type
KIND_NAMES = {float: "a number", int: "an int", bool: "a bool", str: "a string", dict: "an object"}


def _typed(name: str, value, kind):
    """``value`` if it has type ``kind``, else a ValueError naming ``name``.
    Nothing is cast: an int is also a float (and read as one), a bool is not
    an int, and ``list[int]`` takes a non-empty list of ints or one bare int.
    The one type rule of every config value: the CLI's fields and params and
    the numbers of a measure spec."""
    if typing.get_origin(kind) is list:
        items = value if isinstance(value, list) else [value]
        if not items:
            raise ValueError(f"{name} must be a non-empty list, got []")
        return [_typed(name, item, typing.get_args(kind)[0]) for item in items]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        if abs(value) > sys.float_info.max:
            # beyond the float range: an infinity, refused as one
            return math.inf if value > 0 else -math.inf
        return float(value)
    if isinstance(value, kind) and isinstance(value, bool) == (kind is bool):
        return value
    raise ValueError(f"{name} must be {KIND_NAMES[kind]}, got {value!r}")


def _numbers(values, where: str, names: tuple[str, ...]) -> list[float]:
    """``values``, a list of one number per name in ``names``, as floats."""
    if not isinstance(values, (list, tuple)) or len(values) != len(names):
        raise ValueError(f"{where} must be [{', '.join(names)}], got {values!r}")
    return [_typed(f"{where} {name}", v, float) for v, name in zip(values, names)]


def _refuse_unknown(spec: dict, names: tuple[str, ...], what: str) -> None:
    """ValueError naming the keys of ``spec`` outside ``names``, and ``names``."""
    unknown = sorted(set(spec) - set(names))
    if unknown:
        raise ValueError(
            f"unknown {what} {', '.join(unknown)}; valid names: {', '.join(names) or 'none'}"
        )


def _atoms(spec: dict, names: tuple[str, ...]) -> list[list[float]]:
    """The spec's ``atoms``: a list of atoms, each of one number per name."""
    atoms = spec.get("atoms")
    if not isinstance(atoms, (list, tuple)):
        raise ValueError(f"atoms must be a list of [{', '.join(names)}], got {atoms!r}")
    return [_numbers(atom, f"atoms[{i}]", names) for i, atom in enumerate(atoms)]


def measure_from_config(spec: dict) -> FiniteMeasure1D:
    """Parse a measure description, exactly one of {"atoms": [[loc, mass], ...]}
    and {"density": {"kind": "beta", "params": [a, b], "grid": n, "mass": m}};
    ValueError naming the field (and the atom) if it is malformed or the key
    if it is unknown."""
    _refuse_unknown(spec, ("atoms", "density"), "keys")
    if "atoms" in spec and "density" in spec:
        raise ValueError("measure spec must hold exactly one of atoms or density, got both")
    if "atoms" in spec:
        return FiniteMeasure1D.from_atoms(_atoms(spec, ("loc", "mass")))
    if "density" not in spec:
        raise ValueError("measure spec needs 'atoms' or 'density'")
    d = spec["density"]
    if not isinstance(d, dict) or d.get("kind") != "beta":
        raise ValueError(f"density must be {{'kind': 'beta', ...}}, got {d!r}")
    _refuse_unknown(d, ("kind", "params", "grid", "mass"), "density keys")
    a, b = _numbers(d.get("params"), "density.params", ("a", "b"))
    grid = _typed("density.grid", d.get("grid", 256), int)
    mass = _typed("density.mass", d.get("mass", 1.0), float)
    return measure_from_beta_density(a, b, grid=grid, mass=mass)


def coupling_from_config(spec: dict) -> CoupledMeasure:
    """Parse a coupling description {"atoms": [[y, z, mass], ...]}; ValueError
    naming the field (and the atom) if it is malformed or the key if it is
    unknown."""
    _refuse_unknown(spec, ("atoms",), "keys")
    return CoupledMeasure.from_atoms(_atoms(spec, ("y", "z", "mass")))
