import dataclasses
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    rational_moment_table,
    rational_polynomials,
    reference_build_polynomials,
    reference_identity_residual,
)
from lambda_asg.errors import DegenerateSelection, NearSingular, NotConverged, ZeroMass
from lambda_asg.fixation import (
    IDENTITY_ATOMS,
    SERIES_TOL,
    PolySeq,
    _horner,
    build_fixation_solver,
    build_moment_table,
    build_polynomials,
    defining_identity_residual,
    fixation_probability,
    fixation_series,
    fixation_series_coeffs,
    harmonicity_residual,
    p_neutral,
    unconverged,
)
from lambda_asg.measures import CoupledMeasure
from lambda_asg.moran import MoranConfig, absorption_probability

SINGLE = CoupledMeasure.from_atoms([(0.5, 0.25, 1.0)])
FIX_A = CoupledMeasure.from_atoms([(0.4, 0.15, 0.8), (0.7, 0.1, 0.6)])
FIX_B = CoupledMeasure.from_atoms([(0.5, 0.1, 1.0), (0.25, 0.05, 1.0)])
# the recursion overflows at order 158 on this coupling
STRONG = CoupledMeasure.from_atoms([(0.2, 0.6, 1.0), (0.5, 0.4, 0.5)])
# an atom with y = 0 has no left-hand quadrature term, one with z = 0 no
# right-hand term, and one with y = 1 has W = U
EDGE_COUPLINGS = {
    "y0": CoupledMeasure.from_atoms([(0.0, 0.3, 1.0), (0.5, 0.1, 1.0)]),
    "z0": CoupledMeasure.from_atoms([(0.4, 0.0, 1.0), (0.3, 0.2, 0.5)]),
    "y1": CoupledMeasure.from_atoms([(1.0, 0.0, 0.3), (0.3, 0.2, 1.0)]),
    "fix_a": FIX_A,
    "strong": STRONG,
}


class TestMomentTable:
    def test_single_atom_values(self):
        t = build_moment_table(SINGLE, 4)
        assert t.tilde_mass == pytest.approx(0.5)
        assert t.M[0, 0] == pytest.approx(0.5)
        # E[1 - W] with W = U/2, E[U] = 2/3 under density 2u
        assert t.M[1, 0] == pytest.approx(1 / 3)
        assert t.q[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("nmax", [1, 2, 7, 30])
    def test_the_table_sets_every_order(self, mild_selective_coupling, nmax):
        table = build_moment_table(mild_selective_coupling, nmax)
        assert table.M.shape == (nmax, nmax) and table.q.shape == (nmax,)
        assert table.nmax == nmax
        solver = build_fixation_solver(mild_selective_coupling, nmax)
        assert solver.table.M.tobytes() == table.M.tobytes()
        assert solver.table.q.tobytes() == table.q.tobytes()
        assert solver.seq.nmax == nmax and len(solver.seq.coeffs) == nmax + 1
        assert fixation_series_coeffs(solver.seq).shape == (nmax + 2,)

    @pytest.mark.parametrize("n", [1, 10, 29])
    def test_a_leading_block_gives_a_prefix_of_the_sequence(self, n):
        # a lower order of one table is a prefix, bit for bit, of the
        # sequence of its full order
        table = build_moment_table(SINGLE, 30)
        full = build_polynomials(table).coeffs
        block = dataclasses.replace(table, M=table.M[:n, :n], q=table.q[:n])
        got = build_polynomials(block).coeffs
        assert len(got) == n + 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, full))

    def test_neutral_gap_vanishes(self, neutral_coupling):
        t = build_moment_table(neutral_coupling, 5)
        assert np.all(t.q == 0.0)

    def test_entries_in_unit_interval_and_monotone(self, mild_selective_coupling):
        t = build_moment_table(mild_selective_coupling, 9)
        assert np.all(t.M >= 0.0) and np.all(t.M <= 1.0)
        assert np.all(t.q >= 0.0) and np.all(t.q <= 1.0)
        assert np.all(np.diff(t.M[:, 0]) <= 1e-15)
        assert np.all(np.diff(t.q) <= 1e-15)

    def test_zero_size_biased_mass_rejected(self):
        with pytest.raises(ZeroMass):
            build_moment_table(CoupledMeasure.from_atoms([]), 3)

    def test_matches_exact_rational(self):
        atoms = [
            (Fraction(1, 2), Fraction(1, 4), Fraction(1)),
            (Fraction(1, 4), Fraction(1, 8), Fraction(1, 2)),
        ]
        t = build_moment_table(
            CoupledMeasure.from_atoms([(float(y), float(z), float(w)) for y, z, w in atoms]), 7
        )
        M, q = rational_moment_table(atoms, 6, 6)
        for j in range(7):
            assert t.q[j] == pytest.approx(float(q[j]), rel=1e-14)
            for k in range(7):
                assert t.M[j, k] == pytest.approx(float(M[j][k]), rel=1e-13)

    def test_small_selective_gap_keeps_q_accurate(self):
        # (1-y)^{j+1} - (1-y-z)^{j+1} cancels at z = 1e-12, and the difference
        # of float powers lost about 4e-5 of q's relative accuracy here
        c = CoupledMeasure.from_atoms([(0.3, 1e-12, 5.0), (0.6, 0.0, 0.5)])
        atoms = [(Fraction(y), Fraction(z), Fraction(w)) for y, z, w in zip(c.ys, c.zs, c.masses)]
        t = build_moment_table(c, 31)
        _, q = rational_moment_table(atoms, 30, 0)
        rel = [abs(Fraction(t.q[j]) - q[j]) / q[j] for j in range(31)]
        assert float(max(rel)) <= 1e-13


class TestPolynomialRecursion:
    def test_first_polynomial_is_identity(self):
        seq = build_polynomials(build_moment_table(SINGLE, 2))
        assert seq.coeffs[0].tolist() == [1.0]
        assert seq.coeffs[1][1] == pytest.approx(1.0)
        assert seq.coeffs[1][0] == pytest.approx(0.0, abs=1e-14)

    def test_neutral_raises_degenerate(self, neutral_coupling):
        t = build_moment_table(neutral_coupling, 3)
        with pytest.raises(DegenerateSelection):
            build_polynomials(t)

    def test_order_above_170_is_refused_by_its_bound(self):
        # the series weight 2^n / n! needs n! as a float, and 171! overflows one
        message = r"nmax must lie in \[1, 170\], got 171"
        with pytest.raises(ValueError, match=message):
            build_moment_table(SINGLE, 171)

    def test_pure_selective_raises_near_singular(self):
        sel = CoupledMeasure.from_atoms([(0.0, 0.5, 1.0)])
        t = build_moment_table(sel, 3)
        with pytest.raises(NearSingular):
            build_polynomials(t)

    def test_matches_exact_rational_pipeline(self):
        # the float recursion against the same algebra over exact rationals
        atoms = [
            (Fraction(2, 5), Fraction(3, 20), Fraction(4, 5)),
            (Fraction(7, 10), Fraction(1, 10), Fraction(3, 5)),
        ]
        nmax = 12
        M, q = rational_moment_table(atoms, nmax - 1, nmax - 1)
        exact = rational_polynomials(M, q, nmax)
        c = CoupledMeasure.from_atoms([(float(y), float(z), float(w)) for y, z, w in atoms])
        seq = build_polynomials(build_moment_table(c, nmax))
        for n in range(nmax + 1):
            for r in range(n + 1):
                want = float(exact[n][r])
                got = seq.coeffs[n][r]
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_exact_diagonal_product_from_index_zero(self):
        # diagonal entries equal the running product of q/M ratios starting
        # at index 0; starting at 1 would be inconsistent with the recursion
        atoms = [(Fraction(1, 2), Fraction(1, 4), Fraction(1))]
        nmax = 8
        M, q = rational_moment_table(atoms, nmax - 1, nmax - 1)
        exact = rational_polynomials(M, q, nmax)
        product = Fraction(1)
        for n in range(1, nmax + 1):
            product *= q[n - 1] / M[n - 1][0]
            assert exact[n][n] == product

    def test_exact_normalization(self):
        atoms = [(Fraction(1, 2), Fraction(1, 4), Fraction(1))]
        M, q = rational_moment_table(atoms, 7, 7)
        exact = rational_polynomials(M, q, 8)
        for n in range(9):
            integral = sum(exact[n][r] / (r + 1) for r in range(n + 1))
            assert integral == Fraction(1, n + 1)

    def test_overflow_is_refused_naming_the_order(self):
        message = "h_158 has a non-finite coefficient: .* lower nmax below 158"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning gets out
            with pytest.raises(NotConverged, match=message):
                build_polynomials(build_moment_table(STRONG, 170))
        seq = build_polynomials(build_moment_table(STRONG, 157))
        assert all(np.isfinite(a).all() for a in seq.coeffs)

    def test_defining_identity_small_residual(self, mild_selective_coupling):
        solver = build_fixation_solver(mild_selective_coupling, nmax=30)
        assert defining_identity_residual(solver.seq, mild_selective_coupling) < 1e-9


class TestHorner:
    # the in-place evaluator repeats polyval's operations in its order
    @pytest.mark.parametrize("coupling", [FIX_A, FIX_B])
    def test_matches_polyval_bit_for_bit(self, coupling):
        seq = build_fixation_solver(coupling, nmax=30).seq
        rng = np.random.default_rng(3)
        args = [0.37, np.linspace(0.0, 1.0, 101), rng.random((21, 64))]
        polys = seq.coeffs + [seq.antiderivative_coeffs(n) for n in range(1, seq.nmax + 1)]
        for c in polys:
            for x in args:
                got = _horner(c, x)
                assert np.shape(got) == np.shape(x)
                assert np.array_equal(got, np.polynomial.polynomial.polyval(x, c))


class TestFixationProbability:
    def test_boundaries(self, mild_selective_coupling):
        solver = build_fixation_solver(mild_selective_coupling, nmax=30)
        assert solver.p(0.0) == 0.0
        assert solver.p(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_and_below_diagonal(self, mild_selective_coupling):
        solver = build_fixation_solver(mild_selective_coupling, nmax=30)
        xs = np.linspace(0.0, 1.0, 101)
        ps = np.array([solver.p(float(x)) for x in xs])
        assert np.all(np.diff(ps) >= -1e-12)
        assert np.all(ps <= xs + 1e-12)

    @pytest.mark.parametrize("nmax", [0, -3])
    def test_solver_needs_a_term(self, mild_selective_coupling, nmax):
        with pytest.raises(ValueError, match=rf"nmax must lie in \[1, 170\], got {nmax}"):
            build_fixation_solver(mild_selective_coupling, nmax=nmax)

    def test_solver_refuses_the_order_before_building_the_table(self):
        # the table is (nmax x nmax): a huge nmax must not reach it, nor any
        # moment of the coupling
        class Unread:
            def __getattr__(self, name):
                pytest.fail(f"coupling.{name} read")

        with pytest.raises(ValueError, match=r"nmax must lie in \[1, 170\], got 1000000"):
            build_fixation_solver(Unread(), nmax=10**6)

    def test_returns_truncation_diagnostic(self, mild_selective_coupling):
        solver = build_fixation_solver(mild_selective_coupling, nmax=30)
        value, last = fixation_probability(solver.seq, 0.5)
        assert 0.0 < value < 1.0
        assert last < 1e-10 * value

    def test_not_converged_raises(self):
        # stronger selection slows the series well below the 1e-10 bar at 30
        seq = build_polynomials(build_moment_table(SINGLE, 30))
        with pytest.raises(NotConverged):
            fixation_probability(seq, 0.5)

    def test_order_one_series_is_its_one_term(self):
        # h_0 = 1, so H_1(x) = x and the series is its one term 2x / (e^2 - 1)
        seq = build_polynomials(build_moment_table(SINGLE, 1))
        xs = np.array([0.25, 1.0])
        values, lasts = fixation_series(seq, xs)
        assert values == pytest.approx(2.0 * xs / math.expm1(2.0), rel=1e-15)
        assert lasts.tolist() == values.tolist()

    def test_grid_series_equals_pointwise_values(self, mild_selective_coupling):
        solver = build_fixation_solver(mild_selective_coupling, nmax=30)
        xs = np.linspace(0.0, 1.0, 101)
        values, lasts = fixation_series(solver.seq, xs)
        pointwise = [fixation_probability(solver.seq, float(x)) for x in xs]
        assert values.tolist() == [p for p, _ in pointwise]
        assert lasts.tolist() == [last for _, last in pointwise]
        assert values.tolist() == [solver.p(float(x)) for x in xs]

    def test_grid_series_returns_unconverged_partial_sums(self):
        seq = build_polynomials(build_moment_table(SINGLE, 30))
        values, lasts = fixation_series(seq, np.array([0.25, 0.5]))
        assert np.all(lasts > SERIES_TOL * np.abs(values))
        with pytest.raises(ValueError):
            fixation_series(seq, np.array([0.5, 1.5]))

    def test_agrees_with_absorption_oracle(self, mild_selective_coupling):
        solver = build_fixation_solver(mild_selective_coupling, nmax=30)
        N = 200
        h = absorption_probability(
            MoranConfig(N=N, coupling=mild_selective_coupling, initial_count=0)
        )
        for x in (0.2, 0.5, 0.8):
            assert abs(solver.p(x) - h[int(x * N)]) < 2e-2


class TestNeutralRoute:
    def test_identity(self):
        assert p_neutral(0.0) == 0.0
        assert p_neutral(1.0) == 1.0
        assert p_neutral(0.3) == 0.3

    def test_matches_neutral_absorption(self, neutral_coupling):
        N = 200
        h = absorption_probability(
            MoranConfig(N=N, coupling=neutral_coupling, initial_count=0)
        )
        assert abs(p_neutral(0.3) - h[60]) < 1e-2

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            p_neutral(1.5)


class TestHarmonicity:
    def test_neutral_identity_is_harmonic(self, neutral_coupling):
        # the generator applied to p(x) = x reduces to -x(1-x) * gap mass = 0
        xs = np.linspace(0.0, 1.0, 101)
        c = neutral_coupling
        vals = np.zeros_like(xs)
        for y, z, m in zip(c.ys, c.zs, c.masses):
            up = xs + y * (1.0 - xs)
            down = xs * (1.0 - y - z)
            vals += m * (xs * up + (1.0 - xs) * down - xs)
        assert np.abs(vals).max() < 1e-14

    def test_residual_small_at_thirty(self, mild_selective_coupling):
        solver = build_fixation_solver(mild_selective_coupling, nmax=30)
        assert harmonicity_residual(solver.seq, mild_selective_coupling, 101) < 1e-6

    def test_residual_shrinks_with_order(self):
        # the lower orders are prefixes of the order-30 sequence
        seq = build_polynomials(build_moment_table(SINGLE, 30))
        residuals = [
            harmonicity_residual(PolySeq(seq.coeffs[: n + 1]), SINGLE, 51) for n in (10, 20, 30)
        ]
        assert residuals[1] <= residuals[0] * 1.1
        assert residuals[2] <= residuals[1] * 1.1
        assert residuals[2] < residuals[0]

    def test_series_polynomial_evaluates_like_terms(self, mild_selective_coupling):
        solver = build_fixation_solver(mild_selective_coupling, nmax=20)
        coeffs = fixation_series_coeffs(solver.seq)
        for x in (0.1, 0.5, 0.9):
            direct = fixation_probability(solver.seq, x)[0]
            assert np.polynomial.polynomial.polyval(x, coeffs) == pytest.approx(
                direct, rel=1e-12
            )


@functools.cache
def scalar_triangle(name: str, nmax: int) -> tuple:
    """The moment table of an edge coupling and the triangle of the scalar
    triple loop on it, built once and shared by the tests."""
    table = build_moment_table(EDGE_COUPLINGS[name], nmax)
    return table, reference_build_polynomials(table)


class TestFastPathsMatchScalarLoops:
    """The tabulated recursion and the stacked identity quadrature give the
    bits of the loops they replaced."""

    @pytest.mark.parametrize("nmax", [1, 2, 30, 170])
    @pytest.mark.parametrize("name", sorted(EDGE_COUPLINGS))
    def test_polynomials(self, name, nmax):
        table, ref = scalar_triangle(name, nmax)
        overflow = [n for n, a in enumerate(ref) if not np.isfinite(a).all()]
        if overflow:
            # the orders below the first overflow are kept, the rest refused;
            # the kept ones are those of the table's leading block
            n = overflow[0]
            with pytest.raises(NotConverged, match=f"h_{n} "):
                build_polynomials(table)
            ref = ref[:n]
            table = dataclasses.replace(table, M=table.M[: n - 1, : n - 1], q=table.q[: n - 1])
        got = build_polynomials(table).coeffs
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("nmax", [1, 2, 30, 170])
    @pytest.mark.parametrize("name", sorted(EDGE_COUPLINGS))
    def test_identity_residual(self, name, nmax):
        # on the scalar triangle, overflowed orders included
        seq = PolySeq(coeffs=scalar_triangle(name, nmax)[1])
        coupling = EDGE_COUPLINGS[name]
        with np.errstate(all="ignore"):
            got = defining_identity_residual(seq, coupling)
            want = reference_identity_residual(seq, coupling)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def many_atoms(n: int) -> CoupledMeasure:
    """A coupling of ``n`` distinct atoms, y running from 0 to 1, with z = 0
    atoms in every chunk of ``IDENTITY_ATOMS``."""
    atoms = []
    for k in range(n):
        y = k / (n - 1)
        z = 0.0 if k % 5 == 0 else 0.5 * (1.0 - y)
        atoms.append((y, z if y or z else 0.3, 1.0 / (k + 1)))
    return CoupledMeasure.from_atoms(atoms)


class TestIdentityResidualInChunks:
    @pytest.mark.parametrize("n", [IDENTITY_ATOMS - 1, IDENTITY_ATOMS, 3 * IDENTITY_ATOMS + 5])
    def test_equals_the_atom_by_atom_residual(self, n):
        coupling = many_atoms(n)
        seq = build_fixation_solver(coupling, nmax=30).seq
        got = defining_identity_residual(seq, coupling)
        assert np.float64(got).tobytes() == np.float64(
            reference_identity_residual(seq, coupling)
        ).tobytes()

    def test_memory_does_not_grow_with_the_atoms(self):
        # the quadrature points of at most IDENTITY_ATOMS atoms are held at once
        def peak(n):
            coupling = many_atoms(n)
            assert len(coupling) == n
            seq = build_fixation_solver(coupling, nmax=5).seq
            tracemalloc.start()
            try:
                defining_identity_residual(seq, coupling)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * IDENTITY_ATOMS) < 1.2 * peak(2 * IDENTITY_ATOMS)

class TestConvergenceRule:
    def test_non_finite_values_are_not_converged(self):
        nan, inf = float("nan"), float("inf")
        values = np.array([0.5, 0.5, nan, inf, -inf, 0.5, 0.5, 0.0])
        lasts = np.array([1e-12, 1e-3, 0.0, 0.0, 0.0, nan, inf, 0.0])
        assert unconverged(values, lasts).tolist() == [
            False, True, True, True, True, True, True, False,
        ]
        assert unconverged(nan, 0.0) and not unconverged(0.5, 0.0)
