import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambda_asg
from helpers import (
    FixedUniforms, plan_cost, random_coupling, random_ordered_pair, reference_quantile_coupling,
    reference_transport_vertices, transport_vertices,
)
from lambda_asg import measures, moran
from lambda_asg.errors import OrderViolation, ZeroMass
from lambda_asg.measures import (
    CoupledMeasure,
    FiniteMeasure1D,
    coupling_from_pair,
    marginal_mismatch,
    measure_from_beta_density,
    order_violation_witness,
    quantile_coupling,
    transport_cost,
)


class TestFiniteMeasure:
    def test_merges_equal_locations(self):
        m = FiniteMeasure1D.from_atoms([(0.5, 0.2), (0.5, 0.3), (0.1, 0.5)])
        assert len(m) == 2
        assert m.locations.tolist() == [0.1, 0.5]
        assert m.masses.tolist() == [0.5, 0.5]

    def test_drops_dust(self):
        m = FiniteMeasure1D.from_atoms([(0.5, 1.0), (0.7, 1e-16)])
        assert len(m) == 1

    @pytest.mark.parametrize("k", [1e-6, 1e4, 1e8])
    def test_dust_is_a_share_of_the_total(self, k):
        # an atom of 5e-16 of the total is dust at every total mass, one of
        # 2e-13 is kept at every total mass, and a zero mass is dropped
        atoms = [(0.1, 0.6), (0.5, 0.4 - 2e-13), (0.7, 2e-13), (0.9, 5e-16), (0.3, 0.0)]
        unit = FiniteMeasure1D.from_atoms(atoms)
        scaled = FiniteMeasure1D.from_atoms((x, k * m) for x, m in atoms)
        assert unit.locations.tolist() == [0.1, 0.5, 0.7]
        assert np.array_equal(scaled.locations, unit.locations)
        np.testing.assert_allclose(scaled.masses, k * unit.masses, rtol=1e-15, atol=0.0)

    def test_rejects_bad_atoms(self):
        with pytest.raises(ValueError):
            FiniteMeasure1D.from_atoms([(1.5, 1.0)])
        with pytest.raises(ValueError):
            FiniteMeasure1D.from_atoms([(0.5, -1.0)])
        with pytest.raises(ValueError, match="atom locations must be finite"):
            FiniteMeasure1D.from_atoms([(np.nan, 1.0)])
        with pytest.raises(ValueError, match="atom masses must be finite"):
            FiniteMeasure1D.from_atoms([(0.5, np.nan)])
        with pytest.raises(ValueError, match="atom masses must be finite"):
            FiniteMeasure1D.from_atoms([(0.5, np.inf)])

    def test_tail_mass_holds_an_atom_on_its_edge(self):
        # [x, 1] is closed, and an x a rounding step above the atom still holds it
        m = FiniteMeasure1D.from_atoms([(0.5, 1.0)])
        assert m.tail_mass(0.5) == 1.0
        assert m.tail_mass(np.nextafter(0.5, 1.0)) == 1.0
        assert m.tail_mass(0.5 + 1e-14) == 0.0

    def test_total_mass_matches_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            _, m = random_ordered_pair(rng)
            assert m.total_mass == pytest.approx(m.masses.sum(), rel=1e-12)

    def test_beta_binning(self):
        m = measure_from_beta_density(2.0, 3.0, grid=256)
        assert len(m) == 256
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)
        assert m.mean() == pytest.approx(2.0 / 5.0, abs=1e-4)

    @pytest.mark.parametrize("a, b", [(2, 3), (0.5, 0.5), (0.3, 4), (50, 80), (400, 300)])
    def test_beta_binning_matches_betaln_normalization(self, a, b):
        # the reference normalizes each cell by scipy's Beta function before
        # the total is rescaled to the requested mass
        from scipy.special import betaln

        from lambda_asg.quadrature import gauss_legendre_01

        nodes, weights = gauss_legendre_01(16)
        edges = np.linspace(0.0, 1.0, 129)
        pts = edges[:-1, None] + np.diff(edges)[:, None] * nodes[None, :]
        dens = np.exp((a - 1.0) * np.log(pts) + (b - 1.0) * np.log1p(-pts) - betaln(a, b))
        ref = np.diff(edges) * (dens @ weights)
        ref *= 2.0 / ref.sum()
        m = measure_from_beta_density(a, b, grid=128, mass=2.0)
        # atoms of at most MASS_DROP = 1e-15 of the total are dropped as dust
        keep = ref > 1e-15 * ref.sum()
        assert np.array_equal(m.locations, (0.5 * (edges[:-1] + edges[1:]))[keep])
        assert np.allclose(m.masses, ref[keep], rtol=1e-14, atol=0.0)

    def test_beta_binning_loads_no_scipy(self):
        code = (
            "import sys\n"
            "from lambda_asg.measures import measure_from_beta_density\n"
            "m = measure_from_beta_density(0.5, 0.5, grid=64)\n"
            "assert len(m) == 64\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(lambda_asg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestStochasticOrder:
    def test_example_pair_ordered(self, example_pair):
        lm, lp = example_pair
        assert order_violation_witness(lm, lp) is None

    def test_reflexive(self):
        m = FiniteMeasure1D.from_atoms([(0.5, 1.0)])
        assert order_violation_witness(m, m) is None

    def test_point_masses_ordered_by_location(self):
        hi = FiniteMeasure1D.from_atoms([(0.75, 1.0)])
        lo = FiniteMeasure1D.from_atoms([(0.5, 1.0)])
        assert order_violation_witness(hi, lo) is not None
        assert order_violation_witness(lo, hi) is None

    def test_witness_is_a_violation(self, example_pair):
        lm, lp = example_pair
        w = order_violation_witness(lp, lm)
        assert w is not None
        assert lp.tail_mass(w) > lm.tail_mass(w)

    def test_brute_force_agreement(self):
        # dense-grid tail comparison as the independent oracle
        rng = np.random.default_rng(42)
        grid = np.linspace(0, 1, 201)
        for _ in range(200):
            a = FiniteMeasure1D.from_atoms(
                zip(rng.integers(0, 33, 3) / 32, rng.dirichlet(np.ones(3)))
            )
            b = FiniteMeasure1D.from_atoms(
                zip(rng.integers(0, 33, 3) / 32, rng.dirichlet(np.ones(3)))
            )
            brute = all(a.tail_mass(x) <= b.tail_mass(x) + 1e-12 for x in grid)
            assert (order_violation_witness(a, b) is None) == brute


class TestQuantileCoupling:
    def test_example_atoms(self, example_pair):
        c = quantile_coupling(*example_pair)
        got = {(y, z): m for y, z, m in zip(c.ys, c.zs, c.masses)}
        want = {
            (0.25, 0.25): 1 / 3,
            (0.25, 0.5): 1 / 6,
            (0.5, 0.25): 1 / 6,
            (0.5, 0.5): 1 / 3,
        }
        assert set(got) == set(want)
        for key, mass in want.items():
            assert got[key] == pytest.approx(mass, abs=1e-15)

    def test_identical_measures_give_zero_gap(self):
        m = FiniteMeasure1D.from_atoms([(0.5, 1.0)])
        c = quantile_coupling(m, m)
        assert len(c) == 1
        assert c.ys[0] == 0.5 and c.zs[0] == 0.0 and c.masses[0] == 1.0

    def test_two_point_masses(self):
        c = quantile_coupling(
            FiniteMeasure1D.from_atoms([(0.25, 1.0)]), FiniteMeasure1D.from_atoms([(0.75, 1.0)])
        )
        assert len(c) == 1
        assert (c.ys[0], c.zs[0], c.masses[0]) == (0.25, 0.5, 1.0)

    def test_unordered_pair_raises(self):
        with pytest.raises(OrderViolation):
            quantile_coupling(
                FiniteMeasure1D.from_atoms([(0.75, 1.0)]), FiniteMeasure1D.from_atoms([(0.5, 1.0)])
            )

    def test_unequal_mass_rejected(self):
        with pytest.raises(ValueError):
            quantile_coupling(
                FiniteMeasure1D.from_atoms([(0.25, 0.5)]), FiniteMeasure1D.from_atoms([(0.5, 1.0)])
            )

    def test_marginals_exact_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            lm, lp = random_ordered_pair(rng)
            c = quantile_coupling(lm, lp)
            assert marginal_mismatch(c, lm, lp) < 1e-12

    @staticmethod
    def tied_pairs(rng, count):
        """Ordered pairs of integer masses, so the two cumulative masses share
        breaks (up to rounding once normalized), at locations on the lattice
        k/16 or rounded to two digits; then unrounded random pairs."""
        for _ in range(count):
            upper = rng.integers(1, 17, size=rng.integers(1, 5)) / 16
            if rng.random() < 0.5:
                upper = np.round(upper + rng.uniform(-0.03, 0.03, len(upper)), 2).clip(0, 1)
            weights = rng.integers(1, 5, size=len(upper))
            # each upper atom's mass moves down, whole or in two integer pieces
            lower = []
            for loc, w in zip(upper, weights):
                k = int(rng.integers(1, w + 1))
                for piece in (k, w - k):
                    lower.append((np.floor(loc * rng.integers(0, 4) / 3 * 100) / 100, piece))
            yield FiniteMeasure1D.from_atoms(lower), FiniteMeasure1D.from_atoms(zip(upper, weights))
        for lattice in (None, 8):
            for _ in range(count):
                yield random_ordered_pair(rng, lattice=lattice)

    def test_matches_the_reference_sweep(self):
        rng = np.random.default_rng(20240801)
        for lm, lp in self.tied_pairs(rng, 400):
            # the unit-mass pair coupling_from_pair couples, read off its marginals
            coupling, scale = coupling_from_pair(lm, lp), lp.total_mass
            mu_minus, mu_plus = (m.scaled(1.0 / scale) for m in
                                 (coupling.y_marginal(), coupling.sum_marginal()))
            got = quantile_coupling(mu_minus, mu_plus)
            want = reference_quantile_coupling(mu_minus, mu_plus)
            for field in ("ys", "zs", "masses"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_crossing_names_the_first_crossing_break(self, monkeypatch):
        # past the tail-mass check, the crossing check alone refuses the pair
        monkeypatch.setattr(measures, "order_violation_witness", lambda a, b: None)
        # the inverse CDFs cross on (0, 0.25], (0.25, 0.5] and (0.75, 1]
        a = FiniteMeasure1D.from_atoms([(0.6, 0.25), (0.7, 0.5), (0.99, 0.25)])
        b = FiniteMeasure1D.from_atoms([(0.5, 0.5), (0.95, 0.25), (0.98, 0.25)])
        with pytest.raises(OrderViolation) as want:
            reference_quantile_coupling(a, b)
        with pytest.raises(OrderViolation, match=r"cross at cumulative mass 0\.25: ") as got:
            quantile_coupling(a, b)
        assert str(got.value) == str(want.value)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_order_iff_coupling_succeeds(self, data):
        # lattice locations make the order check exact, so the equivalence
        # between the order and coupling feasibility is sharp
        locs_a = data.draw(st.lists(st.integers(0, 16), min_size=1, max_size=4))
        locs_b = data.draw(st.lists(st.integers(0, 16), min_size=1, max_size=4))
        w_a = data.draw(
            st.lists(st.integers(1, 8), min_size=len(locs_a), max_size=len(locs_a))
        )
        w_b = data.draw(
            st.lists(st.integers(1, 8), min_size=len(locs_b), max_size=len(locs_b))
        )
        a = FiniteMeasure1D.from_atoms(
            (l / 16, w / sum(w_a)) for l, w in zip(locs_a, w_a)
        )
        b = FiniteMeasure1D.from_atoms(
            (l / 16, w / sum(w_b)) for l, w in zip(locs_b, w_b)
        )
        ordered = order_violation_witness(a, b) is None
        try:
            c = quantile_coupling(a, b)
            assert ordered
            assert np.all(c.zs >= 0)
        except OrderViolation:
            assert not ordered


def split_pairs(rng, count):
    """Ordered pairs of equal mass: lambda_plus is lambda_minus with one atom
    split into 2 to 6 pieces at or above its location, so the two totals
    agree only up to rounding."""
    for _ in range(count):
        lm = FiniteMeasure1D.from_atoms(
            zip(rng.uniform(0.0, 1.0, 3), rng.dirichlet(np.ones(3)))
        )
        k = int(rng.integers(len(lm)))
        pieces = int(rng.integers(2, 7))
        split = zip(rng.uniform(lm.locations[k], 1.0, pieces),
                    lm.masses[k] * rng.dirichlet(np.ones(pieces)))
        rest = [(x, m) for j, (x, m) in enumerate(zip(lm.locations, lm.masses)) if j != k]
        yield lm, FiniteMeasure1D.from_atoms([*rest, *split])


class TestCouplingFromPair:
    def test_probability_pair_is_the_quantile_coupling(self, example_pair):
        got, want = coupling_from_pair(*example_pair), quantile_coupling(*example_pair)
        for field in ("ys", "zs", "masses"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_lighter_lower_gets_a_compensator_at_zero(self):
        # c = 0.5 of |lambda_plus|, coupled to the lowest half of lambda_plus
        lm, lp = FiniteMeasure1D.from_atoms([(0.5, 0.5)]), FiniteMeasure1D.from_atoms([(0.5, 1.0)])
        c = coupling_from_pair(lm, lp)
        assert c.ys.tolist() == [0.0, 0.5] and c.zs.tolist() == [0.5, 0.0]
        assert c.masses.tolist() == pytest.approx([0.5, 0.5])
        # at rate scale 2 the compensator is c * |lambda_plus| = 0.5 * 2
        base = FiniteMeasure1D.from_atoms([(0.3, 0.5), (0.8, 0.5)])
        c = coupling_from_pair(base, base.scaled(2.0))
        assert c.masses[c.ys == 0.0].tolist() == pytest.approx([1.0])
        assert c.zs[c.ys == 0.0].tolist() == [0.3]

    def test_total_mass_is_that_of_lambda_plus(self):
        rng = np.random.default_rng(11)
        for total in (0.37, 1.0, 2.5, 7e3):
            for _ in range(20):
                lm, lp = random_ordered_pair(rng, total_mass=total)
                lm = lm.scaled(rng.uniform(0.3, 1.0))
                c = coupling_from_pair(lm, lp)
                assert c.total_mass == pytest.approx(lp.total_mass, rel=1e-14)
                assert marginal_mismatch(c, lm, lp) < 1e-12 * total

    def test_zero_mass_rejected(self):
        empty = FiniteMeasure1D.from_atoms([])
        with pytest.raises(ZeroMass):
            coupling_from_pair(empty, empty)

    def test_marginal_mismatch_skips_the_compensator_at_zero(self):
        # the coupling's y marginal holds the compensator, mass 0.5 at 0,
        # which lambda_minus does not: location 0 is not compared
        lm, lp = FiniteMeasure1D.from_atoms([(0.5, 0.5)]), FiniteMeasure1D.from_atoms([(0.5, 1.0)])
        coupling = coupling_from_pair(lm, lp)
        assert coupling.y_marginal().locations.tolist() == [0.0, 0.5]
        assert marginal_mismatch(coupling, lm, lp) == 0.0
        # a mismatch off 0 is still seen
        assert marginal_mismatch(coupling, lm.scaled(0.5), lp) == pytest.approx(0.25)

    @pytest.mark.parametrize("mass", [1e6, 1e8])
    def test_beta_pair_couples_at_large_mass(self, mass):
        # ordered at every mass; the raw totals differ by rounding, which an
        # absolute tolerance on the raw pair read as a violation at x = 0
        lm = measure_from_beta_density(2, 5, mass=mass)
        lp = measure_from_beta_density(2, 3, mass=mass)
        c = coupling_from_pair(lm, lp)
        assert c.total_mass == pytest.approx(mass, rel=1e-14)
        assert marginal_mismatch(c, lm, lp) < 1e-12 * mass

    @pytest.mark.parametrize("k", [1e-6, 1e4, 1e8])
    def test_scale_invariant(self, k):
        # the order is judged at unit mass, so scaling the pair scales the
        # coupling, atom by atom; an atom's mass is a difference of cumulative
        # masses, so its rounding is relative to the total
        rng = np.random.default_rng(5)
        pairs = [*(random_ordered_pair(rng) for _ in range(100)), *split_pairs(rng, 100)]
        for lm, lp in pairs:
            got = coupling_from_pair(lm.scaled(k), lp.scaled(k))
            want = coupling_from_pair(lm, lp).scaled(k)
            for field, total in (("ys", 1.0), ("zs", 1.0), ("masses", want.total_mass)):
                np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                           rtol=0.0, atol=1e-14 * total)


class TestIntegration:
    def test_constant(self):
        c = CoupledMeasure.from_atoms([(0.5, 0.25, 1.0)])
        assert c.integrate(lambda y, z: np.ones_like(y)) == 1.0

    def test_gap_mean_two_ways(self, example_pair, example_coupling):
        lm, lp = example_pair
        direct = example_coupling.integrate(lambda y, z: z)
        via_marginals = lp.mean() - lm.mean()
        assert direct == pytest.approx(3 / 8, abs=1e-15)
        assert direct == pytest.approx(via_marginals, abs=1e-12)

    def test_size_biased_mass(self):
        c = CoupledMeasure.from_atoms([(0.5, 0.25, 1.0)])
        assert c.integrate(lambda y, z: y**2 + z) == pytest.approx(0.5)

    def test_marginal_identity_polynomials(self):
        # coupling integrals of f(y) and f(y+z) recover the pair's integrals
        # for all monomials up to degree 8 (f(0) = 0 holds for monomials,
        # which covers the compensating atom at zero for finite pairs)
        rng = np.random.default_rng(3)
        for _ in range(100):
            total = float(rng.uniform(0.5, 2.0))
            lm, lp = random_ordered_pair(rng, total_mass=1.0)
            lm = lm.scaled(rng.uniform(0.3, 1.0))
            lp = lp.scaled(total / lp.total_mass)
            if order_violation_witness(lm, lp) is not None:
                continue
            c = coupling_from_pair(lm, lp)
            for deg in range(1, 9):
                lhs_y = c.integrate(lambda y, z: y**deg)
                lhs_s = c.integrate(lambda y, z: (y + z) ** deg)
                assert lhs_y == pytest.approx(
                    lm.integrate(lambda x: x**deg), abs=1e-12
                )
                assert lhs_s == pytest.approx(
                    lp.integrate(lambda x: x**deg), abs=1e-12
                )


class TestTransportCost:
    def test_example_cost(self, example_coupling):
        assert transport_cost(example_coupling) == pytest.approx(5 / 32, abs=1e-15)

    def test_alternative_coupling_costs_more(self):
        alt = CoupledMeasure.from_atoms(
            [(i / 4, (j - i) / 4, 1 / 6) for i in (1, 2) for j in (2, 3, 4)]
        )
        assert transport_cost(alt) == pytest.approx(19 / 96, abs=1e-15)
        assert 5 / 32 < 19 / 96

    def test_zero_gap_costs_nothing(self, neutral_coupling):
        assert transport_cost(neutral_coupling) == 0.0

    def test_gap_mean_is_coupling_invariant(self, example_pair, example_coupling):
        alt = CoupledMeasure.from_atoms(
            [(i / 4, (j - i) / 4, 1 / 6) for i in (1, 2) for j in (2, 3, 4)]
        )
        assert example_coupling.selective_mass() == pytest.approx(
            alt.selective_mass(), abs=1e-12
        )

    def test_vertices_match_the_per_support_solves(self):
        # fixed pairs of up to 12 cells (a 6 x 3 plan has 43758 supports,
        # about a second of lstsq calls each), and two with tied masses,
        # whose rank-deficient supports solve consistently too
        rng = np.random.default_rng(17)
        pairs = [(np.array([0.25, 0.25, 0.5]), np.array([0.5, 0.5])),
                 (np.array([0.5, 0.5]), np.array([0.5, 0.5]))]
        while len(pairs) < 30:
            lm, lp = random_ordered_pair(rng, max_atoms=3)
            if len(lm) * len(lp) <= 12:
                pairs.append((lm.masses, lp.masses))
        assert {(len(p), len(q)) for p, q in pairs} >= {(2, 2), (3, 2), (4, 3), (3, 3)}
        for p, q in pairs:
            got, want = transport_vertices(p, q), reference_transport_vertices(p, q)
            assert len(got) == len(want) > 0
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-13

    def test_quantile_coupling_minimizes_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            lm, lp = random_ordered_pair(rng, max_atoms=3)
            c = quantile_coupling(lm, lp)
            best = transport_cost(c)
            for gamma in transport_vertices(lm.masses, lp.masses):
                assert best <= plan_cost(gamma, lm.locations, lp.locations) + 1e-12


class TestCoupledMeasureInvariants:
    def test_simplex_violation_rejected(self):
        with pytest.raises(ValueError):
            CoupledMeasure.from_atoms([(0.9, 0.3, 1.0)])
        with pytest.raises(ValueError):
            CoupledMeasure.from_atoms([(-0.1, 0.3, 1.0)])

    @pytest.mark.parametrize("atom, name", [
        ((np.nan, 0.1, 1.0), "y coordinates"),
        ((0.1, np.nan, 1.0), "z coordinates"),
        ((0.1, 0.1, np.nan), "atom masses"),
        ((0.1, 0.1, np.inf), "atom masses"),
    ])
    def test_nonfinite_rejected(self, atom, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CoupledMeasure.from_atoms([(0.2, 0.2, 1.0), atom])

    def test_roundoff_off_the_simplex_is_clamped(self):
        # z is clamped to 1 - y, so y + z is a probability: the Moran kernel
        # draws a binomial at y + z, which numpy refuses above 1
        c = CoupledMeasure.from_atoms([(0.6, 0.4 + 5e-13, 1.0)])
        assert c.zs[0] == 1.0 - c.ys[0]
        assert c.ys[0] + c.zs[0] <= 1.0
        cfg = moran.MoranConfig(N=10, coupling=c, initial_count=5)
        assert moran.simulate_final_counts(cfg, 1.0, 20, seed=0).shape == (20,)

    @pytest.mark.parametrize("k", [1e-6, 1e4, 1e8])
    def test_dust_is_a_share_of_the_total(self, k):
        # the total before dropping holds the stripped (0, 0) atom: 5e-16 of
        # it is dust at every total mass, and 2e-13 of it is kept
        atoms = [
            (0.2, 0.3, 0.3), (0.5, 0.5, 0.4 - 2e-13), (0.1, 0.0, 2e-13), (0.7, 0.1, 5e-16),
            (0.0, 0.0, 0.3),
        ]
        unit = CoupledMeasure.from_atoms(atoms)
        scaled = CoupledMeasure.from_atoms((y, z, k * m) for y, z, m in atoms)
        assert list(zip(unit.ys.tolist(), unit.zs.tolist())) == [(0.1, 0.0), (0.2, 0.3), (0.5, 0.5)]
        assert np.array_equal(scaled.ys, unit.ys) and np.array_equal(scaled.zs, unit.zs)
        np.testing.assert_allclose(scaled.masses, k * unit.masses, rtol=1e-15, atol=0.0)

    def test_origin_atoms_stripped(self):
        c = CoupledMeasure.from_atoms([(0.0, 0.0, 0.4), (0.5, 0.1, 0.6)])
        assert len(c) == 1
        assert c.total_mass == pytest.approx(0.6)

    def test_duplicate_atoms_merge(self):
        c = CoupledMeasure.from_atoms([(0.5, 0.1, 0.4), (0.5, 0.1, 0.6)])
        assert len(c) == 1
        assert c.masses[0] == pytest.approx(1.0)


class TestOverflowingTotal:
    """Both measure types refuse a total mass past the float range where they
    are built, and numpy's overflow warning is not let out."""

    @pytest.mark.parametrize("build", [
        lambda: FiniteMeasure1D.from_atoms([(0.2, 1e308), (0.7, 1e308)]),
        lambda: FiniteMeasure1D.from_atoms([(0.5, 1e308), (0.5, 1e308)]),
        lambda: FiniteMeasure1D.from_atoms([(0.2, 1.0), (0.7, 1.0)]).scaled(1e308),
        lambda: CoupledMeasure.from_atoms([(0.2, 0.1, 1e308), (0.5, 0.3, 1e308)]),
        lambda: CoupledMeasure.from_atoms([(0.2, 0.1, 1e308), (0.2, 0.1, 1e308)]),
        lambda: CoupledMeasure.from_atoms([(0.2, 0.1, 1.0), (0.5, 0.3, 1.0)]).scaled(1e308),
    ], ids=[
        "line_two_atoms", "line_merged_duplicates", "line_scaled",
        "coupling_two_atoms", "coupling_merged_duplicates", "coupling_scaled",
    ])
    def test_refused_without_a_warning(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total mass must be finite"):
                build()

    @pytest.mark.parametrize("measure", [
        FiniteMeasure1D.from_atoms([(0.2, 1e300)]),
        CoupledMeasure.from_atoms([(0.2, 0.1, 1e300)]),
    ], ids=["line", "coupling"])
    def test_scaled_mass_overflow_refused_without_a_warning(self, measure):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="atom masses must be finite"):
                measure.scaled(1e10)

    def test_largest_finite_total_is_kept(self):
        m = FiniteMeasure1D.from_atoms([(0.2, 1e308), (0.7, 7e307)])
        assert m.total_mass == 1e308 + 7e307
        assert not m.masses.flags.writeable


class TestAtomSampler:
    """``sample_atoms`` against the ``rng.choice`` call it replaced."""

    @staticmethod
    def assert_same_draws(c, size, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = c.sample_atoms(rng, size)
        ref = ref_rng.choice(len(c), size=size, p=c.masses / c.total_mass)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("size", [0, 1, 7, 10_000])
    def test_random_couplings(self, size):
        rng = np.random.default_rng(40)
        for seed in range(25):
            self.assert_same_draws(random_coupling(rng, max_atoms=6), size, seed)

    @pytest.mark.parametrize("size", [0, 1, 500])
    def test_one_atom(self, size):
        c = CoupledMeasure.from_atoms([(0.3, 0.2, 2.5)])
        self.assert_same_draws(c, size, 41)
        assert not c.sample_atoms(np.random.default_rng(41), size).any()

    def test_counting_on_the_edges(self):
        # uniforms exactly on each CDF edge, just below it, and 0.0, repeated
        # until the draw takes the counting route
        c = CoupledMeasure.from_atoms([(0.1, 0.2, 0.3), (0.4, 0.1, 1.7), (0.6, 0.3, 0.2),
                                       (0.2, 0.5, 0.9), (0.7, 0.0, 0.4)])
        cdf = c._atom_cdf
        edges = cdf[:-1]
        values = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0)])
        n = measures.COUNTED_DRAWS_PER_EDGE * len(edges)
        u = np.resize(values, n)
        got = c.sample_atoms(FixedUniforms(u), n)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))
        assert got.dtype == np.intp
        # each edge moves its own uniforms one atom up, and not those below it
        assert np.array_equal(got[1: len(edges) + 1], np.arange(1, len(edges) + 1))
        assert np.array_equal(got[len(edges) + 1: 2 * len(edges) + 1], np.arange(len(edges)))

    @pytest.mark.parametrize("atoms", [measures.COUNTED_ATOMS, measures.COUNTED_ATOMS + 1])
    def test_many_atoms_at_both_routes(self, atoms):
        # at the most atoms counted (the counts fill uint8 up to 127) and
        # one past it, where the draw is a binary search again
        rng = np.random.default_rng(43)
        ys = rng.uniform(0.0, 0.5, atoms)
        c = CoupledMeasure.from_atoms(zip(ys, ys / 2, rng.uniform(0.1, 1.0, atoms)))
        assert len(c) == atoms
        self.assert_same_draws(c, measures.COUNTED_DRAWS_PER_EDGE * atoms, 44)

    def test_scalar_draw_is_one_binary_search(self):
        c = CoupledMeasure.from_atoms([(0.3, 0.2, 1.0), (0.5, 0.1, 2.0)])
        rng, ref_rng = np.random.default_rng(45), np.random.default_rng(45)
        got = c.sample_atoms(rng, ())
        assert isinstance(got, np.int64)
        assert got == c._atom_cdf.searchsorted(ref_rng.random(()), side="right")
        assert rng.random() == ref_rng.random()

    def test_one_draw_is_a_python_int(self):
        # size=None: one uniform, one bisect_right, a Python int
        c = CoupledMeasure.from_atoms([(0.3, 0.2, 1.0), (0.5, 0.1, 2.0), (0.1, 0.0, 0.5)])
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = c.sample_atoms(rng, None)
            assert type(got) is int
            assert got == c._atom_cdf.searchsorted(ref_rng.random(), side="right")
            assert rng.random() == ref_rng.random()

    def test_one_uniform_on_the_edges(self):
        # a Python float exactly on each edge, just below it, and 0.0
        cdf = CoupledMeasure.from_atoms([(0.1, 0.2, 0.3), (0.4, 0.1, 1.7), (0.6, 0.3, 0.2)])._atom_cdf
        for u in [0.0, *cdf[:-1].tolist(), *np.nextafter(cdf[:-1], 0.0).tolist()]:
            got = measures.invert_cdf(cdf, u)
            assert type(got) is int and got == cdf.searchsorted(u, side="right")

    def test_empty_coupling_draws_nothing_at_size_zero(self):
        rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
        got = CoupledMeasure.from_atoms([]).sample_atoms(rng, 0)
        assert got.shape == (0,) and got.dtype == np.int64
        assert rng.random() == ref_rng.random()
