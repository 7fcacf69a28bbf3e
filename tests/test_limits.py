import re

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp, poisson

from helpers import (
    digest,
    merged_chisquare_pvalue,
    reference_chain_chunk,
    reference_ks_counted,
    reference_pooled_ranks,
)
from lambda_asg import limits, moran
from lambda_asg.errors import NotConverged, SizeLimit, StateCapReached
from lambda_asg.limits import (
    BOOTSTRAP_BLOCK,
    TruncationScheme,
    _chain_chunk,
    _merged_counts,
    chain_final_states,
    convergence_study,
    frequency_generator,
    ks_bootstrap_stderr,
    ks_distance,
    limit_chain_rates,
    sde_absorption,
    sde_final_values,
    sde_replicates,
    simulate_limit_chain,
    simulate_sde,
    truncate_measure,
)
from lambda_asg.measures import CoupledMeasure
from lambda_asg.moran import MAX_DENSE_N
from lambda_asg.rates import AncestorChain

STAIRCASE = CoupledMeasure.from_atoms([
    (0.46, 0.02, 0.45), (0.40, 0.02, 0.45), (0.35, 0.015, 0.40),
    (0.31, 0.015, 0.40), (0.27, 0.01, 0.30),
])


class TestSdeArguments:
    def test_validation(self, example_coupling):
        for sde in (
            lambda x0, horizon: simulate_sde(example_coupling, x0, horizon, seed=1),
            lambda x0, horizon: sde_replicates(example_coupling, x0, horizon, 2, 1, 1),
        ):
            with pytest.raises(ValueError):
                sde(1.4, 1.0)
            with pytest.raises(ValueError):
                sde(0.5, -1.0)

    @pytest.mark.parametrize("x0", [-0.5, 1.5])
    def test_batched_routines_check_x0(self, example_coupling, x0):
        message = rf"x0 must lie in \[0, 1\], got {x0}"
        with pytest.raises(ValueError, match=message):
            sde_final_values(example_coupling, x0, 1.0, 10, seed=1)
        with pytest.raises(ValueError, match=message):
            sde_replicates(example_coupling, x0, 1.0, 10, 1, 1)
        with pytest.raises(ValueError, match=message):
            sde_absorption(example_coupling, x0, 10, seed=1)


class TestSdePaths:
    def test_absorbing_starts_stay_fixed(self, example_coupling):
        for x0 in (0.0, 1.0):
            path = simulate_sde(example_coupling, x0, 5.0, seed=1)
            assert len(path) == 1
            assert path.final == x0

    def test_stays_in_unit_interval(self, example_coupling):
        for seed in range(20):
            path = simulate_sde(example_coupling, 0.5, 20.0, seed=seed)
            assert path.values.min() >= 0.0
            assert path.values.max() <= 1.0

    def test_deterministic(self, example_coupling):
        a = simulate_sde(example_coupling, 0.5, 5.0, seed=3)
        b = simulate_sde(example_coupling, 0.5, 5.0, seed=3)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    def test_monotone_flow_in_initial_value(self):
        # same stream, ordered starts: no atom reaches a boundary, so the
        # two paths consume identical event draws and stay ordered
        gentle = CoupledMeasure.from_atoms([(0.3, 0.1, 1.0), (0.5, 0.2, 0.5)])
        grid = np.linspace(0.0, 8.0, 30)
        for seed in range(10):
            lo = simulate_sde(gentle, 0.3, 8.0, seed=seed)
            hi = simulate_sde(gentle, 0.6, 8.0, seed=seed)
            assert len(lo) == len(hi)
            for t in grid:
                assert lo.value_at(t) <= hi.value_at(t) + 1e-12

    def test_neutral_martingale_mean(self, neutral_coupling):
        x0 = 0.4
        finals = sde_final_values(neutral_coupling, x0, 2.0, 100_000, seed=5)
        se = finals.std(ddof=1) / np.sqrt(len(finals))
        assert abs(finals.mean() - x0) < 3 * se

    def test_selection_pushes_mean_down(self, example_coupling):
        x0 = 0.5
        finals = sde_final_values(example_coupling, x0, 2.0, 100_000, seed=6)
        se = finals.std(ddof=1) / np.sqrt(len(finals))
        assert finals.mean() < x0 - 3 * se

    def test_absorption_probabilities_sane(self, mild_selective_coupling):
        hit_top = sde_absorption(mild_selective_coupling, 0.5, 20_000, seed=7)
        p = hit_top.mean()
        # selection disfavors the tracked type: below the neutral value 0.5
        assert 0.0 < p < 0.5

    def test_absorption_on_the_last_allowed_event(self, monkeypatch):
        # y = 1: every event moves the path to 0 or 1
        monkeypatch.setattr(limits, "ABSORPTION_MAX_EVENTS", 1)
        sweep = CoupledMeasure.from_atoms([(1.0, 0.0, 1.0)])
        hit_top = sde_absorption(sweep, 0.5, 1000, seed=7)
        assert 0.4 < hit_top.mean() < 0.6

    def test_absorption_budget_exhausted(self, monkeypatch):
        # y < 1 and z = 0: jumps only shrink the distance to a boundary
        monkeypatch.setattr(limits, "ABSORPTION_MAX_EVENTS", 5)
        message = "after 5 events; raise limits.ABSORPTION_MAX_EVENTS"
        with pytest.raises(NotConverged, match=message):
            sde_absorption(CoupledMeasure.from_atoms([(0.3, 0.0, 1.0)]), 0.5, 100, seed=7)

    @pytest.mark.parametrize("seed, expected", [
        (4, "ef2500f4e0cc2e86daab037d193d020886840ed3dbe1ba82d0f3b751c6ce99f6"),
        (5, "c0a29548b840e8c1e6663f4146c7888f30e2f4c09a8f26c432d14e4932db0461"),
    ], ids=["4", "5"])
    def test_path_draws_pinned(self, mild_selective_coupling, seed, expected):
        path = simulate_sde(mild_selective_coupling, 0.4, 5.0, seed=seed)
        assert digest(path.times, path.values) == expected

    def test_recorded_event_times_are_a_poisson_process(self, mild_selective_coupling):
        # every event moves an interior value, so each path records all of
        # its events: a Poisson count, at uniform times given the count
        c, horizon, replicates = mild_selective_coupling, 1.5, 4000
        finals, paths = sde_replicates(c, 0.4, horizon, replicates, 17, replicates)
        assert [p.final for p in paths] == finals.tolist()
        counts = np.array([len(p) - 1 for p in paths])
        mean = c.total_mass * horizon
        values, observed = np.unique(counts, return_counts=True)
        top = int(values.max()) + 1
        probs = {k: poisson.pmf(k, mean) for k in range(top)}
        probs[top] = poisson.sf(top - 1, mean)
        assert merged_chisquare_pvalue(
            dict(zip(values.tolist(), observed.tolist())), probs, replicates
        ) > 1e-3
        times = np.concatenate([p.times[1:] for p in paths])
        assert kstest(times / horizon, "uniform").pvalue > 1e-3

    def test_batched_draws_pinned(self, example_coupling, mild_selective_coupling):
        # 70 000 replicates span two chunks
        finals = sde_final_values(example_coupling, 0.4, 2.0, 70_000, seed=8)
        assert digest(finals) == (
            "c5edc90b781c053f9bc4219e1f438194e39b103f2b9ca6baaafcd23968339959"
        )
        hit_top = sde_absorption(mild_selective_coupling, 0.5, 5000, seed=8)
        assert digest(hit_top) == (
            "7ae626939908fc93a8789e183938abe561a50fdfe580d8d482229d0c12fca3c0"
        )
        states = chain_final_states(example_coupling, 3, 1.0, 70_000, seed=8)
        assert digest(states) == (
            "d24b35f7e6574e0288f79f974452791e81141d6b74e9414f2e2c6f22c0c68839"
        )


class TestSdeEvents:
    @pytest.mark.parametrize("atoms", [
        [(0.3, 0.1, 1.0), (0.6, 0.2, 0.5)],
        [(0.0, 0.5, 0.7), (1.0, 0.0, 0.2), (0.25, 0.75, 0.4)],  # y = 0, y = 1, y + z = 1
    ], ids=["mild", "edges"])
    def test_matches_the_scalar_rule_on_the_same_draws(self, atoms):
        # an atom per value, then a uniform per value; the reference reads
        # them from a copy of the generator and applies the rule one value
        # at a time: up by y (1 - v) if u < v, else down by (y + z) v
        c = CoupledMeasure.from_atoms(atoms)
        vals = np.random.default_rng(45).random(3000)
        vals[:3] = 0.0, 1.0, 0.5
        rng, ref_rng = np.random.default_rng(46), np.random.default_rng(46)
        got = limits._sde_events(vals, c, rng)
        a, u = c.sample_atoms(ref_rng, len(vals)), ref_rng.random(len(vals))
        ref = [
            v + c.ys[k] * (1.0 - v) if w < v else v - (c.ys[k] + c.zs[k]) * v
            for v, k, w in zip(vals.tolist(), a.tolist(), u.tolist())
        ]
        assert got.tolist() == ref
        assert rng.random() == ref_rng.random()


class TestFrequencyGenerator:
    def test_identity_loses_the_selective_drift(self, example_coupling, mild_selective_coupling):
        # x -> x: the neutral jumps cancel and only -x (1 - x) z is left
        xs = np.linspace(0.0, 1.0, 41)
        for coupling in (example_coupling, mild_selective_coupling):
            drift = frequency_generator(coupling, lambda v: v, xs)
            expected = -xs * (1.0 - xs) * coupling.selective_mass()
            assert np.allclose(drift, expected, rtol=0.0, atol=1e-15)


class TestTruncation:
    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            TruncationScheme(alpha=0.6, N=100)
        with pytest.raises(ValueError):
            TruncationScheme(alpha=0.2, N=0)

    def test_untouched_when_atoms_large(self, example_coupling):
        # all atoms have y >= 1/4 and 1/4^2 > 2000^-0.4 = 0.0478
        out = truncate_measure(example_coupling, TruncationScheme(alpha=0.4, N=2000))
        assert len(out) == len(example_coupling)
        assert out.total_mass == pytest.approx(example_coupling.total_mass)

    def test_pure_selective_atom_always_removed(self):
        # y = 0 fails y^2 > N^-alpha at every level; y = 0.5 survives once
        # N^-0.4 < 0.25, i.e. N > 32
        c = CoupledMeasure.from_atoms([(0.0, 0.5, 1.0), (0.5, 0.1, 1.0)])
        for N in (100, 1000, 10_000):
            with pytest.warns(UserWarning, match="y = 0"):
                out = truncate_measure(c, TruncationScheme(alpha=0.4, N=N))
            assert len(out) == 1
            assert out.ys[0] == 0.5

    def test_truncated_mass_bound(self):
        # kept mass is at most N^alpha times the size-biased integral
        from lambda_asg.measures import measure_from_beta_density, coupling_from_pair

        base = measure_from_beta_density(0.7, 1.5, grid=128, mass=4.0)
        coupling = coupling_from_pair(base, base)
        moment = coupling.integrate(lambda y, z: y * y + z)
        for N in (10, 100, 1000):
            scheme = TruncationScheme(alpha=0.4, N=N)
            kept = truncate_measure(coupling, scheme)
            assert kept.total_mass <= N**scheme.alpha * moment + 1e-9

    def test_keeps_exactly_the_atoms_above_the_threshold(self):
        # 256^-0.25 = 0.25 = 0.5^2 exactly: the atom at y = 0.5 sits on the
        # threshold and is dropped, its float neighbours fall either side,
        # and y = 0.3 passes y > 0.25 but not y^2 > 0.25
        scheme = TruncationScheme(alpha=0.25, N=256)
        assert scheme.N ** -scheme.alpha == 0.25 == 0.5 * 0.5
        below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
        atoms = [(0.5, 0.1, 1.0), (below, 0.2, 2.0), (above, 0.3, 3.0),
                 (0.3, 0.1, 4.0), (0.9, 0.05, 5.0), (0.1, 0.4, 6.0)]
        out = truncate_measure(CoupledMeasure.from_atoms(atoms), scheme)
        kept = sorted(zip(out.ys.tolist(), out.zs.tolist(), out.masses.tolist()))
        assert kept == [(above, 0.3, 3.0), (0.9, 0.05, 5.0)]

    def test_staircase_masses_increase(self):
        masses = [
            truncate_measure(STAIRCASE, TruncationScheme(alpha=0.4, N=n)).total_mass
            for n in (50, 100, 200, 400, 800)
        ]
        assert masses == sorted(masses)
        assert masses[-1] == pytest.approx(STAIRCASE.total_mass)


class TestLimitChain:
    def test_single_line_branch_rate_is_gap_mass(self, example_coupling):
        _, branch = limit_chain_rates(example_coupling, 1)
        assert branch == pytest.approx(example_coupling.selective_mass(), abs=1e-14)

    def test_quarter_atom(self):
        c = CoupledMeasure.from_atoms([(0.25, 0.25, 1.0)])
        _, branch = limit_chain_rates(c, 1)
        assert branch == pytest.approx(0.25)

    def test_neutral_never_branches(self, neutral_coupling):
        for m in range(1, 40):
            _, branch = limit_chain_rates(neutral_coupling, m)
            assert branch == 0.0

    def test_branch_rate_bounds(self, example_coupling):
        gap = example_coupling.selective_mass()
        for m in range(1, 60):
            _, branch = limit_chain_rates(example_coupling, m)
            assert 0.0 <= branch <= m * gap + 1e-12

    def test_neutral_chain_nonincreasing(self, neutral_coupling):
        path = simulate_limit_chain(neutral_coupling, 5, horizon=100.0, seed=8)
        assert np.all(np.diff(path.values) < 0)
        assert path.final == 1

    def test_transition_law_chisquare(self, example_coupling):
        m0 = 5
        coalesce, branch = limit_chain_rates(example_coupling, m0)
        total = coalesce.sum() + branch
        probs = {m0 - k: coalesce[k] / total for k in range(1, m0)}
        probs[m0 + 1] = branch / total
        horizon = 5.0 / total
        observed: dict[int, int] = {}
        count = 0
        for seed in range(30_000):
            path = simulate_limit_chain(example_coupling, m0, horizon, seed=seed)
            if len(path) > 1:
                first = int(path.values[1])
                observed[first] = observed.get(first, 0) + 1
                count += 1
        assert count > 25_000
        assert merged_chisquare_pvalue(observed, probs, count) > 1e-3

    def test_batch_matches_path_distribution(self, example_coupling):
        n0, T = 3, 1.0
        batch = chain_final_states(example_coupling, n0, T, 20_000, seed=9)
        single = np.array([
            simulate_limit_chain(example_coupling, n0, T, seed=s).final
            for s in range(4000)
        ])
        hi = max(batch.max(), single.max())
        table = np.array([
            np.bincount(batch, minlength=hi + 1),
            np.bincount(single, minlength=hi + 1),
        ])
        table = table[:, table.sum(axis=0) > 4]
        from scipy.stats import chi2_contingency

        assert chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_batch_refuses_nonpositive_horizon(self, example_coupling, horizon):
        with pytest.raises(ValueError, match="horizon must be positive"):
            chain_final_states(example_coupling, 3, horizon, 4, seed=1)

    def test_tight_occupation_for_weak_selection(self):
        weak = CoupledMeasure.from_atoms([(0.4, 0.02, 1.0)])
        finals = chain_final_states(weak, 4, 20.0, 10_000, seed=10)
        assert np.quantile(finals, 0.99) <= 12

    @pytest.mark.parametrize("horizon, atoms", [
        (float("nan"), [(1e-6, 0.5, 50.0)]),
        (float("inf"), [(1e-6, 0.5, 50.0)]),
        (float("inf"), [(0.3, 0.0, 1.0)]),
    ])
    def test_batch_refuses_nonfinite_horizon(self, horizon, atoms, monkeypatch):
        # unchecked, a nan horizon ends every path at once, at n0; an
        # infinite one lets a branching count run up to the dense limit,
        # made small here so that it fails fast, and keeps the absorbed
        # count 1 of a neutral coupling, whose clock is then inf, stepping
        # 1 -> 2 -> 1 for ever
        monkeypatch.setattr(limits, "MAX_DENSE_N", 50)
        coupling = CoupledMeasure.from_atoms(atoms)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            chain_final_states(coupling, 2, horizon, 5, seed=1)

    def test_path_refuses_a_start_above_the_cap(self, monkeypatch, example_coupling):
        monkeypatch.setattr(limits, "PATH_STATE_CAP", 2)
        with pytest.raises(StateCapReached, match=r"exceeded cap 2 \(limits.PATH_STATE_CAP\)"):
            simulate_limit_chain(example_coupling, 5, 0.01, seed=1)

    def test_state_cap(self, monkeypatch):
        # y near zero kills coalescence, so the count is close to a pure
        # birth process at the total mass rate and must hit the cap
        monkeypatch.setattr(limits, "PATH_STATE_CAP", 200)
        explosive = CoupledMeasure.from_atoms([(1e-6, 0.5, 50.0)])
        with pytest.raises(StateCapReached):
            simulate_limit_chain(explosive, 10, 50.0, seed=11)

    def test_the_table_stops_at_the_dense_limit(self):
        # a pure branching count from 1990 reaches MAX_DENSE_N within a few
        # events; its next step would need a table past the dense limit
        coupling = CoupledMeasure.from_atoms([(0.0, 0.9, 50.0), (0.5, 0.0, 0.01)])
        message = f"ancestor count {MAX_DENSE_N} by horizon 100 needs a rate table"
        with pytest.raises(SizeLimit, match=re.escape(message) + ".*simulate_limit_chain"):
            chain_final_states(coupling, MAX_DENSE_N - 10, 100.0, 4, seed=1)

    def test_the_table_cap_is_exact(self, monkeypatch):
        # with the dense limit at 40, counts up to 39 run on a table of
        # states 0..40, and a count of 40 is refused whether it is n0 or reached
        sizes = []

        class Recorded(limits.AncestorChain):
            def grow(self, size):
                sizes.append(size)
                super().grow(size)

        monkeypatch.setattr(limits, "MAX_DENSE_N", 40)
        monkeypatch.setattr(limits, "AncestorChain", Recorded)
        branching = CoupledMeasure.from_atoms([(0.0, 1.0, 5.0)])
        assert chain_final_states(branching, 39, 1e-9, 4, seed=1).tolist() == [39] * 4
        assert sizes == [40]
        for n0, horizon in ((40, 1e-9), (30, 10.0)):
            sizes.clear()
            with pytest.raises(SizeLimit, match=f"^ancestor count 40 by horizon {horizon:g} "):
                chain_final_states(branching, n0, horizon, 4, seed=1)
            assert max(sizes) == 40


MOMENT_COUPLING = CoupledMeasure.from_atoms([(0.3, 0.1, 1.0), (0.6, 0.2, 0.5)])


class _EdgeUniforms:
    """A generator whose exponentials come from ``rng`` and whose uniforms
    cycle through ``values``, for both the ``size=`` and the ``out=`` forms;
    ``drawn`` counts the uniforms."""

    def __init__(self, rng, values):
        self.rng, self.values, self.drawn = rng, np.asarray(values), 0

    def exponential(self, scale=1.0, size=None):
        return self.rng.exponential(scale, size=size)

    def standard_exponential(self, size=None, out=None):
        return self.rng.standard_exponential(size=size, out=out)

    def random(self, size=None, out=None):
        n = len(out) if out is not None else size
        at = (self.drawn + np.arange(n)) % len(self.values)
        self.drawn += n
        if out is None:
            return self.values[at]
        out[:] = self.values[at]
        return out


class TestCompactedChain:
    """The live-set chain steps against the full-mask reference: the same
    states, the same table growth and the same draws from the stream."""

    @staticmethod
    def _both(coupling, n0, horizon, n_paths):
        runs = []
        for chunk in (_chain_chunk, reference_chain_chunk):
            table = AncestorChain(coupling, max(n0 + 8, 16))
            rng = np.random.default_rng(21)
            runs.append((chunk(table, n0, horizon, n_paths, rng),
                         len(table.total), rng.random()))
        return runs

    @pytest.mark.parametrize("n0, horizon", [(1, 0.5), (2, 1.0), (3, 1.0), (3, 0.5)])
    def test_moment_settings(self, n0, horizon):
        (a, size_a, next_a), (b, size_b, next_b) = self._both(
            MOMENT_COUPLING, n0, horizon, 20_000
        )
        assert np.array_equal(a, b)
        assert (size_a, next_a) == (size_b, next_b)

    def test_table_grows_mid_chunk(self):
        branching = CoupledMeasure.from_atoms([(0.05, 0.5, 3.0), (0.3, 0.1, 0.5)])
        (a, size_a, next_a), (b, size_b, next_b) = self._both(branching, 8, 1.5, 20_000)
        assert size_a > 17
        assert np.array_equal(a, b)
        assert (size_a, next_a) == (size_b, next_b)

    def test_no_selective_gap(self):
        # no atom has z > 0, so the branch entry of every row is 0 and a
        # single line has total rate 0: it never jumps again
        neutral = CoupledMeasure.from_atoms([(0.3, 0.0, 1.0), (0.6, 0.0, 0.5)])
        assert AncestorChain(neutral, 16).total[1] == 0.0
        (a, size_a, next_a), (b, size_b, next_b) = self._both(neutral, 5, 2.0, 20_000)
        assert np.array_equal(a, b)
        assert (a == 1).any() and (a <= 5).all()
        assert (size_a, next_a) == (size_b, next_b)

    def test_uniforms_on_the_window_edges(self):
        # uniforms of exactly 0.0 and exactly each window entry below 1 of
        # states 1..7: the counted target must equal the reference's
        # full-row count on each
        coupling = CoupledMeasure.from_atoms([(0.2, 0.3, 1.0), (0.5, 0.1, 0.7), (0.7, 0.2, 0.4)])
        window = AncestorChain(coupling, 16).window
        edges = [0.0] + [float(e) for j in range(6) for e in window[j, j + 1: 8] if e < 1.0]
        runs = []
        for chunk in (_chain_chunk, reference_chain_chunk):
            table = AncestorChain(coupling, 16)
            rng = _EdgeUniforms(np.random.default_rng(23), edges)
            runs.append((chunk(table, 4, 1.0, 5000, rng), rng.drawn, len(table.total)))
        (a, drawn_a, size_a), (b, drawn_b, size_b) = runs
        assert np.array_equal(a, b)
        assert (drawn_a, size_a) == (drawn_b, size_b)
        assert drawn_a > len(edges)


class TestKs:
    def test_matches_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.normal(size=400)
            b = rng.normal(0.2, 1.0, size=300)
            assert ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    def test_handles_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.integers(0, 6, 300) / 5.0
            b = rng.integers(0, 6, 250) / 5.0
            assert ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    def test_bootstrap_stderr_positive(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=500)
        b = rng.normal(size=500)
        se = ks_bootstrap_stderr(a, b, 100, np.random.default_rng(0))
        assert 0.0 < se < 0.1


def _sorted_ks_distance(a, b):
    """The sort-based KS statistic the counting version replaced."""
    data = np.concatenate([a, b])
    order = np.argsort(data, kind="mergesort")
    steps = np.where(order < len(a), 1.0 / len(a), -1.0 / len(b))
    cum = np.cumsum(steps)
    sorted_data = data[order]
    boundary = np.append(sorted_data[1:] != sorted_data[:-1], True)
    return float(np.abs(cum[boundary]).max())


def _sorted_ks_bootstrap_stderr(a, b, resamples, rng):
    stats = np.empty(resamples)
    for r in range(resamples):
        ra = a[rng.integers(0, len(a), len(a))]
        rb = b[rng.integers(0, len(b), len(b))]
        stats[r] = _sorted_ks_distance(ra, rb)
    return float(stats.std(ddof=1))


def _ks_cases():
    rng = np.random.default_rng(21)
    x = rng.random(300)
    return {
        # Moran-like frequencies: few distinct values, many ties
        "ties": (rng.binomial(40, 0.5, 500) / 40, rng.binomial(40, 0.45, 400) / 40),
        "continuous": (rng.normal(size=400), rng.normal(0.1, 1.0, size=350)),
        "disjoint": (rng.random(200), 2.0 + rng.random(150)),
        "identical": (x, x.copy()),
        "single_vs_single": (np.array([0.3]), np.array([0.7])),
        "single_vs_many": (np.array([0.5]), rng.random(60)),
    }


class TestKsCounting:
    @pytest.mark.parametrize("case", list(_ks_cases()))
    def test_distance_matches_sorted_reference(self, case):
        a, b = _ks_cases()[case]
        assert ks_distance(a, b) == pytest.approx(_sorted_ks_distance(a, b), abs=1e-12)

    def test_exact_values_at_the_extremes(self):
        cases = _ks_cases()
        assert ks_distance(*cases["disjoint"]) == 1.0
        assert ks_distance(*cases["identical"]) == 0.0

    def test_merged_bins_match_per_value_counting(self):
        rng = np.random.default_rng(23)
        cases = list(_ks_cases().values())
        for i in range(600):
            na, nb = (int(n) for n in rng.integers(1, 401, 2))
            if i % 3 == 0:
                grid = int(rng.integers(1, 40))
                a, b = rng.integers(0, grid + 1, na) / grid, rng.integers(0, grid + 1, nb) / grid
            elif i % 3 == 1:
                a, b = rng.normal(size=na), rng.normal(rng.normal(0.0, 0.5), 1.0, size=nb)
            else:
                a = rng.integers(-5, 6, na).astype(float)
                b = rng.integers(int(rng.integers(-8, 3)), 8, nb).astype(float)
            cases.append((a, b))
        for a, b in cases:
            assert ks_distance(a, b) == reference_ks_counted(*reference_pooled_ranks(a, b))

    def test_runs_held_by_one_sample_share_a_bin(self):
        ha, hb = _merged_counts(np.array([1.0, 2.0, 3.0, 5.0]), np.array([4.0, 5.0, 6.0, 7.0]))
        assert ha.tolist() == [3, 0, 1, 0]
        assert hb.tolist() == [0, 1, 1, 2]
        ha, hb = _merged_counts(*_ks_cases()["disjoint"])
        assert (ha.tolist(), hb.tolist()) == ([200, 0], [0, 150])

    @pytest.mark.parametrize("case", ["ties", "continuous"])
    def test_bootstrap_agrees_with_index_resampling(self, case):
        # each 2000-resample sd estimate has about 1.6% sd, so 10% is about
        # 4.5 sd of their difference
        a, b = _ks_cases()[case]
        multinomial = ks_bootstrap_stderr(a, b, 2000, np.random.default_rng(5))
        indexed = _sorted_ks_bootstrap_stderr(a, b, 2000, np.random.default_rng(6))
        assert multinomial == pytest.approx(indexed, rel=0.10)

    @pytest.mark.parametrize("case", list(_ks_cases()))
    def test_bootstrap_matches_sorted_reference_with_the_same_draws(self, case):
        # the documented draws: blocks of BOOTSTRAP_BLOCK multinomial
        # histograms over the merged bins, a's then b's; 130 resamples end on
        # a partial block.  Each resample is scored by sorting its bin labels.
        a, b = _ks_cases()[case]
        resamples = 2 * BOOTSTRAP_BLOCK + 2
        fast_rng, slow_rng = np.random.default_rng(5), np.random.default_rng(5)
        fast = ks_bootstrap_stderr(a, b, resamples, fast_rng)
        ha, hb = _merged_counts(a, b)
        ia, ib = ha.nonzero()[0], hb.nonzero()[0]
        stats = []
        for lo in range(0, resamples, BOOTSTRAP_BLOCK):
            m = min(BOOTSTRAP_BLOCK, resamples - lo)
            draws_a = slow_rng.multinomial(len(a), ha[ia] / len(a), size=m)
            draws_b = slow_rng.multinomial(len(b), hb[ib] / len(b), size=m)
            stats += [
                _sorted_ks_distance(np.repeat(ia, ca), np.repeat(ib, cb))
                for ca, cb in zip(draws_a, draws_b)
            ]
        assert fast == pytest.approx(np.std(stats, ddof=1), rel=1e-10, abs=1e-15)
        # both consumed exactly the same draws
        assert fast_rng.random() == slow_rng.random()

    @pytest.mark.parametrize("resamples", [2, 65, 130])
    def test_a_seed_fixes_the_resamples(self, resamples):
        a, b = _ks_cases()["continuous"]
        rngs = np.random.default_rng(8), np.random.default_rng(8)
        first, second = (ks_bootstrap_stderr(a, b, resamples, r) for r in rngs)
        assert first == second
        assert rngs[0].random() == rngs[1].random()

    @pytest.mark.parametrize("resamples", [0, 1])
    def test_bootstrap_needs_two_resamples(self, resamples):
        a, b = _ks_cases()["continuous"]
        with pytest.raises(ValueError, match=f"resamples must be >= 2, got {resamples}"):
            ks_bootstrap_stderr(a, b, resamples, np.random.default_rng(0))

    def test_convergence_study_ranks_each_level_once(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(len(a))
            return _merged_counts(a, b)

        monkeypatch.setattr(limits, "_merged_counts", counted)
        schemes = [TruncationScheme(alpha=0.4, N=n) for n in (50, 100)]
        convergence_study(STAIRCASE, 0.5, schemes, 1.0, 500, seed=15, bootstrap=5)
        assert calls == [500, 500]

    def test_empty_sample_is_a_value_error(self):
        a = np.random.default_rng(22).random(10)
        with pytest.raises(ValueError, match="non-empty"):
            ks_distance(a, np.array([]))
        with pytest.raises(ValueError, match="non-empty"):
            ks_distance(np.array([]), a)
        with pytest.raises(ValueError, match="non-empty"):
            ks_bootstrap_stderr(np.array([]), a, 10, np.random.default_rng(0))

    def test_nan_is_a_value_error_naming_the_sample(self):
        clean = np.array([0.15, 0.25, 0.3])
        dirty = np.array([0.1, np.nan, 0.2, np.nan])
        with pytest.raises(ValueError, match="sample a holds 2 NaN"):
            ks_distance(dirty, clean)
        with pytest.raises(ValueError, match="sample b holds 2 NaN"):
            ks_distance(clean, dirty)
        with pytest.raises(ValueError, match="sample b holds 2 NaN"):
            ks_bootstrap_stderr(clean, dirty, 10, np.random.default_rng(0))


class TestConvergence:
    def test_reproducible(self):
        schemes = [TruncationScheme(alpha=0.4, N=n) for n in (50, 100)]
        r1 = convergence_study(STAIRCASE, 0.5, schemes, 1.0, 4000, seed=15, bootstrap=50)
        r2 = convergence_study(STAIRCASE, 0.5, schemes, 1.0, 4000, seed=15, bootstrap=50)
        assert r1 == r2

    def test_distances_shrink_with_population(self):
        schemes = [TruncationScheme(alpha=0.4, N=n) for n in (50, 200, 800)]
        rows = convergence_study(STAIRCASE, 0.5, schemes, 2.0, 30_000, seed=16, bootstrap=100)
        ks = [r["ks"] for r in rows]
        assert ks[0] > ks[1] > ks[2]

    def test_starts_each_level_at_the_rounded_count(self, monkeypatch):
        # 0.58 * 50 is 28.999999999999996 and 0.58 * 100 is 57.99999999999999:
        # floor would start the levels at 28 and 57
        starts = []

        def spy(cfg, *args, **kwargs):
            starts.append((cfg.N, cfg.initial_count))
            return moran.simulate_final_counts(cfg, *args, **kwargs)

        monkeypatch.setattr(limits, "simulate_final_counts", spy)
        schemes = [TruncationScheme(alpha=0.4, N=n) for n in (50, 100)]
        convergence_study(STAIRCASE, 0.58, schemes, 0.5, 50, seed=18, bootstrap=2)
        assert starts == [(50, 29), (100, 58)]

    def test_requires_ordered_sizes(self):
        schemes = [TruncationScheme(alpha=0.4, N=n) for n in (100, 50)]
        with pytest.raises(ValueError):
            convergence_study(STAIRCASE, 0.5, schemes, 1.0, 100, seed=17)

    def test_refuses_no_scheme_before_any_draw(self, monkeypatch):
        # with no level the study would draw its whole SDE sample, then return []
        def draw(*args, **kwargs):
            raise AssertionError("the SDE sample was drawn")

        monkeypatch.setattr(limits, "sde_final_values", draw)
        with pytest.raises(ValueError) as info:
            convergence_study(STAIRCASE, 0.5, [], 1.0, 10, 1, 2)
        assert str(info.value) == "schemes must list at least one truncation scheme"

    def test_refuses_one_individual_before_any_draw(self, monkeypatch):
        # a truncation scheme takes N = 1, the Moran model does not; the
        # study would draw its whole SDE sample before the first level refused it
        def draw(*args, **kwargs):
            raise AssertionError("the SDE sample was drawn")

        monkeypatch.setattr(limits, "sde_final_values", draw)
        schemes = [TruncationScheme(alpha=0.4, N=n) for n in (1, 10)]
        with pytest.raises(ValueError) as info:
            convergence_study(STAIRCASE, 0.5, schemes, 1.0, 10, 1, 2)
        assert str(info.value) == "N must be >= 2, got 1"

    def test_refuses_a_repeated_size(self):
        schemes = [TruncationScheme(alpha=0.4, N=n) for n in (10, 20, 20)]
        with pytest.raises(ValueError, match=r"strictly increasing N, got \[10, 20, 20\]"):
            convergence_study(STAIRCASE, 0.5, schemes, 1.0, 100, seed=17)
