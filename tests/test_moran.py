import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import poisson

from helpers import (
    FixedUniforms, digest, merged_chisquare_pvalue, reference_moran_event,
    reference_record_events, reference_rounds,
)
from lambda_asg import asg, duality, limits, measures, moran
from lambda_asg.asg import _ancestor_events
from lambda_asg.errors import SingularSystem, SizeLimit
from lambda_asg.limits import _sde_events
from lambda_asg.measures import CoupledMeasure
from lambda_asg.moran import (
    POISSON_TABLE_MEAN,
    POISSON_TABLE_TAIL,
    MoranConfig,
    _event_counts,
    _event_updates,
    _poisson_cdf,
    _moran_run,
    _rounds,
    absorption_probability,
    generator_matrix,
    initial_count,
    jump_rates,
    record_events,
    simulate,
    simulate_final_counts,
)
from lambda_asg.paths import FrequencyPath
from lambda_asg.rng import TAG_MORAN_PATH, batched, substream

HALF = CoupledMeasure.from_atoms([(0.5, 0.0, 1.0)])
HALF_SEL = CoupledMeasure.from_atoms([(0.5, 0.5, 1.0)])


class TestJumpRates:
    def test_neutral_half_atom(self):
        cfg = MoranConfig(N=4, coupling=HALF, initial_count=2)
        up, down = jump_rates(cfg, 2)
        # disadvantaged reproducer w.p. 1/2, one of two hits at y = 1/2
        assert up[1] == pytest.approx(0.25)
        assert down[1] == pytest.approx(0.25)

    def test_boundary_states_quiet(self):
        cfg = MoranConfig(N=4, coupling=HALF, initial_count=0)
        up, down = jump_rates(cfg, 0)
        assert up.sum() == 0.0 and down.sum() == 0.0
        up, down = jump_rates(cfg, 4)
        assert up.sum() == 0.0 and down.sum() == 0.0

    def test_certain_replacement(self):
        cfg = MoranConfig(N=4, coupling=HALF_SEL, initial_count=2)
        _, down = jump_rates(cfg, 2)
        # y + z = 1 makes both disadvantaged individuals die together
        assert down[2] == pytest.approx(0.5)
        assert down[1] == pytest.approx(0.0)

    def test_total_rate_bounded_by_mass(self, example_coupling):
        cfg = MoranConfig(N=12, coupling=example_coupling, initial_count=5)
        up, down = jump_rates(cfg, 5)
        assert up.sum() + down.sum() <= example_coupling.total_mass + 1e-12


class TestGeneratorMatrix:
    def test_rows_sum_to_zero(self, example_coupling):
        Q = generator_matrix(MoranConfig(N=12, coupling=example_coupling, initial_count=0))
        assert np.abs(Q.sum(axis=1)).max() < 1e-10

    def test_matches_jump_rates(self):
        Q = generator_matrix(MoranConfig(N=4, coupling=HALF, initial_count=0))
        assert Q[2, 3] == pytest.approx(0.25)

    def test_absorbing_rows_zero(self, example_coupling):
        Q = generator_matrix(MoranConfig(N=8, coupling=example_coupling, initial_count=0))
        assert np.all(Q[0] == 0.0)
        assert np.all(Q[8] == 0.0)

    def test_size_limit(self, example_coupling):
        with pytest.raises(SizeLimit):
            generator_matrix(MoranConfig(N=2001, coupling=example_coupling, initial_count=0))


class TestAbsorption:
    def test_neutral_is_linear(self):
        cfg = MoranConfig(N=50, coupling=HALF, initial_count=0)
        h = absorption_probability(cfg)
        assert np.abs(h - np.arange(51) / 50).max() < 1e-10

    def test_monotone(self, example_coupling):
        h = absorption_probability(
            MoranConfig(N=40, coupling=example_coupling, initial_count=0)
        )
        assert np.all(np.diff(h) >= -1e-12)

    def test_selection_hurts_disadvantaged(self, example_coupling):
        N = 40
        h = absorption_probability(
            MoranConfig(N=N, coupling=example_coupling, initial_count=0)
        )
        assert np.all(h[1:N] <= np.arange(1, N) / N + 1e-12)

    def test_matches_monte_carlo(self, mild_selective_coupling):
        N = 20
        cfg = MoranConfig(N=N, coupling=mild_selective_coupling, initial_count=10)
        h = absorption_probability(cfg)
        finals = simulate_final_counts(cfg, horizon=400.0, replicates=20000, seed=5)
        absorbed = (finals == 0) | (finals == N)
        assert absorbed.mean() > 0.999
        p_hat = (finals == N).mean()
        se = np.sqrt(p_hat * (1 - p_hat) / len(finals))
        assert abs(p_hat - h[10]) < 4 * se

    def test_singular_reports_stuck_states(self):
        empty = CoupledMeasure.from_atoms([])
        with pytest.raises(SingularSystem) as exc:
            absorption_probability(MoranConfig(N=5, coupling=empty, initial_count=0))
        assert "1, 2, 3, 4" in str(exc.value)

    def test_only_the_stuck_states_are_reported(self):
        # the rates out of 1 and 3 are a subnormal y's last bits; out of 2
        # both underflow to 0, so 2 alone reaches no boundary
        tiny = CoupledMeasure.from_atoms([(5e-324, 0.0, 0.6)])
        with pytest.raises(SingularSystem) as exc:
            absorption_probability(MoranConfig(N=4, coupling=tiny, initial_count=0))
        assert str(exc.value).endswith("to an absorbing boundary: [2]")

    def test_a_boundary_is_reached_through_the_interior(self):
        # 1 -> 2 -> 0 reaches 0 through 2; 3 <-> 4 is closed; 5 is a boundary
        Q = np.zeros((6, 6))
        Q[1, 2] = Q[2, 0] = Q[3, 4] = Q[4, 3] = 1.0
        np.fill_diagonal(Q, -Q.sum(axis=1))
        assert moran._states_not_reaching_boundary(Q) == [3, 4]


@pytest.mark.parametrize("N", [10, 20, 50, 100, 200, 400, 800])
def test_initial_count_returns_the_count_of_its_frequency(N):
    # c / N * N lands just below c for 66 of these pairs, which floor (or
    # int) would start one lower
    assert [initial_count(N, c / N) for c in range(N + 1)] == list(range(N + 1))


class TestSimulate:
    def test_zero_mass_constant(self):
        empty = CoupledMeasure.from_atoms([])
        path = simulate(MoranConfig(N=6, coupling=empty, initial_count=3), 5.0, seed=1)
        assert len(path) == 1
        assert path.final == 3

    def test_full_replacement_absorbs_first_event(self):
        sweep = CoupledMeasure.from_atoms([(1.0, 0.0, 1.0)])
        for seed in range(5):
            path = simulate(MoranConfig(N=8, coupling=sweep, initial_count=3), 50.0, seed=seed)
            assert len(path) == 2
            assert path.final in (0, 8)

    def test_deterministic_given_seed(self, example_coupling):
        cfg = MoranConfig(N=10, coupling=example_coupling, initial_count=5)
        a = simulate(cfg, 5.0, seed=9)
        b = simulate(cfg, 5.0, seed=9)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed, expected", [
        (4, "544f0e3d8d0a90139447861875439674dbff6740c4c32bbce6143a377d714004"),
        (5, "b3c4cf2ada4c79abbf9a27e01be36180b3ab712d46e30679febd6a02e09882cf"),
    ], ids=["4", "5"])
    def test_path_draws_pinned(self, mild_selective_coupling, seed, expected):
        cfg = MoranConfig(N=30, coupling=mild_selective_coupling, initial_count=12)
        path = simulate(cfg, 5.0, seed=seed)
        assert digest(path.times, path.values) == expected

    def test_final_counts_pinned_over_two_chunks(self, mild_selective_coupling):
        cfg = MoranConfig(N=30, coupling=mild_selective_coupling, initial_count=12)
        finals = simulate_final_counts(cfg, 2.0, 70_000, seed=8)
        assert digest(finals) == (
            "5de33155cb5d02ea6758d5df57db8526964538d4d6dcd3740b2ed8a15fb7f42b"
        )

    def test_neutral_symmetric_absorption(self):
        N = 50
        cfg = MoranConfig(N=N, coupling=HALF, initial_count=25)
        finals = simulate_final_counts(cfg, horizon=600.0, replicates=100_000, seed=3)
        assert ((finals == 0) | (finals == N)).mean() > 0.9999
        p_hat = (finals == N).mean()
        se = np.sqrt(0.25 / len(finals))
        assert abs(p_hat - 0.5) < 3 * se

    def test_event_law_chisquare(self, example_coupling):
        # one-event jump distribution at a pinned state vs jump_rates
        N, i = 12, 5
        cfg = MoranConfig(N=N, coupling=example_coupling, initial_count=i)
        up, down = jump_rates(cfg, i)
        total = example_coupling.total_mass
        probs = {k: up[k] / total for k in range(1, len(up))}
        probs.update({-k: down[k] / total for k in range(1, len(down))})
        probs[0] = 1.0 - sum(probs.values())
        # 200 000 single events at the pinned count, on a stream no library
        # consumer keys (tag 15)
        pinned = np.full(200_000, i, dtype=np.int64)
        jumps = _event_updates(pinned, N, example_coupling, substream(17, 15, 0)) - i
        counts = {int(v): int(c) for v, c in zip(*np.unique(jumps, return_counts=True))}
        assert merged_chisquare_pvalue(counts, probs, len(jumps)) > 1e-3

    def test_marginal_matches_matrix_exponential(self, example_coupling):
        # empirical time-T marginal vs the dense-generator semigroup
        N, i0, T = 8, 4, 0.8
        cfg = MoranConfig(N=N, coupling=example_coupling, initial_count=i0)
        exact = expm(generator_matrix(cfg) * T)[i0]
        finals = simulate_final_counts(cfg, T, replicates=100_000, seed=23)
        emp = np.bincount(finals, minlength=N + 1) / len(finals)
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.01


# means on both sides of the table limit, the last two beside it
COUNT_MEANS = [0.1, 1.5, 4.0, POISSON_TABLE_MEAN, np.nextafter(POISSON_TABLE_MEAN, np.inf)]


class TestEventCounts:
    """``_event_counts``: one uniform per count through the Poisson CDF table
    up to ``POISSON_TABLE_MEAN``, numpy's ``poisson`` above it."""

    @pytest.mark.parametrize("mean", COUNT_MEANS)
    def test_counts_are_poisson(self, mean):
        n = 200_000
        counts = _event_counts(np.random.default_rng(80), mean, 1.0, n)
        assert counts.shape == (n,) and counts.dtype == np.int64
        values, observed = np.unique(counts, return_counts=True)
        top = int(values.max()) + 1
        probs = {k: poisson.pmf(k, mean) for k in range(top)}
        probs[top] = poisson.sf(top - 1, mean)
        observed = dict(zip(values.tolist(), observed.tolist()))
        assert merged_chisquare_pvalue(observed, probs, n) > 1e-3

    @pytest.mark.parametrize("mean", [0.0, 1e-9, *COUNT_MEANS[:-1]])
    def test_table_ends_past_its_tail(self, mean):
        cdf = _poisson_cdf(mean)
        assert cdf[-1] == 1.0
        assert poisson.sf(len(cdf) - 1, mean) < POISSON_TABLE_TAIL
        assert np.all(np.diff(cdf) >= 0.0)
        assert not cdf.flags.writeable
        assert _poisson_cdf(mean) is cdf

    @pytest.mark.parametrize("route", ["search", "count"])
    def test_counting_and_search_routes_agree_on_the_edges(self, route):
        # uniforms exactly on each edge, just below it, and 0.0, repeated
        # until the draw counts edges (or once, for a binary search)
        cdf = _poisson_cdf(4.0)
        edges = cdf[:-1]
        values = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0)])
        n = len(values) if route == "search" else measures.COUNTED_DRAWS_PER_EDGE * len(edges)
        u = np.resize(values, n)
        got = _event_counts(FixedUniforms(u), 2.0, 2.0, n)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))
        assert got.dtype == np.intp
        assert np.array_equal(got[1: len(edges) + 1], np.arange(1, len(edges) + 1))
        assert np.array_equal(got[len(edges) + 1: 2 * len(edges) + 1], np.arange(len(edges)))

    @pytest.mark.parametrize("mean", [1.5, 40.0])
    @pytest.mark.parametrize("n, k", [(10_000, 7), (10_000, 1), (50, 3)])
    def test_a_draw_is_a_prefix_of_a_longer_one(self, mean, n, k):
        # one uniform per count: k counts then n - k uniforms leave the
        # stream where n counts do (numpy's poisson above the table limit
        # draws a varying number, so there only the prefix is asked for)
        rng_n, rng_k = np.random.default_rng(81), np.random.default_rng(81)
        many = _event_counts(rng_n, mean, 1.0, n)
        few = _event_counts(rng_k, mean, 1.0, k)
        assert np.array_equal(many[:k], few)
        if mean <= POISSON_TABLE_MEAN:
            rng_k.random(n - k)
            assert rng_n.random() == rng_k.random()

    @pytest.mark.parametrize("mean", COUNT_MEANS)
    def test_one_count_is_the_count_of_a_one_entry_draw(self, mean):
        # a one-row run draws its count as a Python int: one uniform through
        # the table, or one poisson above it, the draw of random(1) or
        # poisson(mean, 1), and the stream ends where that leaves it
        for seed in range(40):
            rng_one, rng_array = np.random.default_rng(seed), np.random.default_rng(seed)
            one = _event_counts(rng_one, mean, 1.0)
            assert type(one) is int
            assert one == _event_counts(rng_array, mean, 1.0, 1)[0]
            assert rng_one.random() == rng_array.random()

    @pytest.mark.parametrize("horizon", [-1.0, float("nan")])
    def test_refuses_a_negative_or_nan_mean(self, horizon):
        for size in (None, 1, 100):
            with pytest.raises(ValueError, match=f"horizon {horizon:g} gives"):
                _event_counts(np.random.default_rng(0), 2.0, horizon, size)


class TestEventUpdates:
    """``_event_updates``: a uniform, an atom and one binomial per event."""

    @pytest.mark.parametrize("atoms", [
        None,  # the example pair's coupling
        [(0.0, 0.4, 1.0), (0.5, 0.2, 0.5)],  # y = 0: a disadvantaged reproducer moves nothing
        [(0.3, 0.7, 1.0), (0.2, 0.1, 0.4)],  # y + z = 1: an advantaged one takes every minus
    ], ids=["example", "y0", "yz1"])
    def test_matches_the_reference_draws(self, example_coupling, atoms):
        c = example_coupling if atoms is None else CoupledMeasure.from_atoms(atoms)
        N = 9
        counts = np.resize(np.arange(N + 1), 3000).astype(np.int64)
        rng, ref_rng = np.random.default_rng(83), np.random.default_rng(83)
        got = _event_updates(counts, N, c, rng)
        ref = reference_moran_event(counts, N, c, ref_rng)
        assert np.array_equal(got, ref)
        assert rng.random() == ref_rng.random()
        assert np.all((got >= 0) & (got <= N))

    def test_y0_atom_never_moves_a_disadvantaged_reproducer_up(self):
        c = CoupledMeasure.from_atoms([(0.0, 0.6, 1.0)])
        got = _event_updates(np.full(5000, 4, dtype=np.int64), 10, c, np.random.default_rng(84))
        assert got.max() == 4 and got.min() < 4

    def test_certain_replacement_takes_every_disadvantaged(self):
        c = CoupledMeasure.from_atoms([(0.3, 0.7, 1.0)])
        got = _event_updates(np.full(5000, 4, dtype=np.int64), 10, c, np.random.default_rng(85))
        # an advantaged reproducer leaves no disadvantaged individual
        assert got.min() == 0 and np.all(got[got < 4] == 0)


MILD = CoupledMeasure.from_atoms([(0.4, 0.15, 0.8), (0.7, 0.1, 0.6)])
# every event rule the recorder runs: start, (lo, hi) and update
EVENT_RULES = {
    "moran": (5, 0, 12, lambda v, rng: _event_updates(v, 12, MILD, rng)),
    "sde": (0.4, 0.0, 1.0, lambda v, rng: _sde_events(v, MILD, rng)),
    "line_count": (4, 0, 13, lambda v, rng: _ancestor_events(v, 12, MILD, rng)),
    "limit_chain": (4, 0, 10**6, lambda v, rng: _ancestor_events(v, None, MILD, rng)),
}


class TestRecorder:
    @pytest.mark.parametrize("rule", sorted(EVENT_RULES))
    def test_one_entry_array_draws_as_the_live_row_of_a_batch(self, rule):
        # a one-entry array and the one live row of a two-entry batch (the
        # other row has no events) both run the array loop of _rounds: the
        # same values, and the streams end in the same state; the scalar
        # route of a one-entry run is TestOneRowRoute's
        x0, lo, hi, update = EVENT_RULES[rule]
        alone, batch = np.random.default_rng(3), np.random.default_rng(3)
        one, two = np.array([x0]), np.array([x0, x0])
        seen_one = [one[0] for _ in _rounds(one, lo, hi, np.array([40]),
                                            lambda v: update(v, alone))]
        seen_two = [two[0] for _ in _rounds(two, lo, hi, np.array([40, 0]),
                                            lambda v: update(v, batch))]
        assert len(seen_one) > 1
        assert seen_one == seen_two
        assert alone.random() == batch.random()

    @pytest.mark.parametrize("paths", [0, 3, 6, 10, 15])
    def test_paths_are_rows_of_the_run_across_chunks(self, paths):
        # chunks of 4, 4 and 2 replicates; recording draws after the rounds
        cfg = MoranConfig(N=30, coupling=MILD, initial_count=12)
        plain = batched(10, 8, (99,), lambda n, rng: _moran_run(n, rng, cfg, 2.0)[0], chunk=4)
        finals, recorded = batched(10, 8, (99,), _moran_run, cfg, 2.0, chunk=4, paths=paths)
        assert np.array_equal(finals, plain)
        assert len(recorded) == min(paths, 10)
        for r, path in enumerate(recorded):
            assert path.final == finals[r]
            assert path.times[0] == 0.0 and path.values[0] == 12
            assert path.times[-1] < 2.0
            assert np.all(path.values[1:] != path.values[:-1])

    def test_single_path_is_the_one_row_run(self):
        cfg = MoranConfig(N=30, coupling=MILD, initial_count=12)
        path = simulate(cfg, 5.0, seed=4, replicate=2)
        final, (same,) = _moran_run(1, substream(4, TAG_MORAN_PATH, 2), cfg, 5.0, 1)
        assert np.array_equal(path.times, same.times)
        assert np.array_equal(path.values, same.values)
        assert path.final == final[0]

    def test_non_positive_horizon_rejected(self):
        cfg = MoranConfig(N=30, coupling=MILD, initial_count=12)
        with pytest.raises(ValueError, match="horizon must be positive"):
            simulate(cfg, 0.0, seed=1)


# every library entry that takes a horizon, called on a small case; the last
# two call it t
HORIZON_ENTRIES = {
    "generate_asg": lambda c, h, tmp: asg.generate_asg(6, c, h, seed=1),
    "stream_asg_to_log": lambda c, h, tmp: asg.stream_asg_to_log(6, c, h, 1, str(tmp / "a.log")),
    "ancestry_consistency_check": lambda c, h, tmp: asg.ancestry_consistency_check(6, c, h, 2, 1),
    "pathwise_duality_check":
        lambda c, h, tmp: duality.pathwise_duality_check(6, c, h, 3, 2, 2, 1),
    "simulate_sde": lambda c, h, tmp: limits.simulate_sde(c, 0.5, h, 1),
    "sde_replicates": lambda c, h, tmp: limits.sde_replicates(c, 0.5, h, 2, 1, 1),
    "simulate_final_counts": lambda c, h, tmp: simulate_final_counts(
        MoranConfig(N=6, coupling=c, initial_count=3), h, 2, 1
    ),
    "sde_final_values": lambda c, h, tmp: limits.sde_final_values(c, 0.5, h, 2, 1),
    "line_count_replicates": lambda c, h, tmp: asg.line_count_replicates(6, c, 2, h, 2, 1, 0),
    "chain_final_states": lambda c, h, tmp: limits.chain_final_states(c, 2, h, 2, 1),
    "limit_moment_duality_check":
        lambda c, h, tmp: duality.limit_moment_duality_check(c, 0.5, 2, h, 2, 1),
    "convergence_study": lambda c, h, tmp: limits.convergence_study(
        c, 0.5, [limits.TruncationScheme(alpha=0.4, N=10)], h, 2, 1
    ),
}


@pytest.mark.parametrize("horizon, rule", [
    (0.0, "positive"), (-1.0, "positive"),
    (float("nan"), "positive and finite"), (float("inf"), "positive and finite"),
], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRIES))
def test_every_horizon_entry_refuses_a_bad_horizon_by_name(tmp_path, entry, horizon, rule):
    name = "t" if entry in ("limit_moment_duality_check", "convergence_study") else "horizon"
    with pytest.raises(ValueError) as caught:
        HORIZON_ENTRIES[entry](HALF_SEL, horizon, tmp_path)
    assert str(caught.value) == f"{name} must be {rule}, got {horizon}"


def _mixed_start(rule):
    """Entries of a rule's chain among which some start on ``lo`` or ``hi``."""
    x0, lo, hi, _ = EVENT_RULES[rule]
    return np.array([x0, x0, lo, x0, hi, x0, x0, x0] * 40, dtype=np.asarray(x0).dtype)


class TestCompactedRounds:
    """The narrowed live set against a scan of every entry in every round."""

    @pytest.mark.parametrize("rule", sorted(EVENT_RULES))
    def test_rounds_match_the_full_scan(self, rule):
        _, lo, hi, update = EVENT_RULES[rule]
        budget = np.random.default_rng(5).poisson(3.0, 320)
        budget[::7] = 0
        runs = []
        for rounds in (_rounds, reference_rounds):
            x, rng = _mixed_start(rule), np.random.default_rng(9)
            seen = [(step, x.copy()) for step in rounds(x, lo, hi, budget,
                                                        lambda v: update(v, rng))]
            runs.append((seen, rng.random()))
        (seen_a, next_a), (seen_b, next_b) = runs
        assert len(seen_a) > 3
        assert [s for s, _ in seen_a] == [s for s, _ in seen_b]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(seen_a, seen_b))
        assert next_a == next_b

    @pytest.mark.parametrize("keep", [0, 1, 5])
    @pytest.mark.parametrize("rule", sorted(EVENT_RULES))
    def test_recorded_run_matches_the_full_scan(self, rule, keep, monkeypatch):
        _, lo, hi, update = EVENT_RULES[rule]
        runs = []
        for rounds in (_rounds, reference_rounds):
            monkeypatch.setattr(moran, "_rounds", rounds)
            x, rng = _mixed_start(rule), np.random.default_rng(13)
            x, paths = record_events(x, lo, hi, 2.0, 1.5, lambda v: update(v, rng), rng, keep)
            runs.append((x, paths, rng.random()))
        (x_a, paths_a, next_a), (x_b, paths_b, next_b) = runs
        assert np.array_equal(x_a, x_b)
        assert len(paths_a) == len(paths_b) == keep
        for a, b in zip(paths_a, paths_b):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)
        assert next_a == next_b


# couplings at the corners a one-row run must keep: atoms with y = 1 and with
# y + z = 1 (the frequency hits 1 or 0 exactly), and no selective mass (one
# ancestor line absorbs)
ROW_COUPLINGS = {
    "mild": MILD,
    "y_one": CoupledMeasure.from_atoms([(1.0, 0.0, 0.3), (0.3, 0.2, 1.0)]),
    "sum_one": CoupledMeasure.from_atoms([(0.4, 0.6, 0.5), (0.2, 0.1, 1.0)]),
    "neutral": CoupledMeasure.from_atoms([(0.3, 0.0, 1.0), (0.6, 0.0, 0.5)]),
}
# every single-path simulator, on a coupling, a horizon and a replicate
SINGLE_PATHS = {
    "moran": lambda c, h, r: simulate(MoranConfig(N=12, coupling=c, initial_count=5), h, 6, r),
    "sde": lambda c, h, r: limits.simulate_sde(c, 0.4, h, 6, r),
    "line_count": lambda c, h, r: asg.simulate_line_count(12, c, 4, h, 6, r),
    "limit_chain": lambda c, h, r: limits.simulate_limit_chain(c, 4, h, 6, replicate=r),
}


class TestOneRowRoute:
    """Runs of ``record_events``, of one entry (its Python-scalar route) and
    of many, against the recorder on arrays
    (``helpers.reference_record_events``), bit for bit."""

    @pytest.mark.parametrize("simulator", sorted(SINGLE_PATHS))
    def test_replicates_draw_from_their_own_streams(self, simulator):
        # rng.alone keys replicate r's stream by r, so replicate 3 is not a
        # copy of replicate 0
        one, other = (SINGLE_PATHS[simulator](MILD, 2.0, r) for r in (0, 3))
        assert len(one) > 1 and len(other) > 1
        assert not (np.array_equal(one.times, other.times)
                    and np.array_equal(one.values, other.values))

    # 1e-3: nearly every path has no event; 40: every coupling's mean is
    # above POISSON_TABLE_MEAN, so the count is numpy's poisson
    @pytest.mark.parametrize("horizon", [1e-3, 2.0, 40.0])
    @pytest.mark.parametrize("coupling", sorted(ROW_COUPLINGS))
    @pytest.mark.parametrize("simulator", sorted(SINGLE_PATHS))
    def test_single_paths_keep_their_bits(self, simulator, coupling, horizon, monkeypatch):
        c = ROW_COUPLINGS[coupling]
        assert (c.total_mass * horizon > POISSON_TABLE_MEAN) == (horizon == 40.0)
        runs = []
        for record in (record_events, reference_record_events):
            for module in (moran, asg, limits):
                monkeypatch.setattr(module, "record_events", record)
            runs.append([SINGLE_PATHS[simulator](c, horizon, r) for r in range(20)])
        for got, want in zip(*runs):
            assert got.times.dtype == want.times.dtype == np.float64
            assert got.values.dtype == want.values.dtype
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.values, want.values)
        if horizon == 1e-3:
            assert all(len(path) == 1 for path in runs[0])

    @pytest.mark.parametrize("horizon", [3.0, 20.0])
    @pytest.mark.parametrize("start", ["inside", "lo", "hi"])
    @pytest.mark.parametrize("entries, keep", [(1, 0), (1, 1), (5, 0), (5, 2), (5, 5)])
    @pytest.mark.parametrize("rule", sorted(EVENT_RULES))
    def test_run_matches_the_array_route(self, rule, entries, keep, start, horizon):
        # the final values, the paths and where the stream is left; a start
        # on lo or hi applies no event, and a mean of 40 draws by poisson
        x0, lo, hi, update = EVENT_RULES[rule]
        x0 = {"inside": x0, "lo": lo, "hi": hi}[start]
        for seed in range(30):
            runs = []
            for record in (record_events, reference_record_events):
                x, rng = np.full(entries, x0), np.random.default_rng(seed)
                x, paths = record(x, lo, hi, 2.0, horizon, lambda v: update(v, rng), rng, keep)
                runs.append((x, paths, rng.random()))
            (x_a, paths_a, next_a), (x_b, paths_b, next_b) = runs
            assert x_a.dtype == x_b.dtype and np.array_equal(x_a, x_b)
            assert len(paths_a) == len(paths_b) == keep
            for a, b in zip(paths_a, paths_b):
                assert a.values.dtype == b.values.dtype
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.values, b.values)
                assert np.all(a.values[1:] != a.values[:-1])
            assert next_a == next_b

    @pytest.mark.parametrize("rule", sorted(EVENT_RULES))
    def test_a_scalar_state_draws_numpy_scalars(self, rule):
        # the rules take no 0-d array on a scalar state, and give a scalar
        x0, _, _, update = EVENT_RULES[rule]
        got = update(x0, np.random.default_rng(7))
        assert not isinstance(got, np.ndarray)
        assert isinstance(got, type(x0))


class TestFrequencyPath:
    def test_value_lookup(self):
        p = FrequencyPath(times=np.array([0.0, 1.0, 2.5]), values=np.array([3, 4, 2]))
        assert p.value_at(0.0) == 3
        assert p.value_at(1.0) == 4
        assert p.value_at(2.4) == 4
        assert p.value_at(100.0) == 2
        with pytest.raises(ValueError):
            p.value_at(-0.1)

    def test_a_nan_time_is_refused_by_name(self):
        # searchsorted puts NaN after every time, which read the last value
        p = FrequencyPath(times=np.array([0.0, 1.0]), values=np.array([3, 4]))
        with pytest.raises(ValueError) as info:
            p.value_at(float("nan"))
        assert str(info.value) == "t must be >= 0.0, got nan"

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyPath(times=np.array([0.0, 0.0]), values=np.array([1, 2]))
        with pytest.raises(ValueError):
            FrequencyPath(times=np.array([0.0]), values=np.array([1, 2]))
