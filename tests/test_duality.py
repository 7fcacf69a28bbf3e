import math
from fractions import Fraction

import numpy as np
import pytest

import lambda_asg.duality as duality_module
from helpers import (
    random_coupling,
    random_ordered_pair,
    reference_potential_ancestors,
    reference_propagate_forward,
    replicate_realization,
)
from lambda_asg.asg import _chunk_size
from lambda_asg.duality import (
    DualityReport,
    _pathwise_counts,
    _pathwise_draws,
    generator_duality_check,
    generator_duality_residuals,
    limit_generator_duality,
    limit_moment_duality_check,
    line_count_generator,
    pathwise_duality_check,
    sampling_function,
    sampling_matrix,
)
from lambda_asg.limits import chain_final_states
from lambda_asg.measures import CoupledMeasure, quantile_coupling
from lambda_asg.moran import MoranConfig, generator_matrix
from lambda_asg.rng import TAG_PATHWISE, substream


def reference_pathwise_counts(rounds, minus, sample, T):
    """``(X_T, A_T)`` of each drawn replicate by the scalar per-event
    references: its disadvantaged set propagated forward, its sample's
    potential-ancestor set swept backward.  The slow reference for
    ``_pathwise_counts``."""
    rows = []
    for j in range(len(minus)):
        asg = replicate_realization(rounds, j, T)
        forward = reference_propagate_forward(asg, minus[j])
        ancestors = reference_potential_ancestors(asg, np.nonzero(sample[j])[0], T, 0.0)
        rows.append((int(forward.sum()), len(ancestors)))
    return np.array(rows)


class TestSamplingFunction:
    def test_small_case(self):
        assert sampling_function(4, 2, 2) == pytest.approx(1 / 6)

    def test_empty_sample(self):
        for N, i in ((4, 0), (9, 5), (30, 30)):
            assert sampling_function(N, i, 0) == 1.0

    def test_saturated_population(self):
        for n in range(8):
            assert sampling_function(7, 7, n) == 1.0

    def test_oversized_sample_is_zero(self):
        assert sampling_function(6, 2, 3) == 0.0

    def test_exact_binomial_ratio(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            N = int(rng.integers(2, 60))
            i = int(rng.integers(0, N + 1))
            n = int(rng.integers(0, N + 1))
            exact = Fraction(math.comb(i, n), math.comb(N, n))
            assert sampling_function(N, i, n) == pytest.approx(float(exact), rel=1e-13)

    def test_matrix_agrees_with_scalar(self):
        N = 17
        D = sampling_matrix(N)
        for i in range(N + 1):
            for n in range(N + 1):
                assert D[i, n] == pytest.approx(sampling_function(N, i, n), abs=1e-15)

    def test_monotonicity(self):
        D = sampling_matrix(20)
        assert np.all(np.diff(D, axis=0) >= -1e-15)   # more carriers, likelier
        assert np.all(np.diff(D, axis=1) <= 1e-15)    # larger sample, less likely

    def test_large_population_power_limit(self):
        # S(floor(xN), n) -> x^n at rate O(1/N); x irrational so the floor
        # never lands exactly on the target
        x = 1.0 / math.e
        for n in range(1, 7):
            errs = []
            for N in (100, 1000, 10_000):
                i = int(math.floor(x * N))
                errs.append(abs(sampling_function(N, i, n) - x**n))
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] <= 1.5 * errs[0] / 100


class TestGeneratorDuality:
    def test_neutral(self, neutral_coupling):
        assert generator_duality_check(10, neutral_coupling) < 1e-10

    def test_selective(self, example_coupling):
        assert generator_duality_check(10, example_coupling) < 1e-10

    def test_random_couplings_various_sizes(self):
        rng = np.random.default_rng(5)
        for N in (5, 17, 40):
            for _ in range(3):
                assert generator_duality_check(N, random_coupling(rng)) < 1e-10

    def test_residuals_of_a_run_are_the_one_n_checks(self, example_coupling):
        Ns = [12, 5, 30, 5]
        assert generator_duality_residuals(Ns, example_coupling) == [
            generator_duality_check(N, example_coupling) for N in Ns
        ]
        # an array of sizes is read like a list, not refused as ambiguous
        assert generator_duality_residuals(np.array(Ns), example_coupling) == \
            generator_duality_residuals(Ns, example_coupling)

    def test_residuals_refuse_an_empty_list_by_name(self, example_coupling):
        # max() of no sizes would fail naming no argument
        with pytest.raises(ValueError) as info:
            generator_duality_residuals([], example_coupling)
        assert str(info.value) == "Ns must list at least one N"

    def test_constant_column_in_kernel(self, example_coupling):
        # D[., 0] is constant, so the column-0 residual is a pure row-sum
        N = 12
        B = generator_matrix(MoranConfig(N=N, coupling=example_coupling, initial_count=0))
        A = line_count_generator(N, example_coupling)
        D = sampling_matrix(N)
        assert np.abs((B @ D)[:, 0]).max() < 1e-12
        assert np.abs((B @ D - D @ A.T)[:, 0]).max() < 1e-12

    def test_line_count_generator_conservative(self, example_coupling):
        A = line_count_generator(14, example_coupling)
        assert np.abs(A.sum(axis=1)).max() < 1e-12
        assert np.all(A[0] == 0.0)


class TestPathwiseDuality:
    def test_all_disadvantaged_exact(self, example_coupling):
        report = pathwise_duality_check(
            8, example_coupling, T=1.0, initial_count=8, sample_size=2,
            replicates=200, seed=3,
        )
        assert report.lhs == 1.0
        assert report.rhs == 1.0
        assert report.z == 0.0

    def test_statistical_agreement(self, example_coupling):
        report = pathwise_duality_check(
            10, example_coupling, T=1.0, initial_count=5, sample_size=2,
            replicates=30_000, seed=21,
        )
        assert abs(report.z) < 4.0
        assert report.stderr_lhs > 0

    @pytest.mark.parametrize("N", [2, 6, 20])
    def test_replicate_matches_public_api(self, example_coupling, N):
        for initial_count in sorted({0, N // 2, N - 1, N}):
            for sample_size in sorted({1, 2, N}):
                args = (N, example_coupling, 1.5, initial_count, sample_size)
                for seed in range(3):
                    draws = _pathwise_draws(50, substream(seed, TAG_PATHWISE, 0), *args)
                    rounds, minus, sample = draws
                    assert np.all(minus.sum(axis=1) == initial_count)
                    assert np.all(sample.sum(axis=1) == sample_size)
                    slow = reference_pathwise_counts(*draws, 1.5)
                    assert np.array_equal(_pathwise_counts(*draws), slow)
                    # the check reads S at these counts from the scalar function
                    report = pathwise_duality_check(*args, 50, seed)
                    assert report.lhs == np.mean(
                        [sampling_function(N, x, sample_size) for x in slow[:, 0]]
                    )
                    assert report.rhs == np.mean(
                        [sampling_function(N, initial_count, a) for a in slow[:, 1]]
                    )

    def test_threads_reproduce(self, example_coupling, pool_workers):
        # 1600 replicates at N = 500 are three chunks, so two workers run
        N, T, replicates = 500, 0.8, 1600
        chunk = _chunk_size(N, 2, example_coupling.total_mass * T)
        assert chunk < replicates <= 3 * chunk
        kw = dict(T=T, initial_count=250, sample_size=2, replicates=replicates, seed=9)
        a = pathwise_duality_check(N, example_coupling, **kw, threads=1)
        b = pathwise_duality_check(N, example_coupling, **kw, threads=2)
        assert a == b
        assert pool_workers == [2]

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_needs_a_replicate(self, example_coupling, replicates):
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            pathwise_duality_check(
                6, example_coupling, T=0.5, initial_count=3, sample_size=1,
                replicates=replicates, seed=1,
            )

    def test_report_round_trips_to_dict(self, example_coupling):
        report = pathwise_duality_check(
            6, example_coupling, T=0.5, initial_count=3, sample_size=1,
            replicates=50, seed=1,
        )
        d = report.to_dict()
        assert set(d) == {"lhs", "rhs", "stderr_lhs", "stderr_rhs", "z",
                          "replicates", "params"}
        assert DualityReport(**d) == report


class TestLimitGeneratorDuality:
    def test_example_coupling(self, example_coupling):
        assert limit_generator_duality(example_coupling, 12, 101) < 1e-10

    def test_single_power_tight(self, example_coupling):
        assert limit_generator_duality(example_coupling, 1, 101) < 1e-14

    def test_zero_coupling(self):
        empty = CoupledMeasure.from_atoms([])
        assert limit_generator_duality(empty, 12, 51) == 0.0

    def test_random_couplings(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            assert limit_generator_duality(random_coupling(rng), 12, 101) < 1e-10

    def test_couplings_of_ordered_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            lm, lp = random_ordered_pair(rng)
            assert limit_generator_duality(quantile_coupling(lm, lp), 10, 51) < 1e-10


class TestLimitMomentDuality:
    def test_absorbed_start_exact(self, example_coupling):
        report = limit_moment_duality_check(
            example_coupling, x=1.0, n=2, t=0.5, replicates=500, seed=4
        )
        assert report.lhs == 1.0
        assert report.rhs == 1.0

    def test_statistical_agreement(self, mild_selective_coupling):
        report = limit_moment_duality_check(
            mild_selective_coupling, x=0.5, n=2, t=1.0, replicates=100_000, seed=6
        )
        assert abs(report.z) < 4.0

    @pytest.mark.parametrize("x, n, t", [
        (0.3, 1, 0.5), (0.5, 2, 1.0), (0.7, 3, 1.0), (0.5, 3, 0.5),
        (0.0, 2, 1.0), (1e-300, 2, 1.0), (1.0, 3, 0.5), (0.123456789, 3, 1.0),
    ])
    def test_table_of_powers_is_a_pow_per_replicate(self, monkeypatch, x, n, t):
        # the moment coupling and settings of the benchmark, and the edges of
        # x: x**A_t read from one table of powers has the bits of np.power
        coupling = CoupledMeasure.from_atoms([(0.3, 0.1, 1.0), (0.6, 0.2, 0.5)])
        sides = []
        monkeypatch.setattr(duality_module, "_report", lambda lhs, rhs, params: sides.append(rhs))
        limit_moment_duality_check(coupling, x, n, t, 20_000, seed=5)
        counts = chain_final_states(coupling, n, t, 20_000, 5)
        assert counts.max() > n
        expected = np.power(x, counts.astype(float))
        assert np.array_equal(sides[0].view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_needs_a_replicate(self, example_coupling, replicates):
        with pytest.raises(ValueError, match=f"replicates must be >= 1, got {replicates}"):
            limit_moment_duality_check(
                example_coupling, x=0.5, n=2, t=0.5, replicates=replicates, seed=1
            )
