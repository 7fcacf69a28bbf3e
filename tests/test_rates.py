import itertools

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from lambda_asg.asg import ancestry_consistency_check, line_count_rates, line_count_replicates
from lambda_asg.cli import Z_MAX
from lambda_asg.duality import _line_count_rows, line_count_generator, pathwise_duality_check
from lambda_asg.errors import NotConverged
from lambda_asg.fixation import build_fixation_solver, fixation_series
from lambda_asg.limits import (
    chain_final_states, frequency_generator, limit_chain_rates, sde_final_values,
)
from lambda_asg.measures import (
    CoupledMeasure, FiniteMeasure1D, coupling_from_pair, marginal_mismatch, transport_cost,
)
from lambda_asg.moran import (
    MAX_DUALITY_N, MoranConfig, _generator_rows, absorption_probability, generator_matrix,
    initial_count, jump_rates, simulate_final_counts,
)
from lambda_asg.rates import AncestorChain, MixtureRows

from helpers import (
    chain_cum,
    reference_ancestor_rates,
    reference_ancestor_row,
    reference_generator_rows,
    reference_line_count_rows,
    reference_moran_row,
    two_sample_chisquare_pvalue,
)

# y = 0, y = 1 and y + z = 1 put success probabilities 0 and 1 in both tables
EDGES = CoupledMeasure.from_atoms([
    (0.0, 0.5, 0.7), (0.5, 0.5, 0.3), (1.0, 0.0, 0.2), (0.0, 1.0, 0.4),
    (0.25, 0.3, 1.1), (0.6, 0.1, 0.5),
])
BIG = 2000


# -- slow reference: the scipy formulas the mixture tables replaced ------------


def ref_mixture(c, p, m):
    return binom.pmf(np.arange(m + 1)[:, None], m, p[None, :]) @ c.masses


def ref_jump_rates(cfg, count):
    N, c = cfg.N, cfg.coupling
    x = count / N
    up = np.zeros(N - count + 1)
    down = np.zeros(count + 1)
    if len(c) == 0:
        return up, down
    if count > 0 and count < N:
        ks = np.arange(1, N - count + 1)
        up[1:] = x * (binom.pmf(ks[:, None], N - count, c.ys[None, :]) @ c.masses)
        ks = np.arange(1, count + 1)
        down[1:] = (1.0 - x) * (
            binom.pmf(ks[:, None], count, (c.ys + c.zs)[None, :]) @ c.masses
        )
    return up, down


def ref_line_count_rates(N, c, n):
    coalesce = np.zeros(max(n, 1))
    branch = 0.0
    if len(c) == 0:
        return coalesce, branch
    if n >= 2:
        ks = np.arange(1, n)
        inside = (n / N) * (binom.pmf(ks[:, None], n - 1, c.ys[None, :]) @ c.masses)
        outside = (1.0 - n / N) * (
            binom.pmf(ks[:, None] + 1, n, c.ys[None, :]) @ c.masses
        )
        coalesce[1:] = inside + outside
    branch = float(
        (1.0 - n / N) * (c.masses @ ((1.0 - c.ys) ** n - (1.0 - c.ys - c.zs) ** n))
    )
    return coalesce, branch


def ref_limit_chain_rates(c, m):
    coalesce = np.zeros(m)
    if len(c) == 0:
        return coalesce, 0.0
    if m >= 2:
        ks = np.arange(1, m)
        coalesce[1:] = binom.pmf(ks[:, None] + 1, m, c.ys[None, :]) @ c.masses
    branch = float(c.masses @ ((1.0 - c.ys) ** m - (1.0 - c.ys - c.zs) ** m))
    return coalesce, branch


def assert_matches(got, ref):
    """Absolute error <= 1e-14 everywhere, relative <= 1e-12 where ref > 1e-300."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    assert got.shape == ref.shape
    err = np.abs(got - ref)
    assert err.max(initial=0.0) <= 1e-14
    big = np.abs(ref) > 1e-300
    assert (err[big] / np.abs(ref[big])).max(initial=0.0) <= 1e-12


class TestMixtureTables:
    # the mixture tables T_y, T_{y+z} and the branch column, as MixtureRows
    # builds them for the rows asked for
    MS = [*range(41), *range(97, BIG, 97), BIG - 1, BIG]

    def test_rows_match_scipy(self):
        rows = MixtureRows(EDGES, self.MS)
        sums = EDGES.ys + EDGES.zs
        for m in self.MS:
            assert_matches(rows.y[m], ref_mixture(EDGES, EDGES.ys, m))
            assert_matches(rows.s[m], ref_mixture(EDGES, sums, m))
        ms = np.arange(BIG + 1)[:, None]
        ref_branch = ((1.0 - EDGES.ys) ** ms - (1.0 - sums) ** ms) @ EDGES.masses
        assert_matches(rows.branch, ref_branch)

    def test_neutral_branch_exactly_zero(self, neutral_coupling):
        assert np.all(MixtureRows(neutral_coupling, [300]).branch == 0.0)
        for n in (1, 2, 7, 300):
            assert line_count_rates(300, neutral_coupling, n)[1] == 0.0
            assert limit_chain_rates(neutral_coupling, n)[1] == 0.0

    def test_empty_coupling_all_zero(self):
        rows = MixtureRows(CoupledMeasure.from_atoms([]), range(7))
        assert not any(rows.y[m].any() or rows.s[m].any() for m in range(7))
        assert not rows.branch.any()


class TestMixtureRows:
    # EDGES has atoms at y = 0, y = 1 and y + z = 1.  Rows built for a few
    # states run the recurrence of the full table of rows 0..BIG and mix the
    # branch by the same product, so they agree bit for bit.
    @pytest.fixture(scope="class")
    def tables(self):
        return MixtureRows(EDGES, range(BIG + 1))

    @pytest.mark.parametrize("m", [1, 2, 7, 150, 999, BIG])
    def test_rows_match_the_tables(self, tables, m):
        rows = MixtureRows(EDGES, (m - 1, m))
        for k in (m - 1, m):
            assert np.array_equal(rows.y[k], tables.y[k])
            assert np.array_equal(rows.s[k], tables.s[k])
        assert np.array_equal(rows.branch, tables.branch[: m + 1])
        assert np.all(rows.branch >= 0.0)

    @pytest.mark.parametrize("N", [7, 150, BIG])
    def test_public_rates_match_the_tables(self, tables, N):
        # each public layout is a slice of the one row, indexed by target
        cfg = MoranConfig(N=N, coupling=EDGES, initial_count=0)
        for n in sorted({1, 2, 3, N // 3, N // 2, N - 1, N}):
            row = tables.moran_row(N, n)
            up, down = jump_rates(cfg, n)
            assert np.array_equal(up, row[n:]) and np.array_equal(down, row[n::-1])
            assert up[0] == 0.0 and not np.shares_memory(up, down)
            for (coalesce, branch), size in (
                (line_count_rates(N, EDGES, n), N), (limit_chain_rates(EDGES, n), None)
            ):
                row = tables.ancestor_row(n, size)
                assert np.array_equal(coalesce, row[n:0:-1])
                assert branch == row[n + 1]


class TestAncestorRates:
    """The one builder of the ancestor count's rates on states 0..K."""

    @pytest.mark.parametrize("N", [2, 7, 150])
    def test_finite_n_truncations_are_leading_rows(self, N):
        full = MixtureRows(EDGES, range(N + 1)).ancestor_rates(N, N)
        assert full.shape == (N + 1, N + 2)
        assert not full[0].any() and full[N, N + 1] == 0.0
        for K in sorted({1, N // 2, N - 1}):
            rates = MixtureRows(EDGES, range(K + 1)).ancestor_rates(K, N)
            assert np.array_equal(rates, full[: K + 1, : K + 2])
            # column K + 1 is the branch out of K
            assert rates[K, K + 1] == line_count_rates(N, EDGES, K)[1] > 0.0
            assert not rates[:K, K + 1].any()
        for n in range(1, N + 1):
            row = MixtureRows(EDGES, (n - 1, n)).ancestor_row(n, N)
            assert np.array_equal(full[n, : n + 2], row)

    @pytest.mark.parametrize("K", [1, 7, 60])
    def test_limit_rows_do_not_depend_on_k(self, K):
        small = MixtureRows(EDGES, range(K + 1)).ancestor_rates(K, None)
        big = MixtureRows(EDGES, range(2 * K + 1)).ancestor_rates(2 * K, None)
        assert np.array_equal(small[1:], big[1 : K + 1, : K + 2])
        assert small[K, K + 1] == limit_chain_rates(EDGES, K)[1] > 0.0


class TestOneRowSource:
    """The dense generators and the public rates are the same numbers."""

    @pytest.mark.parametrize("N", [2, 7, 300])
    def test_generator_rows_are_the_public_rates(self, N):
        cfg = MoranConfig(N=N, coupling=EDGES, initial_count=0)
        Q = generator_matrix(cfg)
        for i in range(N + 1):
            up, down = jump_rates(cfg, i)
            assert np.array_equal(Q[i, i + 1 :], up[1:])
            assert np.array_equal(Q[i, :i][::-1], down[1:])
        A = line_count_generator(N, EDGES)
        for n in range(1, N + 1):
            coalesce, branch = line_count_rates(N, EDGES, n)
            assert np.array_equal(A[n, n - 1 : 0 : -1], coalesce[1:])
            assert A[n, 0] == 0.0 and np.all(A[n, n + 2 :] == 0.0)
            if n < N:
                assert A[n, n + 1] == branch
            else:
                assert branch == 0.0


    @pytest.mark.parametrize("N", [2, 7, 50, MAX_DUALITY_N])
    def test_generators_from_the_largest_table_match_per_n_builds(self, example_coupling, N):
        # a duality_matrix run reads every N from one table of rows 0..max(N)
        for coupling in (example_coupling, EDGES):
            rows = MixtureRows(coupling, range(MAX_DUALITY_N + 1))
            cfg = MoranConfig(N=N, coupling=coupling, initial_count=0)
            assert np.array_equal(_generator_rows(rows, N), generator_matrix(cfg))
            assert np.array_equal(_line_count_rows(rows, N), line_count_generator(N, coupling))


class TestRowsWrittenInPlace:
    """Rows written into slices of their matrix give the bits of fresh rows
    copied in one at a time."""

    @pytest.mark.parametrize("N", [2, 3, 50, 300])
    @pytest.mark.parametrize("coupling", ["edges", "example"])
    def test_generators(self, example_coupling, coupling, N):
        rows = MixtureRows(EDGES if coupling == "edges" else example_coupling, range(N + 1))
        assert _generator_rows(rows, N).tobytes() == reference_generator_rows(rows, N).tobytes()
        assert _line_count_rows(rows, N).tobytes() == reference_line_count_rows(rows, N).tobytes()
        for size in (N, None):
            for K in sorted({1, N // 2, N}):
                assert rows.ancestor_rates(K, size).tobytes() == \
                    reference_ancestor_rates(rows, K, size).tobytes()

    @pytest.mark.parametrize("N", [2, 3, 50, 300])
    def test_single_rows(self, N):
        rows = MixtureRows(EDGES, range(N + 1))
        for i in range(N + 1):
            assert rows.moran_row(N, i).tobytes() == reference_moran_row(rows, N, i).tobytes()
        for n in range(1, N + 1):
            for size in (N, None):
                assert rows.ancestor_row(n, size).tobytes() == \
                    reference_ancestor_row(rows, n, size).tobytes()


class TestPublicRates:
    @pytest.mark.parametrize("N", [7, BIG])
    def test_jump_rates_match_scipy(self, N):
        cfg = MoranConfig(N=N, coupling=EDGES, initial_count=0)
        for count in sorted({0, 1, 2, N // 3, N // 2, N - 1, N}):
            for got, ref in zip(jump_rates(cfg, count), ref_jump_rates(cfg, count)):
                assert_matches(got, ref)

    @pytest.mark.parametrize("N", [7, BIG])
    def test_line_count_rates_match_scipy(self, N):
        for n in sorted({1, 2, 3, N // 2, N - 1, N}):
            coalesce, branch = line_count_rates(N, EDGES, n)
            ref_coalesce, ref_branch = ref_line_count_rates(N, EDGES, n)
            assert_matches(coalesce, ref_coalesce)
            assert_matches(branch, ref_branch)

    def test_limit_chain_rates_match_scipy(self):
        for m in (1, 2, 3, 7, 150, BIG):
            coalesce, branch = limit_chain_rates(EDGES, m)
            ref_coalesce, ref_branch = ref_limit_chain_rates(EDGES, m)
            assert_matches(coalesce, ref_coalesce)
            assert_matches(branch, ref_branch)


class TestAncestorChain:
    @pytest.mark.parametrize("N", [None, 12])
    def test_rows_in_shared_layout(self, example_coupling, N):
        rows = MixtureRows(example_coupling, range(13))
        chain = AncestorChain(example_coupling, 12) if N is None else None
        cum = chain_cum(example_coupling, 12)
        for s in range(1, 13):
            coalesce, branch = (
                limit_chain_rates(example_coupling, s) if N is None
                else line_count_rates(N, example_coupling, s)
            )
            # row s by target: 0 at targets 0 and s, s -> s - j at s - j,
            # the branch at s + 1
            row = rows.ancestor_row(s, N)
            assert np.array_equal(row[s::-1][1:s], coalesce[1:])
            assert row[s + 1] == branch and row[0] == row[s] == 0.0
            if chain is None:
                continue
            # chain row s from the top target 13 down: 0 above the branch,
            # then targets s + 1 .. 1, and 1 from target 1 on
            rates = np.concatenate([[branch, 0.0], coalesce[1:]])
            top = 12 - s
            assert chain.total[s] == pytest.approx(rates.sum(), rel=1e-14)
            assert np.all(cum[s, :top] == 0.0)
            assert np.allclose(
                np.diff(cum[s, top:13], prepend=0.0) * chain.total[s],
                rates, rtol=1e-12, atol=1e-15,
            )
            assert np.all(cum[s, 12:] == 1.0)

    def test_window_reads_each_row_from_the_branch_down(self, example_coupling):
        chain = AncestorChain(example_coupling, 4)
        chain.grow(20)
        size = len(chain.total) - 1
        cum = chain_cum(example_coupling, size)
        for s in range(size + 1):
            below = cum[s, size - s: size]
            assert np.array_equal(chain.window[:s, s], below)
            assert np.all(chain.window[s:, s] == 1.0)
        assert np.array_equal(chain.window, AncestorChain(example_coupling, 20).window)

    def test_a_smaller_size_leaves_the_table_as_it_is(self, example_coupling):
        chain = AncestorChain(example_coupling, 20)
        total, window = chain.total, chain.window
        chain.grow(5)
        chain.grow(20)
        assert chain.total is total and chain.window is window
        assert len(chain.total) == 21

    def test_limit_chain_grows_on_demand(self, example_coupling):
        chain = AncestorChain(example_coupling, 4)
        chain.grow(9)
        chain.grow(57)
        fresh = AncestorChain(example_coupling, 57)
        assert np.array_equal(chain.total, fresh.total)
        assert np.array_equal(chain.window, fresh.window)


# -- the law reads only the pair ------------------------------------------------
#
# Every law-level formula reads y alone (Lambda-) or y + z alone (Lambda+),
# never the two jointly, so every ordered coupling of one pair drives the same
# count chains, limit generator and fixation probability.  Only the ASG's
# pathwise construction sees the coupling.

# (lambda_minus, lambda_plus, whether the fixation series converges at order 30)
LAW_PAIRS = {
    # the series diverges here: its last term at x = 0.1 is 0.55
    "two_atoms": (
        FiniteMeasure1D.from_atoms([(0.2, 0.5), (0.4, 0.5)]),
        FiniteMeasure1D.from_atoms([(0.5, 0.5), (0.6, 0.5)]), False,
    ),
    # lambda_minus is lighter: coupling_from_pair adds an atom of mass 0.2 at 0
    "lighter_minus": (
        FiniteMeasure1D.from_atoms([(0.4, 0.4), (0.5, 0.4)]),
        FiniteMeasure1D.from_atoms([(0.3, 0.2), (0.55, 0.4), (0.6, 0.4)]), True,
    ),
    # rate scale 1.5
    "three_atoms": (
        FiniteMeasure1D.from_atoms([(0.1, 0.5), (0.2, 0.5), (0.3, 0.5)]),
        FiniteMeasure1D.from_atoms([(0.21, 0.5), (0.25, 0.5), (0.33, 0.5)]), True,
    ),
}
LAW_XS = np.linspace(0.0, 1.0, 11)
LAW_REPLICATES = 20_000


def crossed_plan(lower, upper):
    """A transport plan ``(y, s, mass)`` from ``lower`` to ``upper`` with
    s >= y: each y from the top down takes the smallest s left, so the low y
    keep the high s.  Feasible whenever the pair is ordered."""
    left = dict(zip(upper.locations.tolist(), upper.masses.tolist()))
    plan = []
    for y, mass in sorted(zip(lower.locations.tolist(), lower.masses.tolist()), reverse=True):
        for s in sorted(left):
            take = min(mass, left[s])
            if s >= y and take > 0.0:
                plan.append((y, s, take))
                left[s] -= take
                mass -= take
    return plan


def law_couplings(lm, lp):
    """The quantile, crossed and split couplings of the normalized pair (the
    quantile coupling's marginals over |lambda_plus|), each run at the pair's
    rate scale; split is the half-and-half mix of the other two."""
    quantile = coupling_from_pair(lm, lp)
    scale = lp.total_mass
    quantile_plan = [
        (y, y + z, m / scale) for y, z, m in zip(quantile.ys, quantile.zs, quantile.masses)
    ]
    crossed = crossed_plan(quantile.y_marginal().scaled(1.0 / scale),
                           quantile.sum_marginal().scaled(1.0 / scale))
    split = [(y, s, m / 2) for y, s, m in quantile_plan + crossed]
    return [quantile] + [
        CoupledMeasure.from_atoms((y, s - y, m * scale) for y, s, m in plan)
        for plan in (crossed, split)
    ]


def law_oracles(coupling, converges):
    """Every law-level oracle of ``coupling``, by name."""
    solver = build_fixation_solver(coupling)
    out = {
        "generator": generator_matrix(MoranConfig(40, coupling, 0)),
        "absorption": absorption_probability(MoranConfig(200, coupling, 0)),
        "line_count": line_count_generator(40, coupling),
        # each m's coalescence rates, then its branch rate
        "limit_chain": np.concatenate([np.append(*limit_chain_rates(coupling, m))
                                       for m in range(1, 31)]),
        "frequency": frequency_generator(coupling, lambda v: v**5, LAW_XS),
        "series": np.concatenate(fixation_series(solver.seq, LAW_XS)),
    }
    if converges:
        out["p"] = np.array([solver.p(x) for x in LAW_XS])
    else:
        with pytest.raises(NotConverged):
            solver.p(0.1)
    return out


def law_finals(coupling, seed):
    """Time-1 finals of LAW_REPLICATES replicates of every Monte Carlo kernel
    that reads a coupling, by name."""
    return {
        "moran": simulate_final_counts(
            MoranConfig(40, coupling, initial_count(40, 0.5)), 1.0, LAW_REPLICATES, seed
        ),
        "line_count": line_count_replicates(20, coupling, 5, 1.0, LAW_REPLICATES, seed, 0)[0],
        "limit_chain": chain_final_states(coupling, 3, 1.0, LAW_REPLICATES, seed),
        "sde": sde_final_values(coupling, 0.5, 1.0, LAW_REPLICATES, seed),
    }


def marginal_generator(lm, lp, N):
    """The Moran generator at N from the two marginals alone: i -> i + k at
    ``x Binom(N - i, Lambda-)(k)``, i -> i - k at ``(1 - x) Binom(i, Lambda+)(k)``."""
    Q = np.zeros((N + 1, N + 1))
    for i in range(1, N):
        x, up, down = i / N, np.arange(1, N - i + 1), np.arange(1, i + 1)
        Q[i, i + up] = x * (binom.pmf(up[:, None], N - i, lm.locations) @ lm.masses)
        Q[i, i - down] = (1.0 - x) * (binom.pmf(down[:, None], i, lp.locations) @ lp.masses)
        Q[i, i] = -Q[i].sum()
    return Q


class TestLawReadsOnlyThePair:
    @pytest.mark.parametrize("pair", sorted(LAW_PAIRS))
    def test_couplings_share_their_marginals_and_differ_jointly(self, pair):
        lm, lp, _ = LAW_PAIRS[pair]
        couplings = law_couplings(lm, lp)
        assert [marginal_mismatch(c, lm, lp) for c in couplings] == pytest.approx(
            [0.0] * 3, abs=1e-15
        )
        # the pathwise side sees the coupling: three different transport costs
        costs = [transport_cost(c) for c in couplings]
        assert min(abs(a - b) for a, b in itertools.combinations(costs, 2)) > 1e-3

    @pytest.mark.parametrize("pair", sorted(LAW_PAIRS))
    def test_every_law_oracle_agrees_across_couplings(self, pair):
        lm, lp, converges = LAW_PAIRS[pair]
        first, *others = [law_oracles(c, converges) for c in law_couplings(lm, lp)]
        for other in others:
            assert other.keys() == first.keys()
            for name in first:
                tol = 1e-12 if name in ("series", "p") else 1e-14
                assert np.max(np.abs(other[name] - first[name])) <= tol, name

    @pytest.mark.parametrize("pair", sorted(LAW_PAIRS))
    def test_monte_carlo_finals_agree_across_couplings(self, pair):
        # each coupling draws from its own seed: on one shared seed the
        # batched limit chain, whose table reads only the rates, gives the
        # same finals on every coupling, and the samples are not independent
        lm, lp, _ = LAW_PAIRS[pair]
        quantile, crossed, _ = law_couplings(lm, lp)
        finals = [law_finals(c, seed) for c, seed in ((quantile, 41), (crossed, 42))]
        for name in ("moran", "line_count", "limit_chain"):
            assert two_sample_chisquare_pvalue(finals[0][name], finals[1][name]) > 1e-3, name
        assert ks_2samp(finals[0]["sde"], finals[1]["sde"]).pvalue > 1e-3

    @pytest.mark.parametrize("pair", sorted(LAW_PAIRS))
    def test_pathwise_checks_pass_on_every_coupling(self, pair):
        lm, lp, _ = LAW_PAIRS[pair]
        for coupling in law_couplings(lm, lp):
            checked, violations = ancestry_consistency_check(8, coupling, 1.0, 200, seed=43)
            assert checked == 1600 and violations == 0
            report = pathwise_duality_check(10, coupling, 0.5, initial_count(10, 0.5), 2, 2000, 44)
            assert abs(report.z) < Z_MAX

    @pytest.mark.parametrize("pair", sorted(LAW_PAIRS))
    def test_generator_reads_lambda_minus_up_and_lambda_plus_down(self, pair):
        # invariance alone would pass a kernel that read one marginal for both
        lm, lp, _ = LAW_PAIRS[pair]
        reference = marginal_generator(lm, lp, 40)
        for coupling in law_couplings(lm, lp):
            Q = generator_matrix(MoranConfig(40, coupling, 0))
            assert np.max(np.abs(Q - reference)) <= 1e-14
