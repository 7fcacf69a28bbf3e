import numpy as np
import pytest
from scipy.stats import binom

from lambda_asg.asg import line_count_rates
from lambda_asg.limits import limit_chain_rates
from lambda_asg.measures import CoupledMeasure
from lambda_asg.moran import MoranConfig, jump_rates
from lambda_asg.rates import AncestorChain, MixtureRows, MixtureTables

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
    def test_rows_match_scipy(self):
        tables = MixtureTables(EDGES, BIG)
        sums = EDGES.ys + EDGES.zs
        for m in [*range(41), *range(97, BIG, 97), BIG - 1, BIG]:
            assert_matches(tables.y[m, : m + 1], ref_mixture(EDGES, EDGES.ys, m))
            assert_matches(tables.s[m, : m + 1], ref_mixture(EDGES, sums, m))
            assert np.all(tables.y[m, m + 1 :] == 0.0)
            assert np.all(tables.s[m, m + 1 :] == 0.0)
            ref_branch = EDGES.masses @ ((1.0 - EDGES.ys) ** m - (1.0 - sums) ** m)
            assert_matches(tables.branch[m], ref_branch)

    def test_neutral_branch_exactly_zero(self, neutral_coupling):
        assert np.all(MixtureTables(neutral_coupling, 300).branch == 0.0)
        for n in (1, 2, 7, 300):
            assert line_count_rates(300, neutral_coupling, n)[1] == 0.0
            assert limit_chain_rates(neutral_coupling, n)[1] == 0.0

    def test_empty_coupling_all_zero(self):
        tables = MixtureTables(CoupledMeasure.from_atoms([]), 6)
        assert not tables.y.any() and not tables.s.any() and not tables.branch.any()


class TestMixtureRows:
    # EDGES has atoms at y = 0, y = 1 and y + z = 1.  The rows run the tables'
    # recurrence, so they agree bit for bit; the branch is mixed per row
    # instead of for the whole column, to rtol 1e-14.
    @pytest.fixture(scope="class")
    def tables(self):
        return MixtureTables(EDGES, BIG)

    @pytest.mark.parametrize("m", [1, 2, 7, 150, 999, BIG])
    def test_rows_match_the_tables(self, tables, m):
        rows = MixtureRows(EDGES, (m - 1, m))
        for k in (m - 1, m):
            assert np.array_equal(rows.y[k], tables.y[k, : k + 1])
            assert np.array_equal(rows.s[k], tables.s[k, : k + 1])
            np.testing.assert_allclose(rows.branch[k], tables.branch[k], rtol=1e-14, atol=0)
            assert rows.branch[k] >= 0.0

    @pytest.mark.parametrize("N", [7, 150, BIG])
    def test_public_rates_match_the_tables(self, tables, N):
        cfg = MoranConfig(N=N, coupling=EDGES, initial_count=0)
        for n in sorted({1, 2, 3, N // 3, N // 2, N - 1, N}):
            for got, ref in zip(jump_rates(cfg, n), tables.moran_jumps(N, n)):
                assert np.array_equal(got, ref)
            for (coalesce, branch), size in (
                (line_count_rates(N, EDGES, n), N), (limit_chain_rates(EDGES, n), None)
            ):
                row = tables.ancestor_rates(n, size)[n]
                assert np.array_equal(coalesce[1:], row[1:n])
                np.testing.assert_allclose(branch, row[0], rtol=1e-14, atol=0)


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
        # the finite-N rows live only in the tables; the chain is the limit's
        rows = MixtureTables(example_coupling, 12).ancestor_rates(12, N)
        chain = AncestorChain(example_coupling, 12) if N is None else None
        for s in range(1, 13):
            coalesce, branch = (
                limit_chain_rates(example_coupling, s) if N is None
                else line_count_rates(N, example_coupling, s)
            )
            rates = np.concatenate([[branch], coalesce[1:]])
            # table row s: branch, then s -> s - j at column j; zero from s on
            assert np.allclose(rows[s, :s], rates, rtol=1e-12, atol=1e-15)
            assert np.all(rows[s, s:] == 0.0)
            if chain is None:
                continue
            # chain row s: branch, then targets s - 1 .. 1; 1 from index s - 1 on
            assert chain.total[s] == pytest.approx(rates.sum(), rel=1e-14)
            assert np.allclose(np.diff(chain.cum[s, :s], prepend=0.0) * chain.total[s],
                               rates, rtol=1e-12, atol=1e-15)
            assert np.all(chain.cum[s, s - 1 :] == 1.0)

    def test_limit_chain_grows_on_demand(self, example_coupling):
        chain = AncestorChain(example_coupling, 4)
        chain.grow(9)
        chain.grow(57)
        fresh = AncestorChain(example_coupling, 57)
        assert np.array_equal(chain.total, fresh.total)
        assert np.array_equal(chain.cum, fresh.cum)
