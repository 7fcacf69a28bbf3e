import dataclasses
import hashlib
import math
import re
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency, poisson

import lambda_asg.asg as asg_module
from helpers import (
    merged_chisquare_pvalue,
    reference_potential_ancestors,
    reference_propagate_forward,
    replicate_realization,
)
from lambda_asg.asg import (
    BLOCK_LABELS,
    OUTCOME_NEUTRAL,
    OUTCOME_NONE,
    OUTCOME_SELECTIVE,
    AsgRealization,
    _ancestor_events,
    _backward_rounds,
    _realization_rounds,
    ancestry_consistency_check,
    generate_asg,
    line_count_rates,
    potential_ancestors,
    propagate_forward,
    read_event_log,
    simulate_line_count,
    stream_asg_to_log,
    write_event_log,
)
from lambda_asg.errors import SizeLimit
from lambda_asg.limits import limit_chain_rates, simulate_limit_chain
from lambda_asg.measures import CoupledMeasure
from lambda_asg.moran import _event_counts
from lambda_asg.rng import TAG_ASG, TAG_CONSISTENCY, substream

HALF = CoupledMeasure.from_atoms([(0.5, 0.0, 1.0)])
SEL_ONLY = CoupledMeasure.from_atoms([(0.0, 0.5, 1.0)])
# y = 0, y = 1 and y + z = 1 among the atoms
EDGES = CoupledMeasure.from_atoms([
    (0.0, 0.5, 0.7), (0.5, 0.5, 0.3), (1.0, 0.0, 0.2), (0.0, 1.0, 0.4), (0.25, 0.3, 1.1),
])


def reference_byte_rule(p):
    """The exact ``T = ceil(p * 2**53)`` of a label probability p, and per top
    byte k of a 53-bit uniform: 1 when every integer ``k * 2**45 + e`` (e
    below 2**45) is below T, 0 when none is, and None (a tie, read from e)
    otherwise; the top byte of p = 1, byte 255, is a tie too, as its
    threshold byte 256 does not fit a byte."""
    T = math.ceil(Fraction(float(p)) * 2**53)
    rule = []
    for k in range(256):
        first, stop = k * 2**45, (k + 1) * 2**45
        if T <= first:
            rule.append(0)
        elif stop < T or (stop == T and T < 2**53):
            rule.append(1)
        else:
            rule.append(None)
    return T, rule


def reference_generate_asg(N, coupling, horizon, rng):
    """An independent generator in the package's draw order: the Poisson
    count, every event time, then, for each block of ``BLOCK_LABELS // N``
    events, its reproducers, its ``rng.choice`` atoms, the top bytes of all
    its label uniforms (``random_raw`` words read little-endian) and one more
    word for each label whose byte ties with either threshold, in row-major
    order.  A byte's label comes from per-atom tables of
    :func:`reference_byte_rule`, a tie's from exact integer comparisons."""
    E = _event_counts(rng, coupling.total_mass, horizon)
    times = np.sort(rng.random(E)) * horizon
    rules = [
        (reference_byte_rule(y), reference_byte_rule(y + z))
        for y, z in zip(coupling.ys, coupling.zs)
    ]
    # label per (atom, byte), and whether the byte is a tie
    table = np.array([
        [2 * (s[k] or 0) - (y[k] or 0) for k in range(256)] for (_, y), (_, s) in rules
    ], dtype=np.uint8).reshape(-1, 256)
    tied = np.array([
        [y[k] is None or s[k] is None for k in range(256)] for (_, y), (_, s) in rules
    ], dtype=bool).reshape(-1, 256)
    step = max(BLOCK_LABELS // N, 1)
    blocks = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), np.empty((0, N), np.uint8))]
    for start in range(0, E, step):
        n = min(step, E - start)
        reproducers = rng.integers(0, N, size=n)
        atom_idx = rng.choice(len(coupling), size=n, p=coupling.masses / coupling.total_mass)
        words = rng.bit_generator.random_raw(-(-n * N // 8))
        k = np.asarray(words, dtype="<u8").view(np.uint8)[: n * N].reshape(n, N)
        outcomes = table[atom_idx[:, None], k]
        for i, j in zip(*np.nonzero(tied[atom_idx[:, None], k])):
            (Ty, _), (Ts, _) = rules[atom_idx[i]]
            m = int(k[i, j]) * 2**45 + (int(rng.bit_generator.random_raw()) >> 19)
            outcomes[i, j] = 2 * (m < Ts) - (m < Ty)
        blocks.append((reproducers, coupling.ys[atom_idx], coupling.zs[atom_idx], outcomes))
    return (times, *(np.concatenate(col) for col in zip(*blocks)))


def poisson_fit_pvalue(counts, mean):
    """The merged chi-square p-value of event counts against Poisson(mean),
    its tail beyond the largest count in one cell."""
    values, freqs = np.unique(counts, return_counts=True)
    top = int(values.max()) + 1
    probs = {k: poisson.pmf(k, mean) for k in range(top)}
    probs[top] = poisson.sf(top - 1, mean)
    return merged_chisquare_pvalue(dict(zip(values.tolist(), freqs.tolist())), probs, len(counts))


def reference_consistency(N, coupling, horizon, replicates, seed):
    """The consistency check by the scalar per-event references, on the
    replicates the batched check draws: one forward pass and one backward
    sweep per individual for each replicate rebuilt from its chunk's rounds."""
    checked = 0
    violations = 0
    chunk = asg_module._chunk_size(N, N + 1, coupling.total_mass * horizon)
    for c, start in enumerate(range(0, replicates, chunk)):
        rounds, minus = asg_module._consistency_draws(
            min(chunk, replicates - start), substream(seed, TAG_CONSISTENCY, c),
            N, coupling, horizon,
        )
        for j, init in enumerate(minus):
            realization = replicate_realization(rounds, j, horizon)
            final = reference_propagate_forward(realization, init)
            for i in range(N):
                ancestors = reference_potential_ancestors(realization, {i}, horizon, 0.0)
                plus_reachable = any(not init[k] for k in ancestors)
                checked += 1
                if plus_reachable != (not final[i]):
                    violations += 1
    return checked, violations


SWEEP_COUPLINGS = {
    "half": HALF,
    "selective_only": SEL_ONLY,
    "edges": EDGES,
    "zero_mass": CoupledMeasure.from_atoms([]),
}


def one_event_realization(N, reproducer, outcome_pairs, y=0.4, z=0.2):
    """A single handcrafted event at t = 1 on horizon [0, 2]."""
    outcome = np.zeros(N, dtype=np.uint8)
    for j, label in outcome_pairs:
        outcome[j] = label
    return AsgRealization(
        N=N, horizon=2.0,
        times=np.array([1.0]),
        reproducers=np.array([reproducer]),
        ys=np.array([y]),
        zs=np.array([z]),
        outcomes=outcome[None, :],
    )


class TestGeneration:
    def test_zero_mass_empty(self):
        empty = CoupledMeasure.from_atoms([])
        asg = generate_asg(4, empty, horizon=3.0, seed=1)
        assert len(asg) == 0

    def test_full_neutral_hits_everyone(self):
        sweep = CoupledMeasure.from_atoms([(1.0, 0.0, 1.0)])
        asg = generate_asg(6, sweep, horizon=3.0, seed=2)
        assert len(asg) > 0
        assert np.all(asg.outcomes == OUTCOME_NEUTRAL)

    def test_poisson_event_count(self, example_coupling):
        # mass 1, horizon 3: mean 3 events per realization
        rate = example_coupling.total_mass
        horizon = 3.0
        counts = [
            len(generate_asg(5, example_coupling, horizon, seed=s)) for s in range(4000)
        ]
        mean = np.mean(counts)
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(mean - rate * horizon) < 3 * se
        assert poisson_fit_pvalue(counts, rate * horizon) > 1e-3

    def test_realizations_are_pinned(self, tmp_path, example_coupling):
        # a count above POISSON_TABLE_MEAN is one poisson call: a streamed log
        # of two blocks at mean 4000; at mean 27 the count is one uniform
        # inverted through the CDF table, and EDGES has labels that tie
        path = tmp_path / "a.log"
        assert stream_asg_to_log(300, example_coupling, 4000.0, 7, str(path)) == 3910
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e983dcff5dc0e482383a7caee5deb5e4e671640dce224cbac4fd40b3c37078ad"
        )
        write_event_log(generate_asg(50, EDGES, 10.0, seed=3), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "30f0095d48ffb072b3725880be2c2964e2feb222649f6a6dbcbde4859ed9a87f"
        )

    def test_outcome_frequencies(self, example_coupling):
        asg = generate_asg(200, example_coupling, horizon=50.0, seed=3)
        # conditional on atom (y, z), labels are iid over individuals
        for e in range(0, len(asg), 7):
            y, z = asg.ys[e], asg.zs[e]
            freq_n = (asg.outcomes[e] == OUTCOME_NEUTRAL).mean()
            assert abs(freq_n - y) < 5 * np.sqrt(y * (1 - y) / 200) + 0.05

    def test_times_strictly_increasing(self, example_coupling):
        asg = generate_asg(5, example_coupling, horizon=200.0, seed=4)
        assert np.all(np.diff(asg.times) > 0)
        assert asg.times[-1] <= 200.0

    @pytest.mark.parametrize(
        "N, horizon", [(2, 0.01), (4, 3.0), (37, 20.0), (200, 60.0), (4096, 600.0)]
    )
    def test_same_draws_as_reference(self, monkeypatch, example_coupling, N, horizon):
        # the generator's labels are OUTCOME_SELECTIVE * (u < y + z) - (u < y)
        assert OUTCOME_NONE == 0 and OUTCOME_NEUTRAL == OUTCOME_SELECTIVE - 1
        # the generator's stream, kept to check that it draws no more than the reference
        opened = []
        monkeypatch.setattr(
            asg_module, "substream", lambda *key: opened.append(substream(*key)) or opened[-1]
        )
        sizes = []
        for coupling in (example_coupling, CoupledMeasure.from_atoms([]), EDGES):
            for seed in range(6):
                ref_rng = substream(seed, TAG_ASG, 0)
                expected = reference_generate_asg(N, coupling, horizon, ref_rng)
                asg = generate_asg(N, coupling, horizon, seed=seed)
                got = (asg.times, asg.reproducers, asg.ys, asg.zs, asg.outcomes)
                for a, b in zip(got, expected):
                    assert np.array_equal(a, b)
                assert opened.pop().random() == ref_rng.random()
                sizes.append(len(asg))
        if horizon < 0.1:
            assert 0 in sizes[:6]  # no event before the horizon, at positive mass
        if N == 4096:
            assert min(sizes[:6]) > 2 * (BLOCK_LABELS // N)  # several label blocks

    def test_memory_guard(self):
        big = CoupledMeasure.from_atoms([(0.5, 0.0, 2000.0)])
        with pytest.raises(SizeLimit):
            generate_asg(10_000, big, horizon=10.0, seed=5)

    def test_memory_guard_drawn_and_undrawn(self):
        big = CoupledMeasure.from_atoms([(0.5, 0.0, 2000.0)])
        # a mean near the cap: the drawn count is refused
        with pytest.raises(SizeLimit, match=r"^\d+ events x 10000"):
            generate_asg(10_000, big, horizon=0.6, seed=5)
        # a mean beyond the range of numpy's poisson: refused before a draw,
        # by the count rule of every event stream
        message = r"horizon 1e\+20 gives 2e\+23 expected events \(mass \* horizon\)"
        with pytest.raises(ValueError, match=message):
            generate_asg(10_000, big, horizon=1e20, seed=5)


class StubBits:
    """A bit generator's ``random_raw``, handing out the given words in order."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.served = 0

    def random_raw(self, size):
        assert self.served + size <= len(self.words)
        self.served += size
        return self.words[self.served - size : self.served].copy()


# (y, z): y = 0, y = 1, y + z = 1, z = 0, dyadic (a 2**-9 threshold ties
# at byte 0), just below 1, non-dyadic, tiny, and a non-dyadic y with a
# dyadic y + z (0.1 + 0.15 is 0.25 in floats)
LABEL_ATOMS = [
    (0.0, 0.3), (0.0, 0.0), (1.0, 0.0), (0.3, 0.7), (0.0, 1.0), (0.4, 0.0),
    (0.25, 0.5), (2**-9, 2**-8), (1 - 2**-53, 0.0), (1 / 3, 0.2), (0.1, 0.2),
    (1e-300, 0.2), (1e-300, 0.0), (0.1, 0.15),
]
# atoms of the chi-square test, about 10**6 labels each: at y = 1/3, a label
# law off by a whole byte (1/256) is about 8 standard deviations out
CHI_ATOMS = [(0.0, 0.3), (1.0, 0.0), (0.3, 0.7), (2**-9, 2**-8), (1 / 3, 0.2), (1e-300, 0.5)]


class TestLabelRule:
    @pytest.mark.parametrize("y, z", LABEL_ATOMS)
    def test_bytes_and_ties_are_the_float_comparison(self, y, z):
        # byte k of the one row is k; every tie then draws the same low bits
        # e, at both ends of each threshold's low part and of its range
        Ty, rule_y = reference_byte_rule(y)
        Ts, rule_s = reference_byte_rule(y + z)
        ties = sum(a is None or b is None for a, b in zip(rule_y, rule_s))
        lows = {0, 2**45 - 1} | {T % 2**45 + d for T in (Ty, Ts) for d in (-1, 0)}
        byte_words = np.arange(256, dtype=np.uint8).view("<u8")
        for e in sorted(v for v in lows if 0 <= v < 2**45):
            bits = StubBits(np.concatenate([byte_words, np.full(256, e << 19, np.uint64)]))
            out = np.empty((1, 256), np.uint8)
            asg_module._draw_labels(bits, np.array([y]), np.array([z]), np.zeros(1, int), out)
            u = (np.arange(256) * 2.0**45 + e) * 2.0**-53
            expected = 2 * (u < y + z) - (u < y)
            assert out[0].tolist() == expected.tolist(), e
            assert bits.served == len(byte_words) + ties

    def test_strided_records_label_as_a_contiguous_out(self, monkeypatch):
        # tiles of 16 rows: one tile per atom of LABEL_ATOMS (thresholds that
        # cannot tie, y or y + z that can, or both), then tiles of random
        # atoms; the log's strided records, a contiguous out and one tile for
        # the whole block read the same bytes and give the same labels
        N = 37
        ys, zs = (np.array(col) for col in zip(*LABEL_ATOMS))
        atoms = np.concatenate([
            np.repeat(np.arange(len(ys)), 16),
            np.random.default_rng(3).integers(0, len(ys), 16 * 5),
        ])
        words = np.random.default_rng(4).integers(0, 2**64, 10**5, dtype=np.uint64)

        def labels(out):
            bits = StubBits(words)
            asg_module._draw_labels(bits, ys, zs, atoms, out)
            return out.tobytes(), bits.served

        whole = labels(np.empty((len(atoms), N), np.uint8))
        monkeypatch.setattr(asg_module, "TILE_LABELS", 16 * N)
        records = np.zeros(len(atoms), dtype=asg_module._record_dtype(N))
        assert not records["outcome"].flags.c_contiguous
        assert labels(records["outcome"]) == whole
        assert labels(np.empty((len(atoms), N), np.uint8)) == whole
        # some labels tied and drew their low bits
        assert whole[1] > -(-len(atoms) * N // 8)

    def test_each_atom_labels_by_its_probabilities(self):
        coupling = CoupledMeasure.from_atoms([(y, z, 1.0) for y, z in CHI_ATOMS])
        asg = generate_asg(1000, coupling, 6000 / coupling.total_mass, seed=72)
        for y, z in CHI_ATOMS:
            rows = (asg.ys == y) & (asg.zs == z)
            assert rows.sum() > 800
            counts = np.bincount(asg.outcomes[rows].ravel(), minlength=3)
            probs = {OUTCOME_NONE: 1.0 - y - z, OUTCOME_NEUTRAL: y, OUTCOME_SELECTIVE: z}
            observed = dict(enumerate(counts.tolist()))
            support = {k for k, p in probs.items() if p > 0}
            assert {k for k, c in observed.items() if c} <= support
            if len(support) > 1:
                assert merged_chisquare_pvalue(observed, probs, int(counts.sum())) > 1e-3, (y, z)

    @pytest.mark.parametrize("tile", [1, 100, 4096, 1 << 20])
    def test_realizations_do_not_depend_on_the_tile_size(self, monkeypatch, tile):
        cases = [(2, 400.0), (7, 300.0), (37, 100.0), (1000, 40.0), (5000, 300.0)]
        expected = [generate_asg(N, EDGES, horizon, seed=9) for N, horizon in cases]
        monkeypatch.setattr(asg_module, "TILE_LABELS", tile)
        for (N, horizon), want in zip(cases, expected):
            got = generate_asg(N, EDGES, horizon, seed=9)
            assert got.outcomes.tobytes() == want.outcomes.tobytes()
            assert np.array_equal(got.reproducers, want.reproducers)
            assert np.array_equal(got.ys, want.ys)
        # several tiles per block, and several blocks
        assert len(expected[-1]) * 5000 > 2 * BLOCK_LABELS


class TestPropagation:
    def test_all_minus_closed(self, example_coupling):
        asg = generate_asg(10, example_coupling, horizon=5.0, seed=6)
        assert propagate_forward(asg, range(10)) == set(range(10))

    def test_all_plus_closed(self, example_coupling):
        asg = generate_asg(10, example_coupling, horizon=5.0, seed=7)
        assert propagate_forward(asg, set()) == set()

    def test_selective_arrow_from_disadvantaged_is_inert(self):
        asg = one_event_realization(4, reproducer=0, outcome_pairs=[(2, OUTCOME_SELECTIVE)])
        # unchanged: the reproducer carried no advantage
        assert propagate_forward(asg, {0, 2}) == {0, 2}

    def test_selective_arrow_from_advantaged_converts(self):
        asg = one_event_realization(4, reproducer=0, outcome_pairs=[(2, OUTCOME_SELECTIVE)])
        assert propagate_forward(asg, {2, 3}) == {3}

    def test_neutral_arrow_copies_either_type(self):
        asg = one_event_realization(4, reproducer=1, outcome_pairs=[(3, OUTCOME_NEUTRAL)])
        assert propagate_forward(asg, {1}) == {1, 3}
        assert propagate_forward(asg, {3}) == set()

    @pytest.mark.parametrize("name", sorted(SWEEP_COUPLINGS) + ["example"])
    @pytest.mark.parametrize("N", [2, 9, 40])
    def test_matches_scalar_reference(self, example_coupling, name, N):
        coupling = SWEEP_COUPLINGS.get(name, example_coupling)
        rng = np.random.default_rng(N)
        for seed in range(3):
            realization = generate_asg(N, coupling, 3.0, seed=seed)
            init = rng.random(N) < 0.5
            assert propagate_forward(realization, np.flatnonzero(init)) == \
                set(np.flatnonzero(reference_propagate_forward(realization, init)).tolist())


class TestPotentialAncestors:
    def test_no_events_identity(self, example_coupling):
        asg = generate_asg(8, example_coupling, horizon=1.0, seed=8)
        quiet = AsgRealization(
            N=8, horizon=1.0, times=np.empty(0), reproducers=np.empty(0, dtype=int),
            ys=np.empty(0), zs=np.empty(0), outcomes=np.empty((0, 8), dtype=np.uint8),
        )
        assert potential_ancestors(quiet, {2, 5}, 1.0, 0.0) == {2, 5}

    def test_neutral_merge_keeps_count(self):
        # outside reproducer, one neutral arrow into the set: swap, same size
        asg = one_event_realization(5, reproducer=4, outcome_pairs=[(1, OUTCOME_NEUTRAL)])
        anc = potential_ancestors(asg, {1, 2}, 2.0, 0.0)
        assert anc == {2, 4}

    def test_selective_branches(self):
        asg = one_event_realization(5, reproducer=4, outcome_pairs=[(1, OUTCOME_SELECTIVE)])
        anc = potential_ancestors(asg, {1, 2}, 2.0, 0.0)
        assert anc == {1, 2, 4}

    def test_mixed_event_removes_then_adds(self):
        asg = one_event_realization(
            6, reproducer=5,
            outcome_pairs=[(0, OUTCOME_NEUTRAL), (1, OUTCOME_SELECTIVE), (2, OUTCOME_NEUTRAL)],
        )
        anc = potential_ancestors(asg, {0, 1, 2, 3}, 2.0, 0.0)
        assert anc == {1, 3, 5}

    def test_reproducer_inside_set(self):
        asg = one_event_realization(5, reproducer=0, outcome_pairs=[(1, OUTCOME_NEUTRAL)])
        anc = potential_ancestors(asg, {0, 1}, 2.0, 0.0)
        assert anc == {0}

    def test_untouched_event_ignored(self):
        asg = one_event_realization(6, reproducer=4, outcome_pairs=[(5, OUTCOME_NEUTRAL)])
        anc = potential_ancestors(asg, {0, 1}, 2.0, 0.0)
        assert anc == {0, 1}

    def test_window_respected(self):
        asg = one_event_realization(5, reproducer=4, outcome_pairs=[(1, OUTCOME_NEUTRAL)])
        # event at t = 1 lies outside (0, 0.5] and outside (1.5, 2.0]
        assert potential_ancestors(asg, {1}, 0.5, 0.0) == {1}
        assert potential_ancestors(asg, {1}, 2.0, 1.5) == {1}

    @pytest.mark.parametrize("index", [-1, 5, 7])
    def test_individuals_out_of_range_refused(self, index):
        # numpy would wrap -1 to individual 4 and fail on 7 with IndexError
        asg = one_event_realization(5, reproducer=4, outcome_pairs=[(1, OUTCOME_NEUTRAL)])
        message = f"individual {index} out of range: need 0 <= i < N = 5"
        with pytest.raises(ValueError, match=re.escape(message)):
            potential_ancestors(asg, [index], 1.0, 0.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            potential_ancestors(asg, {0, index}, 1.0, 0.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            propagate_forward(asg, [index])

    @pytest.mark.parametrize("index", [1.5, 2.0, True, np.float64(1.0), np.bool_(True)])
    def test_individuals_that_are_not_integers_refused(self, index):
        # numpy would raise an IndexError naming neither index nor N for a
        # float and read a bool as a mask
        asg = one_event_realization(5, reproducer=4, outcome_pairs=[(1, OUTCOME_NEUTRAL)])
        message = f"individual {index!r} is not an integer index: need 0 <= i < N = 5"
        with pytest.raises(ValueError, match=re.escape(message)):
            potential_ancestors(asg, [index], 1.0, 0.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            propagate_forward(asg, [0, index])

    def test_numpy_integer_individuals_accepted(self):
        asg = one_event_realization(5, reproducer=4, outcome_pairs=[(1, OUTCOME_NEUTRAL)])
        sample = np.array([1, 2], dtype=np.int32)
        assert potential_ancestors(asg, sample, 2.0, 0.0) == {2, 4}
        # the advantaged reproducer 4 converts individual 1, already advantaged
        assert propagate_forward(asg, np.array([0, 3], dtype=np.int64)) == {0, 3}

    def test_forward_refuses_a_bool_mask(self):
        # a mask of the N types, the shape the sweep once took, is refused by
        # its first entry rather than read as the indices 0 and 1
        asg = one_event_realization(5, reproducer=4, outcome_pairs=[(1, OUTCOME_NEUTRAL)])
        message = "is not an integer index: need 0 <= i < N = 5"
        with pytest.raises(ValueError, match=re.escape(message)):
            propagate_forward(asg, np.array([True, False, False, True, False]))


class TestLineCountRates:
    def test_neutral_half_atom(self):
        coalesce, branch = line_count_rates(4, HALF, 2)
        assert coalesce[1] == pytest.approx(3 / 8)
        assert branch == 0.0

    def test_full_sample_no_branching(self, example_coupling):
        _, branch = line_count_rates(6, example_coupling, 6)
        assert branch == 0.0

    def test_pure_selective_single_line(self):
        N = 5
        coalesce, branch = line_count_rates(N, SEL_ONLY, 1)
        assert coalesce.sum() == 0.0
        assert branch == pytest.approx((1 - 1 / N) * 0.5)

    def test_rates_nonnegative(self, example_coupling):
        for n in range(1, 13):
            coalesce, branch = line_count_rates(12, example_coupling, n)
            assert np.all(coalesce >= 0) and branch >= 0


class TestAncestorEventRule:
    @pytest.mark.parametrize("N, n", [(10, 1), (10, 5), (10, 10), (None, 1), (None, 5)])
    @pytest.mark.parametrize("name", ["example", "edges"])
    def test_one_event_law(self, example_coupling, name, N, n):
        # one event from a pinned count moves it by the chain's rate over the
        # event rate; the rest of the mass leaves it unchanged
        c = example_coupling if name == "example" else EDGES
        coalesce, branch = limit_chain_rates(c, n) if N is None else line_count_rates(N, c, n)
        probs = {n - k: coalesce[k] / c.total_mass for k in range(1, n)}
        probs[n + 1] = branch / c.total_mass
        probs[n] = 1.0 - sum(probs.values())
        draws = 200_000
        after = _ancestor_events(np.full(draws, n), N, c, np.random.default_rng(50))
        values, counts = np.unique(after, return_counts=True)
        observed = dict(zip(values.tolist(), counts.tolist()))
        assert set(observed) <= {k for k, p in probs.items() if p > 0.0}
        assert merged_chisquare_pvalue(observed, probs, draws) > 1e-3


class TestLineCountSimulation:
    def test_stuck_at_one_without_branching(self):
        path = simulate_line_count(6, HALF, 1, horizon=50.0, seed=9)
        assert len(path) == 1
        assert path.final == 1

    def test_values_in_range(self, example_coupling):
        for seed in range(5):
            path = simulate_line_count(8, example_coupling, 4, horizon=20.0, seed=seed)
            assert path.values.min() >= 1
            assert path.values.max() <= 8

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_non_positive_horizon_rejected(self, example_coupling, horizon):
        # both ancestor-count simulators share the horizon check of
        # moran.record_events
        with pytest.raises(ValueError, match="horizon must be positive"):
            simulate_line_count(8, example_coupling, 4, horizon, seed=1)
        with pytest.raises(ValueError, match="horizon must be positive"):
            simulate_limit_chain(example_coupling, 4, horizon, seed=1)

    def test_transition_law_chisquare(self, example_coupling):
        # the first embedded transition out of a pinned state is one exact
        # draw from the jump law there
        N, n0 = 10, 5
        coalesce, branch = line_count_rates(N, example_coupling, n0)
        total = coalesce.sum() + branch
        probs = {n0 - k: coalesce[k] / total for k in range(1, n0)}
        probs[n0 + 1] = branch / total
        horizon = 5.0 / total
        observed: dict[int, int] = {}
        count = 0
        for seed in range(30_000):
            path = simulate_line_count(N, example_coupling, n0, horizon, seed=seed)
            if len(path) > 1:
                first = int(path.values[1])
                observed[first] = observed.get(first, 0) + 1
                count += 1
        assert count > 25_000
        assert merged_chisquare_pvalue(observed, probs, count) > 1e-3

    def test_matches_backward_sweep_distribution(self, example_coupling):
        # ancestor counts from graph traversal vs the standalone chain
        N, n0, T, reps = 10, 4, 1.5, 12_000
        rng = np.random.default_rng(31)
        from_sweeps = np.empty(reps, dtype=int)
        for r in range(reps):
            asg = generate_asg(N, example_coupling, T, seed=20_000 + r)
            sample = rng.permutation(N)[:n0]
            from_sweeps[r] = len(potential_ancestors(asg, sample, T, 0.0))
        from_chain = np.array([
            simulate_line_count(N, example_coupling, n0, T, seed=10_000 + r).final
            for r in range(reps)
        ])
        lo, hi = 1, N
        table = np.array([
            np.bincount(from_sweeps, minlength=hi + 1)[lo:],
            np.bincount(from_chain, minlength=hi + 1)[lo:],
        ])
        table = table[:, table.sum(axis=0) > 0]
        assert chi2_contingency(table).pvalue > 1e-3

    def test_transitions_bounded(self, example_coupling):
        for seed in range(20):
            path = simulate_line_count(9, example_coupling, 5, horizon=30.0, seed=seed)
            steps = np.diff(path.values)
            assert steps.max(initial=0) <= 1
            assert steps.min(initial=0) >= -(9 - 1)


class TestConsistency:
    def test_no_violations(self, example_coupling):
        checked, violations = ancestry_consistency_check(
            9, example_coupling, horizon=2.0, replicates=200, seed=12
        )
        assert checked == 1800
        assert violations == 0

    def test_threads_do_not_change_result(self, example_coupling):
        a = ancestry_consistency_check(6, example_coupling, 1.5, 64, seed=13, threads=1)
        b = ancestry_consistency_check(6, example_coupling, 1.5, 64, seed=13, threads=2)
        assert a == b

    def test_threads_do_not_change_result_over_several_chunks(
        self, example_coupling, pool_workers
    ):
        # 1300 replicates at N = 40 are three chunks, so two workers run
        N, horizon, replicates = 40, 1.5, 1300
        chunk = asg_module._chunk_size(N, N + 1, example_coupling.total_mass * horizon)
        assert chunk < replicates <= 3 * chunk
        a = ancestry_consistency_check(N, example_coupling, horizon, replicates, 13, threads=1)
        b = ancestry_consistency_check(N, example_coupling, horizon, replicates, 13, threads=2)
        assert a == b == (N * replicates, 0)
        assert pool_workers == [2]

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_needs_a_replicate(self, example_coupling, replicates):
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            ancestry_consistency_check(6, example_coupling, 1.5, replicates, seed=1)

    @pytest.mark.parametrize("name", sorted(SWEEP_COUPLINGS) + ["example"])
    @pytest.mark.parametrize("N", [2, 7, 25])
    @pytest.mark.parametrize("seed", [4, 19])
    def test_matches_per_individual_reference(self, example_coupling, name, N, seed):
        coupling = SWEEP_COUPLINGS.get(name, example_coupling)
        expected = reference_consistency(N, coupling, 2.0, 12, seed)
        assert ancestry_consistency_check(N, coupling, 2.0, 12, seed) == expected
        assert expected == (12 * N, 0)

    def test_several_chunks_match_the_reference(self):
        # the public-API reference over three chunks, the last one short
        N, horizon = 60, 1.0
        chunk = asg_module._chunk_size(N, N + 1, EDGES.total_mass * horizon)
        replicates = 2 * chunk + 3
        expected = reference_consistency(N, EDGES, horizon, replicates, 8)
        assert ancestry_consistency_check(N, EDGES, horizon, replicates, 8) == expected

    def test_a_wrong_final_type_is_counted(self, example_coupling, monkeypatch):
        forward_rounds = asg_module._forward_rounds

        def flip_first_of_each(rounds, minus):
            final = forward_rounds(rounds, minus)
            final[:, 0] = ~final[:, 0]
            return final

        monkeypatch.setattr(asg_module, "_forward_rounds", flip_first_of_each)
        # one flipped individual per replicate, each a violation; the scalar
        # references do not share the flipped rule
        assert ancestry_consistency_check(8, example_coupling, 2.0, 30, 5) == (240, 30)
        assert reference_consistency(8, example_coupling, 2.0, 30, 5) == (240, 0)


class TestRoundDraws:
    def test_event_counts_are_poisson(self, example_coupling):
        mean = example_coupling.total_mass * 1.5
        rounds = asg_module._draw_rounds(np.random.default_rng(70), 20_000, 5, example_coupling, 1.5)
        assert np.all(np.diff(rounds.counts) <= 0)
        assert len(rounds.reproducers) == rounds.counts.sum() == rounds.widths.sum()
        assert poisson_fit_pvalue(rounds.counts, mean) > 1e-3

    def test_marks_follow_the_coupling(self):
        # per event: its atom, and the labels of two individuals, which are
        # independent given the atom; the reproducer is uniform
        N = 7
        rounds = asg_module._draw_rounds(np.random.default_rng(71), 20_000, N, EDGES, 1.0)
        same = (rounds.ys[:, None] == EDGES.ys) & (rounds.zs[:, None] == EDGES.zs)
        assert np.all(same.sum(axis=1) == 1)
        atom = same.argmax(axis=1)
        first, last = rounds.outcomes[:, 0], rounds.outcomes[:, -1]
        probs = {}
        for a, (y, z, m) in enumerate(zip(EDGES.ys, EDGES.zs, EDGES.masses)):
            label = {OUTCOME_NEUTRAL: y, OUTCOME_SELECTIVE: z, OUTCOME_NONE: 1.0 - y - z}
            for l1, p1 in label.items():
                for l2, p2 in label.items():
                    probs[(a * 3 + l1) * 3 + l2] = m / EDGES.total_mass * p1 * p2
        keys, counts = np.unique((atom * 3 + first) * 3 + last, return_counts=True)
        observed = dict(zip(keys.tolist(), counts.tolist()))
        E = len(atom)
        assert E > 50_000
        assert set(observed) <= {k for k, p in probs.items() if p > 0.0}
        assert merged_chisquare_pvalue(observed, probs, E) > 1e-3
        reproducers = dict(enumerate(np.bincount(rounds.reproducers, minlength=N).tolist()))
        assert merged_chisquare_pvalue(reproducers, dict.fromkeys(range(N), 1 / N), E) > 1e-3

    def test_one_replicate_above_the_cap_is_refused(self):
        big = CoupledMeasure.from_atoms([(0.5, 0.0, 2000.0)])
        with pytest.raises(SizeLimit):
            ancestry_consistency_check(10_000, big, 10.0, 1, seed=5)


class TestMatrixSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_COUPLINGS) + ["example"])
    @pytest.mark.parametrize("N", [2, 9, 40])
    def test_identity_rows_are_singleton_ancestors(self, example_coupling, name, N):
        coupling = SWEEP_COUPLINGS.get(name, example_coupling)
        for seed in range(3):
            realization = generate_asg(N, coupling, 3.0, seed=seed)
            for from_time, to_time in ((3.0, 0.0), (2.0, 0.5)):
                lo, hi = np.searchsorted(realization.times, [to_time, from_time], side="right")
                window = _realization_rounds(realization, range(hi - 1, lo - 1, -1))
                rows = _backward_rounds(window, np.eye(N, dtype=bool)[None])[0]
                for i in range(N):
                    got = {int(j) for j in np.nonzero(rows[i])[0]}
                    assert got == potential_ancestors(realization, {i}, from_time, to_time)
                    assert got == reference_potential_ancestors(
                        realization, {i}, from_time, to_time
                    )

    @pytest.mark.parametrize("N", [2, 9, 40])
    def test_samples_match_reference(self, N):
        rng = np.random.default_rng(N)
        for seed in range(5):
            realization = generate_asg(N, EDGES, 3.0, seed=seed)
            for _ in range(10):
                sample = rng.permutation(N)[: rng.integers(1, N + 1)]
                to_time, from_time = np.sort(rng.uniform(0.0, 3.0, 2))
                assert potential_ancestors(realization, sample, from_time, to_time) == \
                    reference_potential_ancestors(realization, sample, from_time, to_time)


def grid_realization(rng, N, E, horizon=2.0):
    """E events with random marks at times drawn from the quarters of
    [0, horizon], 0 and the horizon included, so several events share a time."""
    return AsgRealization(
        N=N, horizon=horizon,
        times=np.sort(rng.integers(0, 5, E)) * horizon / 4,
        reproducers=rng.integers(0, N, E),
        ys=np.full(E, 0.4), zs=np.full(E, 0.3),
        outcomes=rng.integers(0, 3, (E, N)).astype(np.uint8),
    )


class TestEventsOnTheWindowEdges:
    def test_an_event_at_time_zero_propagates(self):
        asg = one_event_realization(4, reproducer=0, outcome_pairs=[(1, OUTCOME_NEUTRAL)])
        at_zero = dataclasses.replace(asg, times=np.array([0.0]))
        assert propagate_forward(at_zero, {0}) == {0, 1}

    @pytest.mark.parametrize("N", [2, 5, 12])
    def test_forward_matches_the_reference(self, N):
        rng = np.random.default_rng(N)
        for _ in range(30):
            realization = grid_realization(rng, N, int(rng.integers(1, 12)))
            init = rng.random(N) < 0.5
            assert propagate_forward(realization, np.flatnonzero(init)) == \
                set(np.flatnonzero(reference_propagate_forward(realization, init)).tolist())

    @pytest.mark.parametrize("N", [2, 5, 12])
    def test_ancestors_match_the_reference(self, N):
        rng = np.random.default_rng(100 + N)
        edges = np.arange(5) * 2.0 / 4
        for _ in range(30):
            realization = grid_realization(rng, N, int(rng.integers(1, 12)))
            sample = rng.permutation(N)[: rng.integers(1, N + 1)]
            # both ends of the window on event times, 0 and the horizon included
            to_time, from_time = np.sort(rng.choice(edges, 2))
            assert potential_ancestors(realization, sample, from_time, to_time) == \
                reference_potential_ancestors(realization, sample, from_time, to_time)

    def test_the_rules_hold_nothing_per_event(self):
        # the rounds of a realization are made one at a time: a pass over
        # 5000 events peaks at a few kB (a list of rounds would take ~1.5 MB)
        realization = grid_realization(np.random.default_rng(3), 2, 5000)
        for rule in (lambda: propagate_forward(realization, {0}),
                     lambda: potential_ancestors(realization, {0}, 2.0, 0.0)):
            tracemalloc.start()
            try:
                rule()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000


class TestEventLog:
    def test_round_trip(self, tmp_path, example_coupling):
        asg = generate_asg(7, example_coupling, horizon=8.0, seed=14)
        path = tmp_path / "events.asg"
        write_event_log(asg, str(path))
        back = read_event_log(str(path))
        assert back.N == asg.N
        assert back.horizon == asg.horizon
        assert np.array_equal(back.times, asg.times)
        assert np.array_equal(back.reproducers, asg.reproducers)
        assert np.array_equal(back.ys, asg.ys)
        assert np.array_equal(back.outcomes, asg.outcomes)

    def test_header_layout(self, tmp_path, example_coupling):
        asg = generate_asg(3, example_coupling, horizon=1.0, seed=15)
        path = tmp_path / "events.asg"
        write_event_log(asg, str(path))
        raw = path.read_bytes()
        assert raw[:4] == b"ASG1"
        assert int.from_bytes(raw[4:8], "little") == 3
        assert np.frombuffer(raw[8:16], "<f8")[0] == 1.0
        record = 8 + 4 + 8 + 8 + 3
        assert (len(raw) - 16) % record == 0

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError):
            read_event_log(str(path))

    @pytest.mark.parametrize("keep, message", [
        (10, "truncated header, 10 of 16 bytes found"),
        (16 + 3 * 33 + 5, "truncated record, 104 bytes after the header are not a "
                          "multiple of the 33-byte record size"),
    ], ids=["header", "record"])
    def test_truncated_log_names_the_file(self, tmp_path, example_coupling, keep, message):
        path = tmp_path / "events.asg"
        assert stream_asg_to_log(5, example_coupling, 10.0, 17, str(path)) > 3
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_event_log(str(path))

    @staticmethod
    def log_of(tmp_path, **columns):
        """A log of three events at N = 4 on [0, 2], on the edges of every
        invariant (times 0 and 2, y + z = 1, label 2, reproducer 3), with
        ``columns`` replaced as given."""
        fields = dict(
            N=4, horizon=2.0, times=np.array([0.0, 0.5, 2.0]), reproducers=np.array([0, 3, 1]),
            ys=np.array([0.4, 0.0, 1.0]), zs=np.array([0.6, 0.5, 0.0]),
            outcomes=np.array([[0, 1, 2, 0]] * 3, dtype=np.uint8),
        )
        path = tmp_path / "events.asg"
        write_event_log(AsgRealization(**{**fields, **columns}), str(path))
        return path

    def test_reads_a_log_on_the_edges(self, tmp_path):
        back = read_event_log(str(self.log_of(tmp_path)))
        assert back.times.tolist() == [0.0, 0.5, 2.0]
        assert back.reproducers.tolist() == [0, 3, 1]

    @pytest.mark.parametrize("N, horizon, message", [
        (0, np.nan, "header field N is 0; need at least two individuals"),
        (1, 1.0, "header field N is 1; need at least two individuals"),
        (4, np.nan, "header field horizon is nan; need it finite and positive"),
        (4, np.inf, "header field horizon is inf; need it finite and positive"),
        (4, 0.0, "header field horizon is 0.0; need it finite and positive"),
        (4, -1.0, "header field horizon is -1.0; need it finite and positive"),
    ])
    def test_refuses_a_bad_header(self, tmp_path, N, horizon, message):
        path = tmp_path / "events.asg"
        path.write_bytes(b"ASG1" + struct.pack("<Id", N, horizon))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_event_log(str(path))

    @pytest.mark.parametrize("times", [[0.5, 0.2, 1.0], [-0.1, 0.5, 1.0], [0.0, 0.5, 2.5],
                                       [0.0, np.nan, 1.0]])
    def test_refuses_times_out_of_order_or_range(self, tmp_path, times):
        path = self.log_of(tmp_path, times=np.array(times))
        message = "field t: times must be nondecreasing within [0, 2.0]"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_event_log(str(path))

    @pytest.mark.parametrize("reproducer", [4, 9])
    def test_refuses_a_reproducer_outside_the_population(self, tmp_path, reproducer):
        path = self.log_of(tmp_path, reproducers=np.array([0, reproducer, 1]))
        message = f"field reproducer: reproducer {reproducer} is not below N = 4"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_event_log(str(path))

    @pytest.mark.parametrize("label", [3, 7])
    def test_refuses_an_unknown_label(self, tmp_path, label):
        outcomes = np.array([[0, 1, 2, 0], [0, label, 0, 0], [0] * 4], dtype=np.uint8)
        path = self.log_of(tmp_path, outcomes=outcomes)
        message = f"field outcome: label {label} is above OUTCOME_SELECTIVE = 2"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_event_log(str(path))

    @pytest.mark.parametrize("ys, zs", [
        ([0.4, -0.1, 1.0], [0.6, 0.5, 0.0]),
        ([0.4, 0.0, 1.0], [0.6, -1e-9, 0.0]),
        ([0.4, np.nan, 1.0], [0.6, 0.5, 0.0]),
        ([0.4, 0.0, np.inf], [0.6, 0.5, 0.0]),
        ([0.4, 0.0, 1.0], [0.6, 0.5, 1e-9]),
    ])
    def test_refuses_an_atom_off_the_simplex(self, tmp_path, ys, zs):
        path = self.log_of(tmp_path, ys=np.array(ys), zs=np.array(zs))
        message = "field y, z: need finite y, z >= 0 with y + z <= 1"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_event_log(str(path))

    def test_streaming_deterministic(self, tmp_path, example_coupling):
        p1 = tmp_path / "a.asg"
        p2 = tmp_path / "b.asg"
        n1 = stream_asg_to_log(6, example_coupling, 40.0, 16, str(p1))
        n2 = stream_asg_to_log(6, example_coupling, 40.0, 16, str(p2))
        assert n1 == n2
        assert p1.read_bytes() == p2.read_bytes()
        back = read_event_log(str(p1))
        assert len(back) == n1
        assert np.all(np.diff(back.times) > 0)

    @pytest.mark.parametrize("N, events, several_blocks", [
        (2, 40, False), (3, 900, False), (6, 40, False), (37, 300, False),
        (1000, 3000, True), (999, 3000, True),
    ])
    def test_stream_equals_in_memory(self, tmp_path, example_coupling, N, events, several_blocks):
        horizon = events / example_coupling.total_mass
        streamed = tmp_path / "streamed.asg"
        written = tmp_path / "written.asg"
        count = stream_asg_to_log(N, example_coupling, horizon, 21, str(streamed))
        write_event_log(generate_asg(N, example_coupling, horizon, seed=21), str(written))
        assert (count > BLOCK_LABELS // N) == several_blocks
        assert streamed.read_bytes() == written.read_bytes()

    def test_stream_over_a_longer_log_writes_a_fresh_log(self, tmp_path, example_coupling):
        # a log of another N, longer than the new one, is truncated first
        fresh, reused = tmp_path / "fresh.asg", tmp_path / "reused.asg"
        stream_asg_to_log(50, example_coupling, 40.0, 3, str(reused))
        old_size = reused.stat().st_size
        count = stream_asg_to_log(6, example_coupling, 20.0, 4, str(reused))
        stream_asg_to_log(6, example_coupling, 20.0, 4, str(fresh))
        assert reused.stat().st_size < old_size
        assert reused.read_bytes() == fresh.read_bytes()
        back = read_event_log(str(reused))
        assert (back.N, len(back)) == (6, count)

    def test_stream_rejects_bad_size(self, tmp_path, example_coupling):
        with pytest.raises(ValueError):
            stream_asg_to_log(1, example_coupling, 1.0, 1, str(tmp_path / "a.asg"))
        with pytest.raises(ValueError):
            stream_asg_to_log(4, example_coupling, 0.0, 1, str(tmp_path / "b.asg"))

