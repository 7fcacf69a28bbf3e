#!/usr/bin/env python3
"""Run the named mutants of the package against its tests.

Each mutant replaces one exact piece of text (it must occur once) in one
file of a temporary copy of ``src/`` and ``tests/`` (and ``README.md``, which
tests read), never in the working tree, and runs the mutant's tests there
with ``pytest -x``, one mutant at a time, under a per-mutant timeout.  A
mutant's tests are test files or pytest node ids (``file::Class::test``); a
node id names the test meant to kill it, so the report names that test and
not the first failure in file order.
The digest pins (tests named ``*pinned*``) run only if every other test
passes, so a mutant is reported as:

- ``killed``: a test other than a digest pin fails (or the run times out);
- ``digest-only``: only a digest pin fails;
- ``survived``: every test passes;
- ``equivalent``: every test passes and the table gives the reason the
  mutant cannot be told apart.

Standard library only.  Exits 1 if a mutant without an equivalence reason
survives or is caught only by a digest pin.

Usage: python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# the digest pins: byte hashes of outputs, which any change of bits breaks
DIGESTS = "pinned"
# seconds per pytest run; the slowest mutant of the table takes about 11 s
TIMEOUT = 600.0


class Mutant(NamedTuple):
    name: str
    file: str            # relative to the root
    old: str             # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # test files or pytest node ids, relative to the root
    equivalent: str | None = None  # why no test can tell it apart, if so


ASG, CLI, LIMITS = "src/lambda_asg/asg.py", "src/lambda_asg/cli.py", "src/lambda_asg/limits.py"
DUALITY = "src/lambda_asg/duality.py"
ERRORS, MEASURES, MORAN = (
    "src/lambda_asg/errors.py", "src/lambda_asg/measures.py", "src/lambda_asg/moran.py"
)
FIXATION, RATES, RNG = (
    "src/lambda_asg/fixation.py", "src/lambda_asg/rates.py", "src/lambda_asg/rng.py"
)
TEST_ASG, TEST_MORAN = ("tests/test_asg.py",), ("tests/test_moran.py",)
TEST_ERRORS, TEST_FIXATION = ("tests/test_errors.py",), ("tests/test_fixation.py",)
# the rate rows of one event, and its pathwise duality, enumerated case by case
ENUMERATION = "tests/test_asg.py::TestOneEventEnumeration::"
PATHWISE = "tests/test_asg.py::TestOneEventPathwiseDuality::"
# each label of a row of every byte, against the float comparison
LABEL_BYTES = "tests/test_asg.py::TestLabelRule::test_bytes_and_ties_are_the_float_comparison"

MUTANTS = [
    Mutant("window_side", ASG,
           'lo = int(np.searchsorted(asg.times, to_time, side="right"))',
           'lo = int(np.searchsorted(asg.times, to_time, side="left"))', TEST_ASG),
    Mutant("window_end_side", ASG,
           'hi = int(np.searchsorted(asg.times, from_time, side="right"))',
           'hi = int(np.searchsorted(asg.times, from_time, side="left"))', TEST_ASG),
    Mutant("windowed_forward", ASG,
           "rounds = _event_rounds(itertools.repeat(1, len(asg)), asg.reproducers, asg.outcomes)",
           'lo = int(np.searchsorted(asg.times, 0.0, side="right"))\n'
           "    rounds = _event_rounds(\n"
           "        itertools.repeat(1, len(asg) - lo), asg.reproducers[lo:], asg.outcomes[lo:]\n"
           "    )", TEST_ASG),
    Mutant("round_start_fixed", ASG, "        start += width\n", "",
           ("tests/test_asg.py::TestRoundDraws::test_rounds_are_consecutive_rows",)),
    Mutant("window_not_reversed", ASG,
           "window = asg.reproducers[lo:hi][::-1], asg.outcomes[lo:hi][::-1]",
           "window = asg.reproducers[lo:hi], asg.outcomes[lo:hi]",
           ("tests/test_asg.py::TestMatrixSweep::test_samples_match_reference",)),
    Mutant("consistency_backward_reads_forward", ASG,
           "_backward_rounds(reversed(rounds),", "_backward_rounds(rounds,",
           ("tests/test_asg.py::TestConsistency::test_matches_per_individual_reference",)),
    Mutant("pathwise_backward_reads_forward", DUALITY,
           "_backward_rounds(reversed(rounds),", "_backward_rounds(rounds,",
           ("tests/test_duality.py::TestPathwiseDuality::test_replicate_matches_public_api",)),
    Mutant("backward_reproducer_join", ASG,
           "members[np.arange(L), :, reproducers] |= rows",
           "members[np.arange(L), :, reproducers] ^= rows",
           (ENUMERATION + "test_backward_rows_are_ancestor_rows",
            PATHWISE + "test_ancestors_of_a_set_are_the_union_of_its_members")),
    Mutant("forward_neutral_read_as_selective", ASG,
           "minus |= carrier & (outcomes == OUTCOME_NEUTRAL)",
           "minus |= carrier & (outcomes == OUTCOME_SELECTIVE)",
           (ENUMERATION + "test_forward_rows_are_moran_rows",
            PATHWISE + "test_advantaged_exactly_when_an_ancestor_is")),
    Mutant("tie_low_bits_inclusive", ASG,
           "return (k < hi) | ((k == hi) & (e < lo))",
           "return (k < hi) | ((k == hi) & (e <= lo))", TEST_ASG),
    Mutant("sum_byte_strict", ASG,
           "np.less_equal(k, below_s[a, None], out=o.view(bool))",
           "np.less(k, below_s[a, None], out=o.view(bool))", (LABEL_BYTES,)),
    Mutant("y_one_rows_dropped", ASG, "            o[one[a]] = OUTCOME_NEUTRAL\n", "",
           (LABEL_BYTES,)),
    Mutant("sum_zero_rows_dropped", ASG, "            o[zero[a]] = OUTCOME_NONE\n", "",
           (LABEL_BYTES,)),
    Mutant("call_tie_flag_reads_only_y", ASG,
           "may_tie = (ly > 0).any() or (ls > 0).any()",
           "may_tie = (ly > 0).any() or (ly > 0).any()", (LABEL_BYTES,)),
    Mutant("tie_search_reads_only_y", ASG,
           "tie_y, tie_s = (ly[a] > 0).any(), (ls[a] > 0).any()",
           "tie_y, tie_s = (ly[a] > 0).any(), (ly[a] > 0).any()", (LABEL_BYTES,)),
    Mutant("realization_mass_scaled", ASG,
           "return rng, _event_counts(rng, coupling.total_mass, horizon)",
           "return rng, _event_counts(rng, 1.1 * coupling.total_mass, horizon)",
           ("tests/test_asg.py::TestGeneration::test_same_draws_as_reference",)),
    Mutant("ancestor_gap_shrunk", ASG,
           "s = y + c.zs[a]", "s = y + 0.9 * c.zs[a]",
           ("tests/test_asg.py::TestAncestorEventRule::test_one_event_law",)),
    Mutant("log_reproducer_bound", ASG,
           'reproducer < N, f"reproducer', 'reproducer <= N, f"reproducer', TEST_ASG),
    Mutant("log_label_bound", ASG,
           "label <= OUTCOME_SELECTIVE,", "label <= OUTCOME_SELECTIVE + 1,", TEST_ASG),
    Mutant("log_times_from_zero", ASG,
           "np.diff(t, prepend=0.0, append=horizon)",
           "np.diff(t, prepend=-np.inf, append=horizon)", TEST_ASG),
    Mutant("neutral_field_fixed_false", CLI,
           '"neutral": coupling.selective_mass() == 0.0,', '"neutral": False,',
           ("tests/test_cli.py::TestRun::test_neutral_fixation_exits_by_the_series_convergence",)),
    Mutant("S_denominator_shifted", DUALITY,
           "/ (N - m)", "/ (N - m + 1)",
           ("tests/test_duality.py::TestSamplingFunction::test_small_case",)),
    Mutant("sampling_factor_shifted", DUALITY,
           "np.maximum(i - m, 0.0)", "np.maximum(i - m - 1, 0.0)", ("tests/test_duality.py",)),
    Mutant("limit_duality_bound_twelve", DUALITY,
           'check_range("n_max", n_max, 1, MAX_DENSE_N)', 'check_range("n_max", n_max, 1, 12)',
           ("tests/test_duality.py::TestLimitGeneratorDuality::test_high_orders_stay_at_rounding",)),
    Mutant("chain_clock_scaled", LIMITS,
           "np.add(t[:n], dt, out=t[:n])", "np.add(t[:n], 0.98 * dt, out=t[:n])",
           ("tests/test_limits.py::TestCompactedChain::test_moment_settings",)),
    Mutant("chain_jump_stays", LIMITS,
           "np.add(s_next[:n], 1, out=s[:n])", "np.add(s_next[:n], 0, out=s[:n])",
           ("tests/test_limits.py::TestLimitChain::test_batch_matches_path_distribution",)),
    Mutant("truncation_reads_y", LIMITS,
           "keep = coupling.ys**2 > scheme.N", "keep = coupling.ys > scheme.N",
           ("tests/test_limits.py::TestTruncation",)),
    Mutant("ks_one_sided", LIMITS,
           "return np.abs(gap, out=gap).max(axis=-1)", "return gap.max(axis=-1)",
           ("tests/test_limits.py::TestKs::test_handles_ties",)),
    Mutant("bootstrap_ddof_zero", LIMITS,
           "return float(stats.std(ddof=1))", "return float(stats.std(ddof=0))",
           ("tests/test_limits.py::TestKsCounting::"
            "test_bootstrap_matches_sorted_reference_with_the_same_draws",)),
    Mutant("table_cap_off_by_one", LIMITS,
           "table.grow(min(2 * top, MAX_DENSE_N))",
           "table.grow(min(2 * top, MAX_DENSE_N - 1))", ("tests/test_limits.py",)),
    Mutant("table_limit_checked_late", LIMITS,
           "if top >= MAX_DENSE_N:", "if top > MAX_DENSE_N:", ("tests/test_limits.py",)),
    Mutant("ks_shared_values_merged", LIMITS,
           "(holder[1:] != holder[:-1]) | (holder[1:] == 3)", "(holder[1:] != holder[:-1])",
           ("tests/test_limits.py",)),
    Mutant("sde_gap_shrunk", LIMITS,
           "c.ys[a] + c.zs[a] * (up ^ True)", "c.ys[a] + 0.99 * c.zs[a] * (up ^ True)",
           ("tests/test_limits.py::TestSdeEvents",)),
    Mutant("initial_count_truncates", MORAN,
           "    return int(round(x0 * N))\n", "    return int(x0 * N)\n",
           ("tests/test_moran.py::test_initial_count_returns_the_count_of_its_frequency",)),
    Mutant("moran_reproducer_on_the_edge", MORAN,
           "minus = rng.random(n) * N < counts", "minus = rng.random(n) * N <= counts",
           TEST_MORAN,
           equivalent="differs only when a float64 uniform times N lands exactly on an "
                      "integer, an event of probability about 2^-53 per draw"),
    Mutant("minus_reproducer_reads_y_plus_z", MORAN,
           "c.ys[a] + c.zs[a] * (minus ^ True)", "c.ys[a] + c.zs[a]",
           TEST_MORAN),
    Mutant("event_times_shrunk", MORAN,
           "    times *= horizon\n", "    times *= 0.999 * horizon\n",
           ("tests/test_asg.py::TestGeneration::test_same_draws_as_reference",)),
    Mutant("path_marks_every_event", MORAN,
           "        if after != before:\n", "        if True:\n", TEST_MORAN),
    Mutant("array_route_records_row_zero", MORAN,
           "        runs = np.array(seen).T.tolist()\n",
           "        runs = np.array(seen)[:, :1].T.tolist() * keep\n", TEST_MORAN),
    Mutant("one_row_count_by_poisson", MORAN,
           "        counts = [_event_counts(rng, rate, horizon)]\n",
           "        counts = [rng.poisson(rate * horizon)]\n", TEST_MORAN),
    Mutant("one_row_stop_dropped", MORAN,
           "            if not lo < v < hi:\n                break\n", "", TEST_MORAN),
    Mutant("one_row_steps_from_lo", MORAN,
           "            if not lo < v < hi:\n", "            if not lo <= v < hi:\n", TEST_MORAN),
    Mutant("moran_row_reads_y_for_s", RATES,
           "np.multiply(1.0 - x, self.s[i][:0:-1], out=row[:i])",
           "np.multiply(1.0 - x, self.y[i][:0:-1], out=row[:i])",
           ("tests/test_rates.py::TestLawReadsOnlyThePair",)),
    Mutant("rates_gap_shrunk", RATES,
           "p = np.concatenate([c.ys, c.ys + c.zs])",
           "p = np.concatenate([c.ys, c.ys + 0.9 * c.zs])",
           ("tests/test_rates.py::TestMixtureTables::test_rows_match_scipy",)),
    Mutant("branch_reads_y_only", RATES,
           "self.branch = (powers[:, : len(c)] - powers[:, len(c) :]) @ c.masses",
           "self.branch = powers[:, : len(c)] @ c.masses",
           ("tests/test_rates.py::TestMixtureTables::test_rows_match_scipy",)),
    Mutant("ancestor_branch_ignores_inside", RATES,
           "row[n + 1] = (1.0 - x) * self.branch[n]", "row[n + 1] = self.branch[n]",
           ("tests/test_rates.py::TestAncestorRates::"
            "test_finite_n_truncations_are_leading_rows",)),
    Mutant("simplex_z_unclamped", MEASURES,
           "zs = np.minimum(np.clip(zs, 0.0, 1.0), 1.0 - ys)", "zs = np.clip(zs, 0.0, 1.0)",
           ("tests/test_measures.py::TestCoupledMeasureInvariants::"
            "test_roundoff_off_the_simplex_is_clamped",)),
    Mutant("raw_pair_order_check", MEASURES,
           "    scale = lp.total_mass\n",
           "    if order_violation_witness(lm, lp) is not None:\n"
           '        raise OrderViolation("raw pair refused")\n'
           "    scale = lp.total_mass\n",
           ("tests/test_measures.py::TestCouplingFromPair::"
            "test_beta_pair_couples_at_large_mass",)),
    Mutant("dust_absolute", MEASURES,
           "return float((MASS_DROP * ms).sum())", "return MASS_DROP",
           ("tests/test_measures.py::TestFiniteMeasure::test_dust_is_a_share_of_the_total",
            "tests/test_measures.py::TestCoupledMeasureInvariants::"
            "test_dust_is_a_share_of_the_total")),
    Mutant("compensator_dropped", MEASURES, "    if c > MASS_DROP:\n", "    if c > 1.0:\n",
           ("tests/test_measures.py::TestCouplingFromPair::"
            "test_lighter_lower_gets_a_compensator_at_zero",)),
    Mutant("check_gate_absolute", CLI,
           "mismatch > 1e-12 * lp.total_mass", "mismatch > 1e-12",
           ("tests/test_cli.py::TestCheck::test_ordered_pair_at_large_total_mass_is_valid",)),
    Mutant("poisson_table_last_entry_not_one", MORAN, "    cdf[-1] = 1.0\n", "", TEST_MORAN),
    Mutant("zero_horizon_accepted", ERRORS, "    if value <= 0:\n", "    if value < 0:\n",
           TEST_MORAN),
    Mutant("infinite_horizon_accepted", ERRORS,
           "    if not math.isfinite(value):\n"
           '        raise ValueError(f"{name} must be positive and finite, got {value}")\n',
           "", TEST_MORAN),
    Mutant("writer_keeps_the_old_bytes", ERRORS,
           'with open(path, "wb") as fh:', 'with open(path, "ab") as fh:', TEST_ERRORS),
    Mutant("lower_bound_strict", ERRORS,
           "        if not value >= lo:\n", "        if not value > lo:\n", TEST_ERRORS),
    Mutant("lower_bound_nan_accepted", ERRORS,
           "        if not value >= lo:\n", "        if value < lo:\n", TEST_ERRORS),
    Mutant("range_lower_bound_strict", ERRORS,
           "    elif not lo <= value <= hi:\n", "    elif not lo < value <= hi:\n", TEST_ERRORS),
    Mutant("range_upper_bound_strict", ERRORS,
           "    elif not lo <= value <= hi:\n", "    elif not lo <= value < hi:\n", TEST_ERRORS),
    Mutant("range_nan_accepted", ERRORS,
           "    elif not lo <= value <= hi:\n", "    elif value < lo or value > hi:\n",
           TEST_ERRORS),
    Mutant("non_finite_param_accepted", CLI,
           "    if isinstance(value, float) and not math.isfinite(value):\n"
           '        raise ValueError(f"{name} must be finite, got {value}")\n',
           "", ("tests/test_cli.py",)),
    Mutant("y_marginal", MEASURES,
           "return FiniteMeasure1D.from_atoms(zip(self.ys, self.masses))",
           "return FiniteMeasure1D.from_atoms(zip(self.ys + 0.5 * self.zs, self.masses))",
           ("tests/test_measures.py::TestQuantileCoupling::test_marginals_exact_on_random_pairs",)),
    Mutant("sum_marginal", MEASURES,
           "return FiniteMeasure1D.from_atoms(zip(self.ys + self.zs, self.masses))",
           "return FiniteMeasure1D.from_atoms(zip(self.ys + 0.5 * self.zs, self.masses))",
           ("tests/test_measures.py::TestQuantileCoupling::test_marginals_exact_on_random_pairs",)),
    Mutant("tail_mass_slop_flipped", MEASURES,
           "self.locations >= x - 1e-15", "self.locations > x + 1e-15",
           ("tests/test_measures.py::TestFiniteMeasure::"
            "test_tail_mass_holds_an_atom_on_its_edge",)),
    Mutant("inversion_count_strict", MEASURES,
           "count += u >= edge", "count += u > edge", ("tests/test_measures.py", *TEST_MORAN)),
    Mutant("series_weight_shifted", FIXATION,
           "2.0**n / math.factorial(n)", "2.0**n / math.factorial(n + 1)", TEST_FIXATION),
    Mutant("diagonal_seed_from_one", FIXATION,
           "a[n] = float(q[n - 1] / M[n - 1, 0] * prev[n - 1])",
           "a[n] = float((q[n - 1] / M[n - 1, 0] if n > 1 else 1.0) * prev[n - 1])",
           TEST_FIXATION),
    Mutant("order_zero_accepted", FIXATION,
           'check_range("nmax", nmax, 1, MAX_ORDER)', 'check_range("nmax", nmax, 0, MAX_ORDER)',
           (*TEST_FIXATION, *TEST_ERRORS)),
    Mutant("order_checked_after_the_moments", FIXATION,
           '    check_range("nmax", nmax, 1, MAX_ORDER)\n'
           "    w, y, z = coupling.masses, coupling.ys, coupling.zs\n",
           "    w, y, z = coupling.masses, coupling.ys, coupling.zs\n"
           '    check_range("nmax", nmax, 1, MAX_ORDER)\n', TEST_FIXATION),
    Mutant("sequence_order_zero_accepted", FIXATION,
           'check_range("nmax", self.nmax, 1, MAX_ORDER)',
           'check_range("nmax", self.nmax, 0, MAX_ORDER)', TEST_ERRORS),
    Mutant("single_paths_share_replicate_zero", RNG,
           "run(1, substream(seed, tag, replicate), *args, 1)",
           "run(1, substream(seed, tag, 0), *args, 1)", ("tests/test_rng.py", *TEST_MORAN)),
    Mutant("moment_M_reads_y_once", FIXATION,
           "M += (wa * ya * ya / tilde_mass)", "M += (wa * ya / tilde_mass)",
           ("tests/test_fixation.py::TestMomentTable::test_single_atom_values",)),
    Mutant("q_recursion_reads_a", FIXATION,
           "S[j] += B * S[j - 1]", "S[j] += A * S[j - 1]",
           ("tests/test_fixation.py::TestMomentTable::test_matches_exact_rational",)),
    Mutant("neutral_refusal_restored", FIXATION,
           "    M, q, nmax = table.M, table.q, table.nmax\n",
           "    M, q, nmax = table.M, table.q, table.nmax\n"
           "    if np.any(q <= 0.0):\n"
           '        raise NearSingular("q vanishes")\n',
           ("tests/test_fixation.py::TestPolynomialRecursion::"
            "test_neutral_polynomials_are_constants",)),
    Mutant("series_drops_its_last_order", FIXATION,
           "    last = np.zeros_like(xs)\n    for n in range(1, seq.nmax + 1):\n",
           "    last = np.zeros_like(xs)\n    for n in range(1, seq.nmax):\n", TEST_FIXATION),
]


def _pytest(copy: Path, tests: tuple[str, ...], select: str) -> tuple[int, str]:
    """Exit code of ``pytest -x`` on ``tests`` with ``-k select`` in ``copy``,
    and the id of the first failing test (5, no test selected, reads as 0)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         "-k", select, *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT,
    )
    failed = [
        line.split()[1] for line in run.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return (0 if run.returncode == 5 else run.returncode), (failed[0] if failed else "")


def run_mutant(mutant: Mutant, root: Path) -> tuple[str, str]:
    """``(status, detail)`` of one mutant, run on a temporary copy of ``root``.

    Raises:
        ValueError: if the mutant's old text does not occur exactly once.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part)
        if (root / "README.md").exists():
            shutil.copy(root / "README.md", copy / "README.md")
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(
                f"mutant {mutant.name}: old text occurs {text.count(mutant.old)} times "
                f"in {mutant.file}, need exactly once"
            )
        target.write_text(text.replace(mutant.old, mutant.new))
        try:
            code, failed = _pytest(copy, mutant.tests, f"not {DIGESTS}")
            if code:
                return "killed", failed
            code, failed = _pytest(copy, mutant.tests, DIGESTS)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {TIMEOUT:g} s"
    if code:
        return "digest-only", failed
    if mutant.equivalent:
        return "equivalent", mutant.equivalent
    return "survived", ""


def run(mutants: list[Mutant], root: Path = ROOT) -> int:
    """Print one line per mutant: name, status, seconds and the killing test
    or the reason; 1 if a mutant without an equivalence reason was not
    killed by a test other than a digest pin, else 0."""
    missed = 0
    for mutant in mutants:
        start = time.perf_counter()
        status, detail = run_mutant(mutant, root)
        missed += status in ("survived", "digest-only")
        print(f"{mutant.name:36s} {status:12s} {time.perf_counter() - start:7.1f}s  {detail}",
              flush=True)
    return int(missed > 0)


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
