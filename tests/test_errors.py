"""The one range rule: every count, order and frequency argument of the
library is refused by ``errors.check_range``, naming the argument, its bound
and the value, and a value on a bound is accepted.  Every other refusal of
the library raises its own type and message.  And the one file writer,
``errors.write_file``."""

import math
import os

import numpy as np
import pytest

from lambda_asg import asg, duality, fixation, limits, measures, moran, paths, rng
from lambda_asg.errors import NearSingular, OrderViolation, check_range, write_file
from lambda_asg.measures import CoupledMeasure

MILD = CoupledMeasure.from_atoms([(0.4, 0.15, 0.8), (0.7, 0.1, 0.6)])
CFG = moran.MoranConfig(N=5, coupling=MILD, initial_count=2)
# an order inside the range of build_moment_table, not on a bound, so that a
# mutant of the rule is caught by a test and not at collection
SEQ = fixation.build_polynomials(fixation.build_moment_table(MILD, 4))
# an order whose series converges on all of [0, 1]
SOLVER = fixation.build_fixation_solver(MILD, 30)
REALIZATION = asg.generate_asg(5, MILD, 0.5, seed=1)
SAMPLES = np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.6])
PATH = paths.FrequencyPath(times=np.array([0.0, 1.0]), values=np.array([3, 4]))

# entry point, argument name, bounds (hi None for a lower bound alone), and
# whether the argument is a float; each call puts the value in that argument
RANGES = {
    "asg.generate_asg": (lambda v: asg.generate_asg(v, MILD, 0.5, seed=1), "N", 2, None, False),
    "asg.ancestry_consistency_check":
        (lambda v: asg.ancestry_consistency_check(v, MILD, 0.5, 2, seed=1), "N", 2, None, False),
    "asg.stream_asg_to_log":
        (lambda v: asg.stream_asg_to_log(v, MILD, 0.5, 1, os.devnull), "N", 2, None, False),
    "asg.line_count_rates": (lambda v: asg.line_count_rates(5, MILD, v), "n", 1, 5, False),
    "asg.simulate_line_count":
        (lambda v: asg.simulate_line_count(5, MILD, v, 0.5, seed=1), "n0", 1, 5, False),
    "asg.simulate_line_count.replicate": (
        lambda v: asg.simulate_line_count(5, MILD, 2, 0.5, seed=1, replicate=v),
        "replicate", 0, None, False),
    "asg.potential_ancestors.from_time": (
        lambda v: asg.potential_ancestors(REALIZATION, [0], v, 0.0), "from_time", 0, 0.5, True),
    "asg.potential_ancestors.to_time": (
        lambda v: asg.potential_ancestors(REALIZATION, [0], 0.5, v), "to_time", 0, 0.5, True),
    "asg.line_count_replicates":
        (lambda v: asg.line_count_replicates(5, MILD, v, 0.5, 2, 1, 0), "n0", 1, 5, False),
    "duality.sampling_function.i": (lambda v: duality.sampling_function(5, v, 2), "i", 0, 5, False),
    "duality.sampling_function.n": (lambda v: duality.sampling_function(5, 2, v), "n", 0, 5, False),
    "duality.generator_duality_check":
        (lambda v: duality.generator_duality_check(v, MILD), "N", 2, None, False),
    "duality.pathwise_duality_check.initial_count": (
        lambda v: duality.pathwise_duality_check(5, MILD, 0.5, v, 2, 2, 1),
        "initial_count", 0, 5, False),
    "duality.pathwise_duality_check.sample_size": (
        lambda v: duality.pathwise_duality_check(5, MILD, 0.5, 2, v, 2, 1),
        "sample_size", 1, 5, False),
    "duality.pathwise_duality_check.N": (
        lambda v: duality.pathwise_duality_check(v, MILD, 0.5, 0, 1, 2, 1), "N", 2, None, False),
    "duality.limit_moment_duality_check":
        (lambda v: duality.limit_moment_duality_check(MILD, 0.5, v, 0.5, 2, 1), "n", 1, None, False),
    "duality.limit_generator_duality.n_max":
        (lambda v: duality.limit_generator_duality(MILD, v, 11), "n_max", 1, 12, False),
    "duality.limit_generator_duality.grid":
        (lambda v: duality.limit_generator_duality(MILD, 3, v), "grid", 1, None, False),
    "fixation.build_moment_table": (
        lambda v: fixation.build_moment_table(MILD, v), "nmax", 1, fixation.MAX_ORDER, False),
    "fixation.fixation_series.x": (
        lambda v: fixation.fixation_series(SEQ, np.array([0.5, v])), "x", 0, 1, True),
    "fixation.build_fixation_solver": (
        lambda v: fixation.build_fixation_solver(MILD, v), "nmax", 1, fixation.MAX_ORDER, False),
    "fixation.FixationSolver.p": (SOLVER.p, "x", 0, 1, True),
    "fixation.PolySeq": (
        lambda v: fixation.PolySeq([np.ones(1)] * (v + 1)), "nmax", 1, fixation.MAX_ORDER, False),
    "fixation.p_neutral": (fixation.p_neutral, "x", 0, 1, True),
    "fixation.harmonicity_residual":
        (lambda v: fixation.harmonicity_residual(SEQ, MILD, v), "grid", 1, None, False),
    "limits.simulate_sde.x0": (lambda v: limits.simulate_sde(MILD, v, 1.0, 1), "x0", 0, 1, True),
    "limits.sde_replicates":
        (lambda v: limits.sde_replicates(MILD, v, 1.0, 2, 1, 1), "x0", 0, 1, True),
    "limits.sde_final_values": (lambda v: limits.sde_final_values(MILD, v, 0.5, 2, 1), "x0", 0, 1, True),
    "limits.sde_absorption": (lambda v: limits.sde_absorption(MILD, v, 2, 1), "x0", 0, 1, True),
    "limits.TruncationScheme": (lambda v: limits.TruncationScheme(0.25, v), "N", 1, None, False),
    "limits.limit_chain_rates": (lambda v: limits.limit_chain_rates(MILD, v), "m", 1, None, False),
    "limits.simulate_limit_chain":
        (lambda v: limits.simulate_limit_chain(MILD, v, 0.5, 1), "n0", 1, None, False),
    "limits.simulate_limit_chain.replicate": (
        lambda v: limits.simulate_limit_chain(MILD, 2, 0.5, 1, replicate=v),
        "replicate", 0, None, False),
    "limits.simulate_sde": (
        lambda v: limits.simulate_sde(MILD, 0.5, 0.5, 1, replicate=v),
        "replicate", 0, None, False),
    "limits.chain_final_states":
        (lambda v: limits.chain_final_states(MILD, v, 0.5, 2, 1), "n0", 1, None, False),
    "limits.ks_bootstrap_stderr": (
        lambda v: limits.ks_bootstrap_stderr(*SAMPLES, v, np.random.default_rng(0)),
        "resamples", 2, None, False),
    "measures.measure_from_beta_density":
        (lambda v: measures.measure_from_beta_density(2.0, 3.0, grid=v), "grid", 1, None, False),
    "moran.MoranConfig.N": (lambda v: moran.MoranConfig(v, MILD, 0), "N", 2, None, False),
    "moran.MoranConfig.initial_count":
        (lambda v: moran.MoranConfig(5, MILD, v), "initial_count", 0, 5, False),
    "moran.initial_count": (lambda v: moran.initial_count(10, v), "x0", 0, 1, True),
    "moran.jump_rates": (lambda v: moran.jump_rates(CFG, v), "count", 0, 5, False),
    "moran.simulate": (
        lambda v: moran.simulate(CFG, 0.5, 1, replicate=v), "replicate", 0, None, False),
    "moran.simulate_final_counts":
        (lambda v: moran.simulate_final_counts(CFG, 0.5, v, 1), "replicates", 1, None, False),
    "paths.FrequencyPath.value_at": (PATH.value_at, "t", 0.0, None, True),
    "rng.substream": (lambda v: rng.substream(v, 1), "seed", 0, None, False),
    "rng.batched": (
        lambda v: rng.batched(v, 1, (0,), lambda n, gen: np.zeros(n)), "replicates", 1, None,
        False),
}


def _outside(lo, hi, is_float):
    """The values just outside each bound, NaN too for a float argument."""
    below = math.nextafter(lo, -math.inf) if is_float else lo - 1
    cases = [("below", below)]
    if hi is not None:
        cases.append(("above", math.nextafter(hi, math.inf) if is_float else hi + 1))
    return cases + ([("nan", math.nan)] if is_float else [])


REFUSED = [
    pytest.param(entry, value, id=f"{entry}-{case}")
    for entry, (_, _, lo, hi, is_float) in RANGES.items()
    for case, value in _outside(lo, hi, is_float)
]
ON_BOUND = [
    pytest.param(entry, bound, id=f"{entry}-{bound}")
    for entry, (_, _, lo, hi, _) in RANGES.items()
    for bound in ([lo] if hi is None else [lo, hi])
]


@pytest.mark.parametrize("entry, value", REFUSED)
def test_a_value_outside_its_range_is_refused_by_the_rule(entry, value):
    call, name, lo, hi, _ = RANGES[entry]
    bound = f"must be >= {lo}" if hi is None else f"must lie in [{lo}, {hi}]"
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} {bound}, got {value}"


@pytest.mark.parametrize("entry, value", ON_BOUND)
def test_a_value_on_a_bound_is_accepted(entry, value):
    RANGES[entry][0](value)


def test_messages_stay_byte_identical():
    with pytest.raises(ValueError) as info:
        limits.sde_final_values(MILD, 1.5, 0.5, 2, 1)
    assert str(info.value) == "x0 must lie in [0, 1], got 1.5"
    with pytest.raises(ValueError) as info:
        moran.simulate_final_counts(CFG, 0.5, 0, 1)
    assert str(info.value) == "replicates must be >= 1, got 0"


@pytest.mark.parametrize("value, hi, message", [
    (1, None, "v must be >= 2, got 1"),
    (math.nan, None, "v must be >= 2, got nan"),
    (-math.inf, None, "v must be >= 2, got -inf"),
    (-1e-300, 1, "v must lie in [0, 1], got -1e-300"),
    (1.0000000000000002, 1, "v must lie in [0, 1], got 1.0000000000000002"),
    (math.nan, 1, "v must lie in [0, 1], got nan"),
    (math.inf, 1, "v must lie in [0, 1], got inf"),
])
def test_the_rule_refuses_by_name_bound_and_value(value, hi, message):
    lo = 2 if hi is None else 0
    with pytest.raises(ValueError) as info:
        check_range("v", value, lo, hi)
    assert str(info.value) == message


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.1, math.nan])
def test_truncation_alpha_keeps_its_open_interval(alpha):
    # alpha = 0 keeps every atom and alpha = 1/2 leaves the scaling regime
    with pytest.raises(ValueError) as info:
        limits.TruncationScheme(alpha, 10)
    assert str(info.value) == f"alpha must lie in (0, 1/2), got {alpha}"
    limits.TruncationScheme(math.nextafter(0.0, 1.0), 10)
    limits.TruncationScheme(math.nextafter(0.5, 0.0), 10)


def test_a_series_of_order_zero_is_refused_not_converged():
    # an empty sum would read p = 0 with a last term of 0, which converges;
    # the order is refused where the table is built
    for build in (fixation.build_moment_table, fixation.build_fixation_solver):
        with pytest.raises(ValueError) as info:
            build(MILD, 0)
        assert str(info.value) == "nmax must lie in [1, 170], got 0"


def test_a_sequence_cut_to_order_zero_is_refused():
    # the first coefficient alone is h_0, a series with no term
    with pytest.raises(ValueError) as info:
        fixation.PolySeq(SEQ.coeffs[:1])
    assert str(info.value) == "nmax must lie in [1, 170], got 0"
    assert fixation.PolySeq(SEQ.coeffs[:2]).nmax == 1


def test_a_grid_names_its_first_x_outside_the_range():
    with pytest.raises(ValueError) as info:
        fixation.fixation_series(SEQ, np.array([[0.5, 1.25], [-1.0, 0.0]]))
    assert str(info.value) == "x must lie in [0, 1], got 1.25"


class TestFileWriter:
    @pytest.mark.parametrize("old", [b"x" * 1000, b"abc"], ids=["longer", "shorter"])
    def test_an_existing_file_holds_exactly_the_new_bytes(self, tmp_path, old):
        path = tmp_path / "f"
        path.write_bytes(old)
        write_file(path, [b"new ", b"bytes"])
        assert path.read_bytes() == b"new bytes"

    @pytest.mark.parametrize("old", [b"x" * 1000, None], ids=["existing", "missing"])
    def test_a_write_that_raises_leaves_its_prefix(self, tmp_path, old):
        path = tmp_path / "f"
        if old is not None:
            path.write_bytes(old)

        def chunks():
            yield b"first"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            write_file(path, chunks())
        assert path.read_bytes() == b"first"

    def test_an_existing_file_keeps_its_inode(self, tmp_path):
        # mode and a hard link survive the truncation
        path, link = tmp_path / "f", tmp_path / "link"
        path.write_bytes(b"x" * 100)
        path.chmod(0o640)
        os.link(path, link)
        inode = path.stat().st_ino
        write_file(path, [b"new"])
        assert path.stat().st_mode & 0o777 == 0o640
        assert path.stat().st_ino == inode
        assert link.read_bytes() == b"new"


# -- refusals outside the range rule ---------------------------------------------

# one atom whose second pivot, y^2 / (2 q) with q = z = 0.5, falls just below
# the fixation recursion's PIVOT_TOL = 1e-13
TINY_PIVOT = CoupledMeasure.from_atoms([(math.sqrt(1.5e-13 * 0.5), 0.5, 1.0)])
EMPTY_LINE = measures.FiniteMeasure1D.from_atoms([])
# the lower measure puts mass 1 on [0.5, 1], the upper only 0.5
UNORDERED = (
    measures.FiniteMeasure1D.from_atoms([(0.6, 1.0)]),
    measures.FiniteMeasure1D.from_atoms([(0.3, 0.5), (0.7, 0.5)]),
)

# entry point, exception type and message of each refusal
REFUSALS = {
    "asg.potential_ancestors.empty_sample": (
        lambda: asg.potential_ancestors(REALIZATION, [], 0.5, 0.0), ValueError,
        "sample must be nonempty"),
    "fixation.build_polynomials.small_pivot": (
        lambda: fixation.build_fixation_solver(TINY_PIVOT, 4), NearSingular,
        "pivot 7.500e-14 below 1e-13 at n=2, j=0"),
    "limits.sde_absorption.no_atoms": (
        lambda: limits.sde_absorption(CoupledMeasure.from_atoms([]), 0.5, 2, 1), ValueError,
        "absorption needs a coupling with events"),
    "measures.FiniteMeasure1D.scaled.negative": (
        lambda: UNORDERED[1].scaled(-1.0), ValueError, "scale factor must be nonnegative"),
    "measures.CoupledMeasure.scaled.negative": (
        lambda: MILD.scaled(-0.5), ValueError, "scale factor must be nonnegative"),
    "measures.normalize_pair.unordered": (
        lambda: measures.normalize_pair(*UNORDERED), OrderViolation,
        "tail mass of lambda_minus exceeds lambda_plus at x=0.6"),
    "measures.quantile_coupling.zero_mass": (
        lambda: measures.quantile_coupling(EMPTY_LINE, EMPTY_LINE), ValueError,
        "cannot couple zero-mass measures"),
    "measures.measure_from_config.not_beta": (
        lambda: measures.measure_from_config({"density": {"kind": "gamma", "params": [2, 2]}}),
        ValueError, "density must be {'kind': 'beta', ...}, got {'kind': 'gamma', 'params': [2, 2]}"),
    "paths.FrequencyPath.empty": (
        lambda: paths.FrequencyPath(times=np.zeros(0), values=np.zeros(0, dtype=np.int64)),
        ValueError, "a path needs at least its initial point"),
}


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_each_refusal_names_its_cause(entry):
    call, kind, message = REFUSALS[entry]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
