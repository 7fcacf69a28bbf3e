"""Benchmark workloads: inputs made from the workload seed, and the checks
each operation must pass.

One operation is one CLI experiment (run in-process through
``lambda_asg.cli.main``) or one library stage.  It fails on a nonzero exit
code or when a check on its artifacts fails; the thresholds are those of the
acceptance criteria and are never loosened.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lambda_asg import asg, cli, limits, measures

EXAMPLE_PAIR = {
    "lambda_minus": {"atoms": [[0.25, 0.5], [0.5, 0.5]]},
    "lambda_plus": {"atoms": [[0.5, 1 / 3], [0.75, 1 / 3], [1.0, 1 / 3]]},
}
FIX_A = [[0.4, 0.15, 0.8], [0.7, 0.1, 0.6]]
FIX_B = [[0.5, 0.1, 1.0], [0.25, 0.05, 1.0]]
MOMENT_COUPLING = [[0.3, 0.1, 1.0], [0.6, 0.2, 0.5]]
# atoms straddle the truncation thresholds sqrt(N^-0.4) for N = 50..800
STAIRCASE = [
    [0.46, 0.02, 0.45], [0.40, 0.02, 0.45], [0.35, 0.015, 0.40],
    [0.31, 0.015, 0.40], [0.27, 0.01, 0.30],
]

# worker processes the CLI may use; the benchmark is one closed loop
THREADS = 1

# acceptance-criterion thresholds
Z_MAX = 4.0
RESIDUAL_MAX = 1e-10
HARMONICITY_MAX = 1e-6
IDENTITY_MAX = 1e-9
ABSORPTION_DIFF_MAX = 2e-2

# fixed work per pass; "toy" keeps the self-test fast
SIZES = {
    "full": {
        "convergence_replicates": 10000, "bootstrap": 50,
        "moment_settings": [(0.3, 1, 0.5), (0.5, 2, 1.0), (0.7, 3, 1.0), (0.5, 3, 0.5)],
        "moment_replicates": 200000,
        "duality_N": [50, 100, 200, 300],
        "fine_grid": 1001, "compare_N": 300,
        "consistency_N": 12, "consistency_replicates": 500,
        "pathwise_replicates": 2000, "line_count_replicates": 400,
        "limit_paths": 300,
    },
    "toy": {
        "convergence_replicates": 2000, "bootstrap": 5,
        "moment_settings": [(0.5, 2, 1.0)], "moment_replicates": 20000,
        "duality_N": [5, 10, 20],
        "fine_grid": 51, "compare_N": 40,
        "consistency_N": 6, "consistency_replicates": 20,
        "pathwise_replicates": 200, "line_count_replicates": 30,
        "limit_paths": 30,
    },
}

# experiments and library stages, each timed to a verified result
STAGES = (
    "convergence", "moment_duality", "duality_matrix", "fixation",
    "asg_pathwise", "duality_pathwise", "line_count_sim", "limit_chain_paths",
    "asg_log",
)

# atoms of the coupling drawn from the seed for duality_matrix
RANDOM_ATOMS = 4

# the streamed log holds this many events, so events x N exceeds the cap
LOG_N = 1000
LOG_EVENTS = 11000


@dataclass
class Operation:
    name: str                           # unique; also the directory name
    stage: str                          # experiment or stage it reports under
    run: Callable[[], "str | None"]     # returns a failure reason or None
    outdir: Path                        # artifacts written by the operation
    span: str = "cli"                   # root span: a CLI run or a library stage


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _cli_op(root: Path, name: str, experiment: str, measures_spec: dict,
            params: dict, seed: int, check: Callable[[Path], "str | None"]) -> Operation:
    (root / name).mkdir(parents=True, exist_ok=True)
    config = root / name / "config.json"
    config.write_text(json.dumps({
        "experiment": experiment, "measures": measures_spec,
        "params": params, "seed": seed,
    }, indent=2, sort_keys=True) + "\n")
    out = root / name / "out"

    def run() -> "str | None":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "run", str(config), "--output-dir", str(out), "--threads", str(THREADS),
            ])
        if code != 0:
            return f"exit code {code}"
        return check(out)

    return Operation(name, experiment, run, out)


# -- artifact checks -------------------------------------------------------------


def _check_z(out: Path) -> "str | None":
    z = _json(out / "report.json")["z"]
    return None if abs(z) < Z_MAX else f"|z| = {abs(z):.3f} >= {Z_MAX}"


def _check_trend(out: Path) -> "str | None":
    if _json(out / "summary.json")["trend_nonincreasing"] is not True:
        return "KS trend is not nonincreasing"
    return None


def _check_residual(out: Path) -> "str | None":
    worst = max(r["residual"] for r in _json(out / "residual.json")["results"])
    return None if worst < RESIDUAL_MAX else f"residual {worst:.3e} >= {RESIDUAL_MAX}"


def _check_fixation(compare: bool) -> Callable[[Path], "str | None"]:
    def check(out: Path) -> "str | None":
        f = _json(out / "fixation.json")
        problems = []
        if f.get("converged") is not True:
            problems.append("series not converged")
        if not f["harmonicity_residual"] < HARMONICITY_MAX:
            problems.append(f"harmonicity {f['harmonicity_residual']:.3e}")
        if not f["identity_residual"] < IDENTITY_MAX:
            problems.append(f"identity {f['identity_residual']:.3e}")
        if compare and not f.get("max_abs_diff_vs_absorption", math.inf) < ABSORPTION_DIFF_MAX:
            problems.append(f"|p - absorption| {f.get('max_abs_diff_vs_absorption')}")
        return "; ".join(problems) or None

    return check


def _check_consistency(expected: int) -> Callable[[Path], "str | None"]:
    def check(out: Path) -> "str | None":
        report = _json(out / "report.json")
        if report["violations"] != 0:
            return f"{report['violations']} forward/backward violations"
        if report["individuals_checked"] != expected:
            return f"checked {report['individuals_checked']} of {expected} individuals"
        return None

    return check


def _check_line_counts(N: int, replicates: int, max_paths: int) -> Callable[[Path], "str | None"]:
    def check(out: Path) -> "str | None":
        finals = [int(row[1]) for row in _csv_rows(out / "finals.csv")]
        if len(finals) != replicates:
            return f"{len(finals)} finals for {replicates} replicates"
        if not all(1 <= f <= N for f in finals):
            return "final line count outside [1, N]"
        manifest = _json(out / "manifest.json")
        paths = [o for o in manifest["outputs"] if o.startswith("path_")]
        if len(paths) != min(replicates, max_paths):
            return f"{len(paths)} path files, expected {min(replicates, max_paths)}"
        return None

    return check


def _chain_path_problem(fp, n0: int, horizon: float) -> "str | None":
    steps = np.diff(fp.values)
    if fp.times[0] != 0.0 or fp.values[0] != n0:
        return "path does not start at (0, n0)"
    if np.any(np.diff(fp.times) <= 0.0) or fp.times[-1] > horizon:
        return "event times not increasing within the horizon"
    if fp.values.min() < 1 or np.any((steps == 0) | (steps > 1)):
        return "jump outside {+1, -1, -2, ...} or count below 1"
    return None


# -- library stages --------------------------------------------------------------


def _limit_chain_op(root: Path, coupling, n0: int, horizon: float, paths: int,
                    seed: int) -> Operation:
    out = root / "limit_chain_paths" / "out"

    def run() -> "str | None":
        out.mkdir(parents=True, exist_ok=True)
        finals = np.empty(paths, dtype=np.int64)
        for r in range(paths):
            fp = limits.simulate_limit_chain(coupling, n0, horizon, seed, replicate=r)
            problem = _chain_path_problem(fp, n0, horizon)
            if problem:
                return f"replicate {r}: {problem}"
            finals[r] = fp.final
        np.save(out / "finals.npy", finals)
        return None

    return Operation("limit_chain_paths", "limit_chain_paths", run, out, "stage")


def _asg_log_op(root: Path, coupling, seed: int) -> Operation:
    out = root / "asg_log" / "out"
    horizon = LOG_EVENTS / coupling.total_mass

    def run() -> "str | None":
        out.mkdir(parents=True, exist_ok=True)
        path = str(out / "events.asg")
        count = asg.stream_asg_to_log(LOG_N, coupling, horizon, seed, path)
        back = asg.read_event_log(path)
        problems = []
        if count * LOG_N <= asg.MAX_IN_MEMORY_OUTCOMES:
            problems.append(f"{count} events fit under the in-memory cap")
        if len(back) != count:
            problems.append(f"log holds {len(back)} events, stream wrote {count}")
        if back.N != LOG_N or back.horizon != horizon:
            problems.append("log header does not round-trip N and horizon")
        return "; ".join(problems) or None

    return Operation("asg_log", "asg_log", run, out, "stage")


# -- workloads -------------------------------------------------------------------


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _random_coupling(rng: random.Random, atoms: int) -> list[list[float]]:
    """Atoms (y, z, mass) on the simplex with positive selective mass."""
    out = []
    for _ in range(atoms):
        y = rng.uniform(0.0, 1.0)
        out.append([y, rng.uniform(0.0, 1.0) * (1.0 - y), rng.uniform(0.1, 1.0)])
    return out


def _coupling(atoms) -> dict:
    return {"coupling": {"atoms": atoms}}


def mc_marginals(root: Path, rng: random.Random, size: dict) -> list[Operation]:
    ops = [_cli_op(
        root, "convergence", "convergence", _coupling(STAIRCASE),
        {"x0": 0.5, "t": 2.0, "N_list": [50, 100, 200, 400, 800], "alpha": 0.4,
         "replicates": size["convergence_replicates"], "bootstrap": size["bootstrap"]},
        _seed(rng), _check_trend,
    )]
    for k, (x, n, t) in enumerate(size["moment_settings"]):
        ops.append(_cli_op(
            root, f"moment_{k}", "moment_duality",
            _coupling(MOMENT_COUPLING),
            {"x0": x, "n": n, "t": t, "replicates": size["moment_replicates"]},
            _seed(rng), _check_z,
        ))
    return ops


def exact_oracles(root: Path, rng: random.Random, size: dict) -> list[Operation]:
    specs = [EXAMPLE_PAIR, _coupling(_random_coupling(rng, RANDOM_ATOMS))]
    ops = [
        _cli_op(root, f"duality_{k}", "duality_matrix", spec,
                {"N": size["duality_N"]}, _seed(rng), _check_residual)
        for k, spec in enumerate(specs)
    ]
    for label, atoms in (("A", FIX_A), ("B", FIX_B)):
        ops.append(_cli_op(
            root, f"fixation_{label}_grid", "fixation",
            _coupling(atoms), {"nmax": 30, "grid": size["fine_grid"]},
            _seed(rng), _check_fixation(compare=False),
        ))
        ops.append(_cli_op(
            root, f"fixation_{label}_absorption", "fixation", _coupling(atoms),
            {"nmax": 30, "grid": 101, "compare_absorption_N": size["compare_N"]},
            _seed(rng), _check_fixation(compare=True),
        ))
    return ops


def per_path(root: Path, rng: random.Random, size: dict) -> list[Operation]:
    N_cons, reps = size["consistency_N"], size["consistency_replicates"]
    lines = size["line_count_replicates"]
    example = measures.coupling_from_pair(
        measures.measure_from_config(EXAMPLE_PAIR["lambda_minus"]),
        measures.measure_from_config(EXAMPLE_PAIR["lambda_plus"]),
    )
    return [
        _cli_op(root, "asg_pathwise", "asg_pathwise", EXAMPLE_PAIR,
                {"N": N_cons, "horizon": 2.0, "replicates": reps},
                _seed(rng), _check_consistency(N_cons * reps)),
        _cli_op(root, "duality_pathwise", "duality_pathwise", EXAMPLE_PAIR,
                {"N": 20, "t": 1.0, "x0": 0.5, "n": 3,
                 "replicates": size["pathwise_replicates"]},
                _seed(rng), _check_z),
        _cli_op(root, "line_count_sim", "line_count_sim", EXAMPLE_PAIR,
                {"N": 50, "n0": 5, "horizon": 2.0, "replicates": lines, "max_paths": 10},
                _seed(rng), _check_line_counts(50, lines, 10)),
        _limit_chain_op(root, example, 3, 2.0, size["limit_paths"], _seed(rng)),
        _asg_log_op(root, example, _seed(rng)),
    ]


BUILDERS = {
    "mc_marginals": mc_marginals,
    "exact_oracles": exact_oracles,
    "per_path": per_path,
}


def build(workload: str, seed: int, scale: str, root: Path) -> list[Operation]:
    """Operations of one pass, with their configs written under ``root``."""
    return BUILDERS[workload](root, random.Random(seed), SIZES[scale])
