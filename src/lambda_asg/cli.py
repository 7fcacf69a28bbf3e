"""Experiment runner: ``lambda-asg run <config.json>`` / ``lambda-asg check``.

Configs are JSON objects::

    {
      "experiment": "duality_matrix",
      "measures": {"lambda_minus": {"atoms": [[0.25, 0.5], [0.5, 0.5]]},
                   "lambda_plus":  {"atoms": [[0.5, 0.333], ...]}},
      "params": {"N": 10},
      "seed": 20240801,
      "output_dir": "out"
    }

``measures`` holds either the ordered pair (coupled via the quantile
construction after normalization) or a ready-made ``coupling``; ``run`` and
``check`` read it with the same parser.  An experiment's params are the
keyword-only parameters of its runner: the annotation is the type, a param
without a default is required, and ``MINIMUM`` holds the lower bounds, the
seed's too.  ``cmd_run`` checks the params before the run: an unknown name, a
missing one, a wrong type, a float that is not finite (JSON's ``NaN`` and
``Infinity``) or a value below its minimum (by ``errors.check_range``) is a
config error.  One type rule, ``measures._typed``, reads every config value,
the measure specs' too.  Nothing is cast: an int is also a float, a bool is
not an int, and ``list[int]`` takes a non-empty list of ints or one bare int.
The worker count is set by ``--threads`` alone (default 1).  A runner gets
no output directory and writes nothing: it returns its exit code and its
artifacts, and ``cmd_run`` writes them and then ``manifest.json`` (config echo,
seed rule, wall time, artifact names), so a run that raises writes no
artifact.  An unknown key is refused by name at every level of a config.
Exit codes: 0 success, 1 validation error (a usage error included) or a
request too large for memory, 2 numerical acceptance failure.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__, asg, duality, fixation, limits, measures, moran
from .errors import LambdaAsgError, NotConverged, OrderViolation, check_range, write_file
from .rng import SEED_RULE


# -- config handling -----------------------------------------------------------

# lower bounds of params, by name, for every experiment that takes them, and
# of the seed
MINIMUM = {
    "replicates": 1, "bootstrap": 2, "grid": 1, "n_max": 1, "max_paths": 0,
    "compare_absorption_N": 0, "seed": 0,
}


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    measures._refuse_unknown(
        cfg, ("experiment", "measures", "params", "seed", "output_dir"), "config keys"
    )
    return cfg


def _field(cfg: dict, name: str, kind, default=inspect.Parameter.empty):
    """``cfg[name]`` checked by :func:`lambda_asg.measures._typed` (so an int,
    or a list of them, is an int64), as finite if it is a float, and by
    ``MINIMUM``; ``default`` if it is absent, and a ValueError if it is
    absent and has no default."""
    if name not in cfg:
        if default is inspect.Parameter.empty:
            raise ValueError(f"missing required field '{name}'")
        return default
    value = measures._typed(name, cfg[name], kind)
    # JSON's NaN and Infinity parse as floats
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if name in MINIMUM:
        check_range(name, value, MINIMUM[name])
    return value


def _parse_measures(cfg: dict):
    """The config's measures: a ready-made coupling, or the ordered pair
    ``(lambda_minus, lambda_plus)``."""
    spec = _field(cfg, "measures", dict)
    measures._refuse_unknown(spec, ("lambda_minus", "lambda_plus", "coupling"), "measures keys")
    has_coupling = "coupling" in spec
    if has_coupling == ("lambda_minus" in spec or "lambda_plus" in spec):
        raise ValueError(
            "measures must hold exactly one of {lambda_minus + lambda_plus} or {coupling}"
        )
    if has_coupling:
        return _parsed(spec, "coupling", measures.coupling_from_config)
    for name in ("lambda_minus", "lambda_plus"):
        if name not in spec:
            raise ValueError(f"measures.{name} is missing; the ordered pair needs both")
    return (_parsed(spec, "lambda_minus", measures.measure_from_config),
            _parsed(spec, "lambda_plus", measures.measure_from_config))


def _parsed(spec: dict, name: str, parse):
    """``parse(spec[name])``, its ValueError prefixed with the measure's name."""
    value = measures._typed(f"measures.{name}", spec[name], dict)
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"measures.{name}: {exc}") from None


def resolve_measures(cfg: dict) -> tuple[measures.CoupledMeasure, dict]:
    """Return the coupling plus a description of how it was obtained."""
    parsed = _parse_measures(cfg)
    if isinstance(parsed, measures.CoupledMeasure):
        return parsed, {"source": "coupling", "atoms": len(parsed)}
    lm, lp = parsed
    coupling = measures.coupling_from_pair(lm, lp)
    return coupling, {
        "source": "pair",
        "rate_scale": lp.total_mass,
        "atoms": len(coupling),
    }


# -- output helpers ------------------------------------------------------------


def write_csv(path: Path, header: list[str], rows) -> None:
    """``header`` and ``rows`` as comma-separated lines ending in ``\\r\\n``,
    a float as ``%.17g`` and any other value as ``%s`` (``str``): one ``%``
    format per row, built once per tuple of value types.  Rows are written
    as they are formatted.  The runners' names and numbers never need
    quoting, so these are ``csv.writer``'s bytes."""
    formats: dict[tuple, str] = {}

    def line(row) -> bytes:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = ",".join(
                "%.17g" if issubclass(t, (float, np.floating)) else "%s" for t in types
            ) + "\r\n"
        return (formats[types] % row).encode()

    write_file(path, map(line, itertools.chain([header], rows)))


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    write_file(path, [text.encode()])


# -- experiments ---------------------------------------------------------------
#
# A runner takes (coupling, seed, threads) and then its params as keyword-only
# arguments; ``_params`` checks a config against that signature.  It writes
# nothing: it returns its exit code and its artifacts, a dict from file name to
# a JSON payload (``.json``) or to ``(header, rows)`` (``.csv``), and
# ``cmd_run`` writes them.

# the exit-2 gates, which no config moves: an exact residual
# (``duality_matrix``, ``limit_duality``) must lie below RESIDUAL_MAX, and a
# Monte Carlo z (``duality_pathwise``, ``moment_duality``) below Z_MAX in
# absolute value
RESIDUAL_MAX = 1e-10
Z_MAX = 4.0


def _params(runner, cfg: dict) -> dict:
    """The config's params, checked against the keyword-only parameters of
    ``runner`` and completed with their defaults."""
    params = _field(cfg, "params", dict, {})
    declared = {
        p.name: p.default for p in inspect.signature(runner).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    }
    measures._refuse_unknown(params, tuple(declared), "params")
    hints = typing.get_type_hints(runner)
    return {name: _field(params, name, hints[name], default) for name, default in declared.items()}


def _check_dense(name: str, N: int) -> None:
    """Refuse a size above the dense oracle's limit before any work is done."""
    if N > moran.MAX_DENSE_N:
        raise ValueError(
            f"{name} is too large: dense generator limited to N <= {moran.MAX_DENSE_N}, got {N}"
        )


def _run_artifacts(finals, paths, label: str) -> dict:
    """A recorded run: path r as ``path_<r>.csv`` with columns (time, label),
    and the finals as ``finals.csv`` with columns (replicate, final_<label>)."""
    artifacts = {
        f"path_{r:03d}.csv": (["time", label], zip(fp.times, fp.values))
        for r, fp in enumerate(paths)
    }
    artifacts["finals.csv"] = (["replicate", f"final_{label}"], enumerate(finals))
    return artifacts


def run_moran_sim(
    coupling, seed, threads: int, *, N: int, horizon: float, x0: float,
    replicates: int = 1, max_paths: int = 10, absorption: bool = False,
) -> tuple[int, dict]:
    count0 = moran.initial_count(N, x0)
    if absorption:
        _check_dense("N (absorption: true)", N)
    cfg = moran.MoranConfig(N=N, coupling=coupling, initial_count=count0)
    finals, paths = moran.simulate_replicates(cfg, horizon, replicates, seed, max_paths)
    artifacts = _run_artifacts(finals, paths, "count")
    artifacts["summary.json"] = {
        "N": N, "initial_count": count0, "horizon": horizon,
        "replicates": replicates,
        "mean_final_frequency": float(finals.mean()) / N,
        "absorbed_at_0": int((finals == 0).sum()),
        "absorbed_at_N": int((finals == N).sum()),
    }
    if absorption:
        h = moran.absorption_probability(cfg)
        artifacts["absorption.csv"] = (["i", "h"], enumerate(h))
    return 0, artifacts


def run_asg_pathwise(
    coupling, seed, threads: int, *, N: int, horizon: float,
    replicates: int = 1000,
) -> tuple[int, dict]:
    checked, violations = asg.ancestry_consistency_check(
        N, coupling, horizon, replicates, seed, threads=threads
    )
    return (0 if violations == 0 else 2), {"report.json": {
        "N": N, "horizon": horizon, "replicates": replicates,
        "individuals_checked": checked, "violations": violations,
    }}


def run_duality_matrix(
    coupling, seed, threads: int, *, N: list[int] = [10],
) -> tuple[int, dict]:
    results = [
        {"N": n, "residual": r}
        for n, r in zip(N, duality.generator_duality_residuals(N, coupling))
    ]
    worst = max(r["residual"] for r in results)
    return (0 if worst < RESIDUAL_MAX else 2), {"residual.json": {
        "results": results, "max_residual": worst, "tolerance": RESIDUAL_MAX,
    }}


def run_duality_pathwise(
    coupling, seed, threads: int, *, N: int, t: float, n: int, x0: float,
    replicates: int = 10000,
) -> tuple[int, dict]:
    report = duality.pathwise_duality_check(
        N, coupling, t, moran.initial_count(N, x0), n, replicates, seed, threads=threads
    )
    return (0 if abs(report.z) < Z_MAX else 2), {"report.json": report.to_dict()}


def run_sde_sim(
    coupling, seed, threads: int, *, x0: float, horizon: float,
    replicates: int = 1, max_paths: int = 10,
) -> tuple[int, dict]:
    finals, paths = limits.sde_replicates(coupling, x0, horizon, replicates, seed, max_paths)
    artifacts = _run_artifacts(finals, paths, "value")
    artifacts["summary.json"] = {
        "x0": x0, "horizon": horizon, "replicates": replicates,
        "mean_final": float(finals.mean()),
    }
    return 0, artifacts


def run_convergence(
    coupling, seed, threads: int, *, x0: float, t: float,
    N_list: list[int] = [50, 100, 200, 400, 800], alpha: float = 0.4,
    replicates: int = 10000, bootstrap: int = 1000,
) -> tuple[int, dict]:
    schemes = [limits.TruncationScheme(alpha=alpha, N=n) for n in N_list]
    rows = limits.convergence_study(
        coupling, x0, schemes, t, replicates, seed, bootstrap=bootstrap
    )
    trend_ok = all(
        rows[i + 1]["ks"] <= rows[i]["ks"]
        + 2.0 * float(np.hypot(rows[i]["stderr"], rows[i + 1]["stderr"]))
        for i in range(len(rows) - 1)
    )
    return 0, {
        "convergence.csv": (
            ["N", "alpha", "truncated_mass", "ks", "stderr"],
            ([r["N"], r["alpha"], r["truncated_mass"], r["ks"], r["stderr"]] for r in rows),
        ),
        "summary.json": {
            "rows": rows, "trend_nonincreasing": trend_ok, "final_ks": rows[-1]["ks"],
        },
    }


def run_limit_duality(
    coupling, seed, threads: int, *, n_max: int = 12, grid: int = 101,
) -> tuple[int, dict]:
    residual = duality.limit_generator_duality(coupling, n_max, grid)
    return (0 if residual < RESIDUAL_MAX else 2), {"residual.json": {
        "residual": residual, "n_max": n_max, "grid": grid, "tolerance": RESIDUAL_MAX,
    }}


def run_limit_moment(
    coupling, seed, threads: int, *, x0: float, n: int, t: float,
    replicates: int = 10**5,
) -> tuple[int, dict]:
    report = duality.limit_moment_duality_check(coupling, x0, n, t, replicates, seed)
    return (0 if abs(report.z) < Z_MAX else 2), {"report.json": report.to_dict()}


def run_fixation(
    coupling, seed, threads: int, *, nmax: int = 30, grid: int = 101,
    compare_absorption_N: int = 0,
) -> tuple[int, dict]:
    if compare_absorption_N == 1:
        raise ValueError("compare_absorption_N must be 0 (off) or at least 2, got 1")
    _check_dense("compare_absorption_N", compare_absorption_N)
    xs = np.linspace(0.0, 1.0, grid)
    solver = fixation.build_fixation_solver(coupling, nmax=nmax)
    residuals = fixation.harmonicity_values(solver.seq, coupling, xs)
    values, lasts = fixation.fixation_series(solver.seq, xs)
    payload = {
        "neutral": coupling.selective_mass() == 0.0,
        "nmax": nmax,
        "tilde_mass": solver.table.tilde_mass,
        "identity_residual": fixation.defining_identity_residual(solver.seq, coupling),
    }
    # rows whose series has not converged keep their partial sums; exit 2
    exit_code = 2 if np.any(fixation.unconverged(values, lasts)) else 0
    payload["harmonicity_residual"] = float(np.abs(residuals).max())
    payload["converged"] = exit_code == 0
    artifacts = {
        "fixation.csv": (["x", "p", "last_term", "residual"],
                         zip(xs, values, lasts, np.abs(residuals))),
        "fixation.json": payload,
        "polynomials.json": {
            "nmax": nmax,
            "coefficients": [a.tolist() for a in solver.seq.coeffs],
        },
    }
    if compare_absorption_N:
        h = moran.absorption_probability(
            moran.MoranConfig(N=compare_absorption_N, coupling=coupling, initial_count=0)
        )
        artifacts["absorption.csv"] = (["i", "h"], enumerate(h))
        oracle = np.interp(xs, np.arange(compare_absorption_N + 1) / compare_absorption_N, h)
        payload["max_abs_diff_vs_absorption"] = float(np.abs(values - oracle).max())
    return exit_code, artifacts


def run_line_count_sim(
    coupling, seed, threads: int, *, N: int, n0: int, horizon: float,
    replicates: int = 1, max_paths: int = 10,
) -> tuple[int, dict]:
    finals, paths = asg.line_count_replicates(
        N, coupling, n0, horizon, replicates, seed, max_paths
    )
    return 0, _run_artifacts(finals, paths, "count")


def run_coupling_report(coupling, seed, threads: int) -> tuple[int, dict]:
    gap_mean = coupling.selective_mass()
    return 0, {"coupling.json": {
        "atoms": [[y, z, m] for y, z, m in zip(coupling.ys, coupling.zs, coupling.masses)],
        "total_mass": coupling.total_mass,
        "selective_gap_mean": gap_mean,
        "selective_gap_second_moment": measures.transport_cost(coupling),
        "selective_gap_variance": measures.transport_cost(coupling) - gap_mean**2,
        "size_biased_mass": coupling.integrate(lambda y, z: y * y + z),
    }}


RUNNERS = {
    "moran_sim": run_moran_sim,
    "asg_pathwise": run_asg_pathwise,
    "duality_matrix": run_duality_matrix,
    "duality_pathwise": run_duality_pathwise,
    "sde_sim": run_sde_sim,
    "convergence": run_convergence,
    "limit_duality": run_limit_duality,
    "moment_duality": run_limit_moment,
    "fixation": run_fixation,
    "coupling_report": run_coupling_report,
    "line_count_sim": run_line_count_sim,
}


# -- commands ------------------------------------------------------------------


def _check_outdir(outdir: Path) -> None:
    """Refuse, before any work is done, an output directory that could not
    be created or written once the run has returned."""
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise ValueError(f"output_dir {outdir}: {existing} is not a writable directory")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    experiment = _field(cfg, "experiment", str)
    if experiment not in RUNNERS:
        raise ValueError(
            f"unknown experiment {experiment!r}; valid names: {', '.join(sorted(RUNNERS))}"
        )
    seed = _field(cfg if args.seed is None else {"seed": args.seed}, "seed", int)
    outdir = Path(args.output_dir or _field(cfg, "output_dir", str, "out"))
    if args.threads < 1:
        raise ValueError(f"--threads must be an integer >= 1, got {args.threads}")
    coupling, coupling_info = resolve_measures(cfg)
    params = _params(RUNNERS[experiment], cfg)
    _check_outdir(outdir)
    start = time.time()
    code, artifacts = RUNNERS[experiment](coupling, seed, args.threads, **params)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, payload in artifacts.items():
        if name.endswith(".csv"):
            write_csv(outdir / name, *payload)
        else:
            write_json(outdir / name, payload)
    manifest = {
        "experiment": experiment,
        "config": cfg,
        "seed": seed,
        "seed_rule": SEED_RULE,
        "threads": args.threads,
        "coupling": coupling_info,
        "version": __version__,
        "wall_time_s": time.time() - start,
        "outputs": sorted(artifacts),
        "exit_code": code,
    }
    write_json(outdir / "manifest.json", manifest)
    print(f"{experiment}: exit {code}; outputs in {outdir}")
    return code


def check_measures(cfg: dict) -> dict:
    """Validate measure specs: a pair is coupled by the call ``run`` makes,
    so an order refusal is ``run``'s message, and the coupling's marginals
    are checked against the pair."""
    parsed = _parse_measures(cfg)
    report: dict = {"valid": True, "issues": []}
    if isinstance(parsed, measures.CoupledMeasure):
        return {**report, "coupling_atoms": len(parsed), "total_mass": parsed.total_mass}
    lm, lp = parsed
    try:
        coupling = measures.coupling_from_pair(lm, lp)
    except OrderViolation as exc:
        return {"valid": False, "issues": [str(exc)], "order_witness": exc.witness}
    mismatch = measures.marginal_mismatch(coupling, lm, lp)
    report.update({
        "rate_scale": lp.total_mass,
        # the mass of the coupling's compensating atoms at y = 0
        "zero_compensator_mass": max(lp.total_mass - lm.total_mass, 0.0),
        "coupling_atoms": len(coupling),
        "coupling": [[y, z, m] for y, z, m in zip(coupling.ys, coupling.zs, coupling.masses)],
        "marginal_mismatch": mismatch,
    })
    if mismatch > 1e-12 * lp.total_mass:
        report["valid"] = False
        report["issues"].append(f"coupling marginals off by {mismatch}")
    return report


def cmd_check(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    try:
        report = check_measures(cfg)
    except (ValueError, LambdaAsgError) as exc:
        report = {"valid": False, "issues": [str(exc)]}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["valid"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lambda-asg",
        description="Experiment runner for the asymmetric Moran / ASG toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.set_defaults(func=cmd_run)
    p_check = sub.add_parser("check", help="validate the measures in a config")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # a usage error is a config error; --help exits 0
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        # library routines reject invalid arguments, here from the config, with ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NotConverged as exc:
        print(f"numerical acceptance failure: {exc}", file=sys.stderr)
        return 2
    except LambdaAsgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
