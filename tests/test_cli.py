import csv
import functools
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import lambda_asg

from lambda_asg import cli, duality, fixation, moran
from lambda_asg.asg import _chunk_size
from lambda_asg.cli import MINIMUM, RUNNERS, main, write_csv
from lambda_asg.fixation import build_fixation_solver, harmonicity_values
from lambda_asg.measures import CoupledMeasure
from lambda_asg.moran import MAX_DENSE_N

from helpers import digest, reference_write_csv

PAIR = {
    "lambda_minus": {"atoms": [[0.25, 0.5], [0.5, 0.5]]},
    "lambda_plus": {
        "atoms": [[0.5, 1 / 3], [0.75, 1 / 3], [1.0, 1 / 3]]
    },
}
SELECTIVE = {"coupling": {"atoms": [[0.4, 0.15, 0.8], [0.7, 0.1, 0.6]]}}
NEUTRAL = {"coupling": {"atoms": [[0.3, 0.0, 0.7], [0.6, 0.0, 0.3]]}}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def files_in(outdir):
    """Names of the files in ``outdir``; none if it does not exist."""
    return sorted(p.name for p in outdir.iterdir()) if outdir.exists() else []


def fresh_python(*args):
    """``python *args`` in a fresh process that imports this package, so that
    a numpy warning or a traceback would reach its stderr."""
    src = str(Path(lambda_asg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def per_x_series(seq, x: float, nmax: int) -> tuple[float, float]:
    """The fixation series summed one point at a time: the slow reference for
    the CLI's one-pass grid."""
    scale = 1.0 / math.expm1(2.0)
    value = 0.0
    last = 0.0
    for n in range(1, nmax + 1):
        hn = np.polynomial.polynomial.polyval(x, seq.antiderivative_coeffs(n))
        last = scale * 2.0**n / math.factorial(n) * float(hn)
        value += last
    return value, abs(last)


class TestRun:
    def test_duality_matrix_happy_path(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "duality_matrix",
            "measures": PAIR,
            "params": {"N": 10},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "residual.json").read_text())
        assert payload["max_residual"] < 1e-10
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["experiment"] == "duality_matrix"
        assert manifest["seed"] == 1
        assert "residual.json" in manifest["outputs"]

    def test_oversized_duality_matrix_is_a_size_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "duality_matrix",
            "measures": PAIR,
            "params": {"N": [10, 400]},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "N <= 300" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("Ns, code, builds", [
        ([10, 400], 1, 0), ([10, 1], 1, 0), ([4, 8], 0, 1),
    ])
    def test_duality_matrix_checks_every_n_then_builds_one_table(
        self, tmp_path, monkeypatch, Ns, code, builds,
    ):
        built = []

        class CountingRows(duality.MixtureRows):
            def __init__(self, coupling, ms):
                built.append(max(ms))
                super().__init__(coupling, ms)

        monkeypatch.setattr(duality, "MixtureRows", CountingRows)
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "duality_matrix", "measures": PAIR,
            "params": {"N": Ns}, "seed": 1, "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == code
        assert built == [max(Ns)] * builds

    def test_unknown_experiment_lists_names(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "nope", "measures": SELECTIVE, "seed": 1,
        })
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert "duality_matrix" in err and "fixation" in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"experiment": "fixation",}')
        assert main(["run", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_both_measure_styles_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "coupling_report",
            "measures": {**PAIR, **SELECTIVE},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_neutral_fixation_emits_identity_table(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "fixation",
            "measures": NEUTRAL,
            "params": {"grid": 11},
            "seed": 2,
            "output_dir": str(tmp_path / "out"),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "fixation.csv")
        assert len(rows) == 11
        for row in rows:
            assert float(row["p"]) == pytest.approx(float(row["x"]), abs=1e-15)
        # the series' own polynomials, h_n = 1/(n+1)
        polynomials = json.loads((tmp_path / "out" / "polynomials.json").read_text())
        assert polynomials["nmax"] == 30
        assert [a[0] for a in polynomials["coefficients"]] == [1 / (n + 1) for n in range(31)]

    @pytest.mark.parametrize("nmax, code", [(10, 2), (30, 0)])
    def test_neutral_fixation_exits_by_the_series_convergence(self, tmp_path, nmax, code):
        # p(x) = x is the limit of the series, converged from order 17
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "fixation",
            "measures": NEUTRAL,
            "params": {"grid": 11, "nmax": nmax},
            "seed": 2,
            "output_dir": str(tmp_path / "out"),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg]) == code
        payload = json.loads((tmp_path / "out" / "fixation.json").read_text())
        assert payload["neutral"] is True
        assert payload["nmax"] == nmax
        assert payload["converged"] is (code == 0)

    def test_fixation_of_a_coupling_with_no_events_is_refused(self, tmp_path, capsys):
        # no atom has y^2 + z > 0: no event moves the frequency, so there is
        # no fixation to compute, and no p(x) = x to claim
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "fixation",
            "measures": {"coupling": {"atoms": []}},
            "seed": 2,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: size-biased coupling has zero mass: ")
        assert "give the coupling an atom with y > 0 or z > 0" in err
        assert not (tmp_path / "out").exists()
        # the coupling itself is valid: its report and its check pass
        assert main(["check", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        report = write_config(tmp_path, "r.json", {
            "experiment": "coupling_report", "measures": {"coupling": {"atoms": []}},
            "seed": 2, "output_dir": str(tmp_path / "report"),
        })
        assert main(["run", report]) == 0
        assert json.loads((tmp_path / "report" / "coupling.json").read_text())["atoms"] == []

    def test_neutral_fixation_keeps_the_oracle_comparison(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "fixation",
            "measures": {"coupling": {"atoms": [[0.4, 0.0, 0.8], [0.7, 0.0, 0.6]]}},
            "params": {"grid": 11, "compare_absorption_N": 50},
            "seed": 2,
            "output_dir": str(tmp_path / "out"),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg]) == 0
        h = [float(row["h"]) for row in read_rows(tmp_path / "out" / "absorption.csv")]
        assert h == pytest.approx([i / 50 for i in range(51)], abs=1e-14)
        payload = json.loads((tmp_path / "out" / "fixation.json").read_text())
        assert payload["neutral"] is True
        # the series converges to p(x) = x
        assert payload["converged"] is True
        assert payload["max_abs_diff_vs_absorption"] < 1e-14

    def test_fixation_with_oracle_comparison(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "fixation",
            "measures": SELECTIVE,
            "params": {"grid": 21, "nmax": 30, "compare_absorption_N": 100},
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "fixation.json").read_text())
        assert payload["harmonicity_residual"] < 1e-6
        assert payload["identity_residual"] < 1e-9
        assert payload["max_abs_diff_vs_absorption"] < 2e-2

    def test_slowly_converging_fixation_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "fixation",
            "measures": {"coupling": {"atoms": [[0.5, 0.25, 1.0]]}},
            "params": {"grid": 5, "nmax": 30},
            "seed": 4,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 2
        payload = json.loads((tmp_path / "out" / "fixation.json").read_text())
        assert payload["converged"] is False

    @pytest.mark.parametrize("atoms, code", [
        (SELECTIVE["coupling"]["atoms"], 0),
        ([[0.5, 0.25, 1.0]], 2),  # series not converged at nmax = 30
    ])
    def test_fixation_csv_matches_the_per_x_series(self, tmp_path, atoms, code):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "fixation",
            "measures": {"coupling": {"atoms": atoms}},
            "params": {"grid": 41, "nmax": 30},
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == code
        coupling = CoupledMeasure.from_atoms(atoms)
        solver = build_fixation_solver(coupling, nmax=30)
        xs = np.linspace(0.0, 1.0, 41)
        residuals = harmonicity_values(solver.seq, coupling, xs)
        rows = [
            [x, *per_x_series(solver.seq, float(x), 30), abs(resid)]
            for x, resid in zip(xs, residuals)
        ]
        write_csv(tmp_path / "expected.csv", ["x", "p", "last_term", "residual"], rows)
        assert (tmp_path / "out" / "fixation.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("bootstrap", [0, 1])
    def test_convergence_needs_two_bootstrap_resamples(self, tmp_path, capsys, bootstrap):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "convergence",
            "measures": SELECTIVE,
            "params": {
                "x0": 0.5, "t": 1.0, "N_list": [20], "replicates": 50,
                "bootstrap": bootstrap,
            },
            "seed": 6,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "bootstrap" in err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_moran_sim_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "moran_sim",
            "measures": PAIR,
            "params": {"N": 20, "x0": 0.5, "horizon": 2.0,
                       "replicates": 50, "max_paths": 2},
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        finals = read_rows(tmp_path / "out" / "finals.csv")
        assert len(finals) == 50
        path_rows = read_rows(tmp_path / "out" / "path_000.csv")
        assert path_rows[0]["time"] == "0"
        assert path_rows[0]["count"] == "10"
        assert (tmp_path / "out" / "path_001.csv").exists()
        assert not (tmp_path / "out" / "path_002.csv").exists()

    def test_asg_pathwise_clean(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "asg_pathwise",
            "measures": PAIR,
            "params": {"N": 8, "horizon": 1.5, "replicates": 100},
            "seed": 6,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["violations"] == 0
        assert report["individuals_checked"] == 800

    def test_limit_duality(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "limit_duality",
            "measures": SELECTIVE,
            "params": {},
            "seed": 7,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0

    def test_beta_density_measures_parse(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "coupling_report",
            "measures": {
                "lambda_minus": {"density": {"kind": "beta", "params": [2, 4], "grid": 32}},
                "lambda_plus": {"density": {"kind": "beta", "params": [2, 2], "grid": 32}},
            },
            "seed": 8,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "coupling.json").read_text())
        assert payload["total_mass"] == pytest.approx(1.0, abs=1e-9)
        assert payload["selective_gap_mean"] > 0

    def test_seed_flag_overrides_config(self, tmp_path):
        base = {
            "experiment": "sde_sim",
            "measures": SELECTIVE,
            "params": {"x0": 0.5, "horizon": 1.0, "replicates": 200, "max_paths": 0},
            "seed": 9,
        }
        cfg = write_config(tmp_path, "c.json", base)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["run", cfg, "--output-dir", str(out1), "--seed", "123"]) == 0
        assert main(["run", cfg, "--output-dir", str(out2), "--seed", "9"]) == 0
        f1 = (out1 / "finals.csv").read_text()
        f2 = (out2 / "finals.csv").read_text()
        assert f1 != f2


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        base = {
            "experiment": "sde_sim",
            "measures": SELECTIVE,
            "params": {"x0": 0.4, "horizon": 1.5, "replicates": 2000, "max_paths": 3},
            "seed": 11,
        }
        cfg = write_config(tmp_path, "c.json", base)
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            assert main(["run", cfg, "--output-dir", str(outdir)]) == 0
            outs.append(outdir)
        for artifact in ("finals.csv", "summary.json", "path_000.csv", "path_002.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_threads_do_not_change_pathwise_report(self, tmp_path, pool_workers):
        # 1200 replicates at N = 500 are two chunks (PAIR has mass 1)
        N, t, replicates = 500, 0.5, 1200
        assert _chunk_size(N, 2, t) < replicates <= 2 * _chunk_size(N, 2, t)
        base = {
            "experiment": "duality_pathwise",
            "measures": PAIR,
            "params": {"N": N, "t": t, "x0": 0.5, "n": 2,
                       "replicates": replicates},
            "seed": 12,
        }
        cfg = write_config(tmp_path, "c.json", base)
        reports = []
        for name, threads in (("a", "1"), ("b", "2")):
            outdir = tmp_path / name
            assert main(["run", cfg, "--output-dir", str(outdir),
                         "--threads", threads]) == 0
            reports.append((outdir / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert pool_workers == [2]

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "sde_sim",
            "measures": SELECTIVE,
            "params": {"x0": 1 / 3, "horizon": 1.0, "replicates": 20, "max_paths": 1},
            "seed": 13,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", cfg]) == 0
        from lambda_asg.limits import sde_replicates
        from lambda_asg.measures import coupling_from_config

        coupling = coupling_from_config(SELECTIVE["coupling"])
        # path 0 is row 0 of the finals run
        _, (path,) = sde_replicates(coupling, 1 / 3, 1.0, 20, 13, 1)
        rows = read_rows(tmp_path / "out" / "path_000.csv")
        assert len(rows) == len(path)
        for row, t, v in zip(rows, path.times, path.values):
            assert float(row["time"]) == t
            assert float(row["value"]) == v


@pytest.mark.parametrize("experiment, spec, params", [
    ("moran_sim", PAIR, {"N": 12, "horizon": 2.0, "x0": 0.5}),
    ("sde_sim", SELECTIVE, {"x0": 0.4, "horizon": 2.0}),
    ("line_count_sim", PAIR, {"N": 12, "n0": 3, "horizon": 2.0}),
])
@pytest.mark.parametrize("max_paths", [0, 4, 9])
def test_path_r_ends_at_finals_row_r(tmp_path, experiment, spec, params, max_paths):
    # path r is row r of the finals run, also when max_paths exceeds replicates
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": spec, "seed": 23,
        "params": {**params, "replicates": 6, "max_paths": max_paths},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    finals = [list(row.values())[-1] for row in read_rows(out / "finals.csv")]
    paths = sorted(out.glob("path_*.csv"))
    assert [p.name for p in paths] == [f"path_{r:03d}.csv" for r in range(min(6, max_paths))]
    for r, path in enumerate(paths):
        assert list(read_rows(path)[-1].values())[-1] == finals[r]


# one small valid config per experiment: (measures, params, digest of every
# artifact but the manifest, names included)
PINNED_RUNS = {
    "moran_sim": (PAIR, {"N": 10, "horizon": 1.0, "x0": 0.5, "replicates": 20,
                         "max_paths": 2, "absorption": True},
                  "b3b1f5bb4b816ebdd9ba1d88897dc74d1b2449f553a59cb15cebd045769f398a"),
    "asg_pathwise": (PAIR, {"N": 6, "horizon": 1.0, "replicates": 20},
                     "b61f7504a7ffd44815dbfcb94df34b868c4c0bb94f7bb82ba6896e0dc055fe30"),
    "duality_matrix": (PAIR, {"N": [4, 8]},
                       "c732be50eac06460521999dc2f565598b515f61d9fa5b9ea7bd66c5c799f7177"),
    "duality_pathwise": (PAIR, {"N": 6, "t": 0.5, "x0": 0.5, "n": 2,
                                "replicates": 200},
                         "98a96665febb3c01387e93137a4d5674ca27300596c2bf4a9eabeeb2568fc9ed"),
    "sde_sim": (SELECTIVE, {"x0": 0.4, "horizon": 1.0, "replicates": 50,
                            "max_paths": 2},
                "214767b3fdd5ad7565721f3d75da8b546471c96e6dcba2b8ba73c71aa3caf35e"),
    "convergence": (SELECTIVE, {"x0": 0.5, "t": 1.0, "N_list": [10, 20],
                                "replicates": 200, "bootstrap": 5},
                    "8be77c778187554e41db5504e28674796987196c7c16c29029b74a4c4921f919"),
    "limit_duality": (SELECTIVE, {"n_max": 6, "grid": 11},
                      "f3e047c7a06548eaddb329c4f9146c218f00e260ee773cd4b80566d27c4d4bd7"),
    "moment_duality": (SELECTIVE, {"x0": 0.5, "n": 2, "t": 0.5, "replicates": 2000},
                       "90767e68765759f7ad62e560ed889187f1101efb554d4508577f4783660aa027"),
    "fixation": (SELECTIVE, {"nmax": 30, "grid": 11, "compare_absorption_N": 20},
                 "aaf7ea2ecd74cdb1fafcb50a1acd79b72396fe0bbaeeb8a63c87e7638cff66d2"),
    "coupling_report": (PAIR, {},
                        "1a49e1962dc283ce4f4efd6fafbfaf95ed413d649848babe4bd5019e293dc932"),
    "line_count_sim": (PAIR, {"N": 10, "n0": 3, "horizon": 1.0, "replicates": 5,
                              "max_paths": 2},
                       "d8e0bff7d2ebf403d127c81818de6663fcabb67da89bb3bb35d625e9ac276578"),
}


def artifact_digest(out: Path) -> str:
    """The digest of every artifact in ``out`` but the manifest, names
    included, after checking that the manifest lists them all."""
    artifacts = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    assert artifacts
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [p.name for p in artifacts]
    return digest(*(
        np.frombuffer(p.name.encode() + b"\0" + p.read_bytes(), dtype=np.uint8)
        for p in artifacts
    ))


@pytest.mark.parametrize("experiment", sorted(PINNED_RUNS))
def test_artifacts_are_pinned(tmp_path, experiment):
    spec, params, expected = PINNED_RUNS[experiment]
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": spec, "params": params, "seed": 31,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    assert artifact_digest(tmp_path / "out") == expected


def test_neutral_fixation_artifacts_are_pinned(tmp_path):
    # a neutral coupling through the series: p(x) = x to rounding, its
    # last terms and residuals, polynomials.json with h_n = 1/(n+1), and the
    # absorption oracle at N = 50
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "fixation",
        "measures": {"coupling": {"atoms": [[0.4, 0.0, 0.8], [0.7, 0.0, 0.6]]}},
        "params": {"grid": 11, "compare_absorption_N": 50},
        "seed": 2,
        "output_dir": str(tmp_path / "out"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg]) == 0
    assert artifact_digest(tmp_path / "out") == (
        "84cb391adebe5b7b3915647715dc7e421651d0ba0ff723ceb35acd90aba20eb6"
    )


BAD_MEASURES = {
    "coupling_atoms_not_a_list": {"coupling": {"atoms": 5}},
    "atom_location_null": {
        "lambda_minus": {"atoms": [[None, 1]]}, "lambda_plus": PAIR["lambda_plus"],
    },
    "beta_density_without_params": {
        "lambda_minus": {"density": {"kind": "beta"}}, "lambda_plus": PAIR["lambda_plus"],
    },
    # JSON NaN and Infinity parse to floats
    "coupling_y_nan": {"coupling": {"atoms": [[float("nan"), 0.1, 1.0]]}},
    "coupling_mass_inf": {"coupling": {"atoms": [[0.2, 0.1, float("inf")]]}},
    "atom_mass_nan": {
        "lambda_minus": {"atoms": [[0.2, float("nan")]]}, "lambda_plus": PAIR["lambda_plus"],
    },
    # nothing is cast and a bool is not a number
    "beta_grid_string": {
        "lambda_minus": {"density": {"kind": "beta", "params": [2, 2], "grid": "abc"}},
        "lambda_plus": PAIR["lambda_plus"],
    },
    "beta_grid_float": {
        "lambda_minus": {"density": {"kind": "beta", "params": [2, 2], "grid": 5.7}},
        "lambda_plus": PAIR["lambda_plus"],
    },
    # a measure spec's ints keep to the params' int64 rule
    "beta_grid_beyond_int64": {
        "lambda_minus": {"density": {"kind": "beta", "params": [2, 2], "grid": 2**64}},
        "lambda_plus": PAIR["lambda_plus"],
    },
    "beta_one_param": {
        "lambda_minus": {"density": {"kind": "beta", "params": [2]}},
        "lambda_plus": PAIR["lambda_plus"],
    },
    "coupling_atom_short": {"coupling": {"atoms": [[0.4, 0.15, 0.8], [0.2, 0.1]]}},
    "atom_long": {
        "lambda_minus": {"atoms": [[0.25, 0.5, 9]]}, "lambda_plus": PAIR["lambda_plus"],
    },
    "atom_location_string": {
        "lambda_minus": {"atoms": [["x", 0.5]]}, "lambda_plus": PAIR["lambda_plus"],
    },
    "coupling_y_bool": {"coupling": {"atoms": [[True, 0.1, 1.0]]}},
    # unknown keys are refused at every level
    "measures_unknown_key": {**SELECTIVE, "extra": 1},
    "atoms_spec_unknown_key": {
        "lambda_minus": {**PAIR["lambda_minus"], "mass": 2.0}, "lambda_plus": PAIR["lambda_plus"],
    },
    "coupling_spec_unknown_key": {"coupling": {**SELECTIVE["coupling"], "mass": 2.0}},
    "beta_density_unknown_key": {
        "lambda_minus": {"density": {"kind": "beta", "params": [2, 2], "gird": 8}},
        "lambda_plus": PAIR["lambda_plus"],
    },
    # a measure spec takes exactly one of atoms and density
    "measure_spec_atoms_and_density": {
        "lambda_minus": {
            "atoms": [[0.25, 1.0]], "density": {"kind": "beta", "params": [2, 5]},
        },
        "lambda_plus": {"atoms": [[0.5, 1.0]]},
    },
    "measure_spec_empty": {"lambda_minus": {}, "lambda_plus": PAIR["lambda_plus"]},
    # each atom is finite, their total is not
    "coupling_total_mass_overflows": {
        "coupling": {"atoms": [[0.2, 0.1, 1e308], [0.5, 0.3, 1e308]]},
    },
    # a JSON int beyond the float range
    "coupling_mass_int_beyond_float": {"coupling": {"atoms": [[0.2, 0.1, 10**400]]}},
}
BAD_PARAMS = {
    "moran_x0_above_one": ("moran_sim", {"N": 10, "horizon": 1.0, "x0": 1.5}),
    "duality_pathwise_x0_above_one": ("duality_pathwise", {"N": 10, "t": 1.0, "x0": 1.5, "n": 2}),
    "line_count_n0_above_N": ("line_count_sim", {"N": 5, "n0": 6, "horizon": 1.0}),
    "fixation_nmax_zero": ("fixation", {"nmax": 0}),
    "fixation_nmax_negative": ("fixation", {"nmax": -3}),
    "fixation_grid_zero": ("fixation", {"grid": 0}),
    "fixation_grid_not_an_int": ("fixation", {"grid": 5.5}),
    "moran_absorption_string": (
        "moran_sim", {"N": 10, "horizon": 1.0, "x0": 0.5, "absorption": "false"},
    ),
    "asg_N_float": ("asg_pathwise", {"N": 6.9, "horizon": 1.0, "replicates": 5}),
    "asg_N_string": ("asg_pathwise", {"N": "6", "horizon": 1.0, "replicates": 5}),
    "asg_N_bool": ("asg_pathwise", {"N": True, "horizon": 1.0, "replicates": 5}),
    "asg_replicates_typo": ("asg_pathwise", {"N": 6, "horizon": 1.0, "replicate": 3}),
    "moran_no_replicates": ("moran_sim", {"N": 10, "horizon": 1.0, "x0": 0.5, "replicates": 0}),
    "sde_no_replicates": ("sde_sim", {"x0": 0.5, "horizon": 1.0, "replicates": 0}),
    "line_count_no_replicates": (
        "line_count_sim", {"N": 5, "n0": 2, "horizon": 1.0, "replicates": 0},
    ),
    "moment_no_replicates": ("moment_duality", {"x0": 0.5, "n": 2, "t": 1.0, "replicates": 0}),
    "convergence_empty_N_list": ("convergence", {"x0": 0.5, "t": 1.0, "N_list": []}),
    "convergence_repeated_N": ("convergence", {"x0": 0.5, "t": 1.0, "N_list": [10, 10]}),
    "duality_matrix_empty_N": ("duality_matrix", {"N": []}),
    "sde_max_paths_negative": ("sde_sim", {"x0": 0.5, "horizon": 1.0, "max_paths": -1}),
    "limit_duality_grid_zero": ("limit_duality", {"grid": 0}),
    "line_count_negative_horizon": ("line_count_sim", {"N": 5, "n0": 2, "horizon": -1.0}),
    "moment_negative_t": ("moment_duality", {"x0": 0.5, "n": 2, "t": -1.0}),
    "convergence_negative_t": ("convergence", {"x0": 0.5, "t": -1.0}),
    "moment_x0_above_one": ("moment_duality", {"x0": 1.5, "n": 2, "t": 1.0}),
    "convergence_x0_above_one": ("convergence", {"x0": 1.5, "t": 1.0}),
    "fixation_compare_absorption_N_one": ("fixation", {"compare_absorption_N": 1}),
    # 171! does not fit in a float
    "fixation_nmax_above_170": ("fixation", {"nmax": 171}),
    # beyond the range of numpy's poisson
    "asg_horizon_huge": ("asg_pathwise", {"N": 6, "horizon": 1e30, "replicates": 5}),
    "moran_horizon_huge": ("moran_sim", {"N": 10, "horizon": 1e30, "x0": 0.5}),
    "sde_horizon_int_beyond_float": ("sde_sim", {"x0": 0.5, "horizon": 10**400}),
    # beyond numpy's int64
    "moran_replicates_beyond_int64": (
        "moran_sim", {"N": 10, "horizon": 1.0, "x0": 0.5, "replicates": 10**30},
    ),
    "moran_N_beyond_int64": ("moran_sim", {"N": 10**30, "horizon": 1.0, "x0": 0.5}),
    "moran_N_at_2_63": ("moran_sim", {"N": 2**63, "horizon": 1.0, "x0": 0.5}),
    "fixation_nmax_below_int64": ("fixation", {"nmax": -(2**63) - 1}),
    "convergence_N_list_beyond_int64": (
        "convergence", {"x0": 0.5, "t": 1.0, "N_list": [10, 10**30]},
    ),
}
# the error message must name the offending param
MESSAGES = {
    "moran_x0_above_one": "x0 must lie in [0, 1], got 1.5",
    "duality_pathwise_x0_above_one": "x0 must lie in [0, 1], got 1.5",
    "line_count_negative_horizon": "horizon must be positive",
    "moment_negative_t": "t must be positive, got -1.0",
    "convergence_negative_t": "t must be positive, got -1.0",
    "moment_x0_above_one": "x0 must lie in [0, 1], got 1.5",
    "convergence_x0_above_one": "x0 must lie in [0, 1], got 1.5",
    "convergence_repeated_N": "schemes must be ordered by strictly increasing N, got [10, 10]",
    "fixation_compare_absorption_N_one":
        "compare_absorption_N must be 0 (off) or at least 2, got 1",
    "coupling_y_nan": "y coordinates must be finite",
    "coupling_mass_inf": "atom masses must be finite",
    "atom_mass_nan": "atom masses must be finite",
    "beta_grid_string": "measures.lambda_minus: density.grid must be an int, got 'abc'",
    "beta_grid_float": "measures.lambda_minus: density.grid must be an int, got 5.7",
    "beta_grid_beyond_int64": "measures.lambda_minus: density.grid must lie in the int64 range "
                              f"[-2**63, 2**63), got {2**64}",
    "beta_one_param": "measures.lambda_minus: density.params must be [a, b], got [2]",
    "coupling_atom_short": "measures.coupling: atoms[1] must be [y, z, mass], got [0.2, 0.1]",
    "atom_long": "measures.lambda_minus: atoms[0] must be [loc, mass], got [0.25, 0.5, 9]",
    "atom_location_string": "measures.lambda_minus: atoms[0] loc must be a number, got 'x'",
    "coupling_y_bool": "measures.coupling: atoms[0] y must be a number, got True",
    "measures_unknown_key":
        "unknown measures keys extra; valid names: lambda_minus, lambda_plus, coupling",
    "atoms_spec_unknown_key":
        "measures.lambda_minus: unknown keys mass; valid names: atoms, density",
    "coupling_spec_unknown_key": "measures.coupling: unknown keys mass; valid names: atoms",
    "beta_density_unknown_key":
        "measures.lambda_minus: unknown density keys gird; valid names: kind, params, grid, mass",
    "asg_replicates_typo": "unknown params replicate; valid names: N, horizon, replicates",
    "measure_spec_atoms_and_density":
        "measures.lambda_minus: measure spec must hold exactly one of atoms or density, got both",
    "measure_spec_empty": "measures.lambda_minus: measure spec needs 'atoms' or 'density'",
    "coupling_total_mass_overflows": "measures.coupling: total mass must be finite",
    "fixation_nmax_above_170": "nmax must lie in [1, 170], got 171",
    # SELECTIVE has mass 1.4
    "asg_horizon_huge": "horizon 1e+30 gives 1.4e+30 expected events (mass * horizon)",
    "moran_horizon_huge": "horizon 1e+30 gives 1.4e+30 expected events (mass * horizon)",
    "coupling_mass_int_beyond_float": "measures.coupling: atom masses must be finite",
    "sde_horizon_int_beyond_float": "horizon must be finite, got inf",
    "moran_replicates_beyond_int64":
        f"replicates must lie in the int64 range [-2**63, 2**63), got {10**30}",
    "moran_N_beyond_int64": f"N must lie in the int64 range [-2**63, 2**63), got {10**30}",
    "moran_N_at_2_63": f"N must lie in the int64 range [-2**63, 2**63), got {2**63}",
    "fixation_nmax_below_int64":
        f"nmax must lie in the int64 range [-2**63, 2**63), got {-(2**63) - 1}",
    "convergence_N_list_beyond_int64":
        f"N_list must lie in the int64 range [-2**63, 2**63), got {10**30}",
}
INVALID_CONFIGS = {
    **{case: ("coupling_report", spec, {}) for case, spec in BAD_MEASURES.items()},
    **{case: (name, SELECTIVE, params) for case, (name, params) in BAD_PARAMS.items()},
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_config_is_a_config_error(tmp_path, capsys, case):
    experiment, spec, params = INVALID_CONFIGS[case]
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": spec, "params": params, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert MESSAGES.get(case, "") in err
    assert files_in(tmp_path / "out") == []
    if case in BAD_MEASURES:
        assert main(["check", cfg]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["valid"] and report["issues"]


# the required params of each runner that has some, at valid values
REQUIRED = {
    "moran_sim": {"N": 10, "horizon": 1.0, "x0": 0.5},
    "asg_pathwise": {"N": 6, "horizon": 1.0},
    "duality_pathwise": {"N": 6, "t": 1.0, "x0": 0.5, "n": 2},
    "sde_sim": {"x0": 0.5, "horizon": 1.0},
    "convergence": {"x0": 0.5, "t": 1.0},
    "moment_duality": {"x0": 0.5, "n": 2, "t": 1.0},
    "line_count_sim": {"N": 5, "n0": 2, "horizon": 1.0},
}
FLOAT_PARAMS = [
    (experiment, name)
    for experiment, runner in sorted(RUNNERS.items())
    for name, kind in typing.get_type_hints(runner).items()
    if float in (typing.get_args(kind) or (kind,))
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("experiment, name", FLOAT_PARAMS, ids=[".".join(c) for c in FLOAT_PARAMS])
def test_non_finite_float_params_are_refused_by_name(tmp_path, capsys, experiment, name, value):
    # JSON's NaN and Infinity parse as floats, and no float param takes one
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": SELECTIVE,
        "params": {**REQUIRED.get(experiment, {}), name: value}, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == f"config error: {name} must be finite, got {value}\n"
    assert files_in(tmp_path / "out") == []


# settings that were removed: four moved or switched off an exit-2 gate, which
# is now fixed, and initial_count gave the start a second way (x0 = c / N)
REMOVED_PARAMS = [
    ("duality_matrix", "tolerance", 1.0),
    ("limit_duality", "tolerance", 1.0),
    ("duality_pathwise", "z_max", 100.0),
    ("moment_duality", "z_max", 100.0),
    ("convergence", "max_final_ks", 0.5),
    ("moran_sim", "initial_count", 5),
    ("duality_pathwise", "initial_count", 3),
]


@pytest.mark.parametrize(
    "experiment, name, value", REMOVED_PARAMS, ids=[f"{e}.{n}" for e, n, _ in REMOVED_PARAMS]
)
def test_removed_params_are_refused_as_unknown(tmp_path, capsys, monkeypatch, experiment, name,
                                               value):
    runner, calls = RUNNERS[experiment], []

    @functools.wraps(runner)
    def spy(*args, **kwargs):
        calls.append(kwargs)
        return runner(*args, **kwargs)

    monkeypatch.setitem(RUNNERS, experiment, spy)
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": SELECTIVE,
        "params": {**REQUIRED.get(experiment, {}), name: value}, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    valid = ", ".join(
        p.name for p in inspect.signature(runner).parameters.values() if p.kind is p.KEYWORD_ONLY
    )
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == (
        f"config error: unknown params {name}; valid names: {valid}\n"
    )
    assert calls == []
    assert files_in(tmp_path / "out") == []


@pytest.mark.parametrize("density, message", [
    ({"params": [math.inf, 2]}, "beta parameter a must be positive and finite, got inf"),
    ({"params": [2, math.nan]}, "beta parameter b must be positive and finite, got nan"),
    ({"params": [2, 5], "mass": math.nan}, "mass must be finite, got nan"),
    ({"params": [2, 5], "mass": -math.inf}, "mass must be finite, got -inf"),
], ids=["a_inf", "b_nan", "mass_nan", "mass_-inf"])
@pytest.mark.parametrize("command", ["run", "check"])
def test_beta_density_refuses_non_finite_numbers_by_name(
    tmp_path, capsys, command, density, message
):
    spec = {
        "lambda_minus": {"density": {"kind": "beta", **density}},
        "lambda_plus": {"atoms": [[1.0, 1.0]]},
    }
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "coupling_report", "measures": spec, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main([command, cfg]) == 1
    out, err = capsys.readouterr()
    message = f"measures.lambda_minus: {message}"
    if command == "run":
        assert err == f"config error: {message}\n"
        assert files_in(tmp_path / "out") == []
    else:
        assert json.loads(out) == {"valid": False, "issues": [message]}


@pytest.mark.parametrize("command", ["run", "check"])
def test_unknown_top_level_key_is_refused_by_name(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "coupling_report", "measures": SELECTIVE, "seed": 1,
        "output_dir": str(tmp_path / "out"), "outptu_dir": str(tmp_path / "typo"),
    })
    assert main([command, cfg]) == 1
    assert capsys.readouterr().err == (
        "config error: unknown config keys outptu_dir; "
        "valid names: experiment, measures, params, seed, output_dir\n"
    )
    assert files_in(tmp_path / "out") == files_in(tmp_path / "typo") == []


SEED_BEYOND = 2**63, f"seed must lie in the int64 range [-2**63, 2**63), got {2**63}"
SEED_NEGATIVE = -5, "seed must be >= 0, got -5"


@pytest.mark.parametrize("experiment, flag, seed, message", [
    ("coupling_report", False, *SEED_BEYOND), ("coupling_report", True, *SEED_BEYOND),
    ("duality_matrix", False, *SEED_NEGATIVE), ("moran_sim", True, *SEED_NEGATIVE),
], ids=["config", "flag", "config_negative", "flag_negative"])
def test_a_seed_beyond_int64_is_refused_by_name(tmp_path, capsys, experiment, flag, seed, message):
    # one rule for the config's seed and the --seed flag: an int64, at least 0
    spec, params, _ = PINNED_RUNS[experiment]
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": spec, "params": params,
        "seed": 1 if flag else seed, "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg, *(["--seed", str(seed)] if flag else [])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert files_in(tmp_path / "out") == []


@pytest.mark.parametrize("argv", [
    ["run", "c.json", "--threads", "two"], ["run", "c.json", "--seed", "x"], [],
], ids=["threads_not_an_int", "seed_not_an_int", "no_command"])
def test_usage_errors_exit_one(capsys, argv):
    # exit 2 is kept for numerical acceptance failures
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: lambda-asg") and "error: " in err


def test_bare_command_exits_one_and_help_zero():
    for args, code, stream in (([], 1, "stderr"), (["--help"], 0, "stdout")):
        out = fresh_python("-m", "lambda_asg.cli", *args)
        assert out.returncode == code
        assert getattr(out, stream).startswith("usage: lambda-asg")


def test_overflowing_total_mass_prints_one_config_error_line(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "coupling_report", "measures": BAD_MEASURES["coupling_total_mass_overflows"],
        "seed": 1, "output_dir": str(tmp_path / "out"),
    })
    out = fresh_python("-m", "lambda_asg.cli", "run", cfg)
    assert out.returncode == 1
    assert out.stderr == "config error: measures.coupling: total mass must be finite\n"
    assert files_in(tmp_path / "out") == []


@pytest.mark.parametrize("experiment, measures_spec, params", [
    ("coupling_report", {
        "lambda_minus": {"density": {"kind": "beta", "params": [2, 2], "grid": 10**15}},
        "lambda_plus": PAIR["lambda_plus"],
    }, {}),
    ("sde_sim", SELECTIVE, {"x0": 0.5, "horizon": 1.0, "replicates": 10**15}),
], ids=["beta_grid_1e15", "sde_replicates_1e15"])
def test_a_request_too_large_for_memory_prints_one_error_line(
    tmp_path, experiment, measures_spec, params
):
    # each asks numpy for an array of 10**15 floats, about 7 PiB
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": measures_spec, "params": params, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    out = fresh_python("-m", "lambda_asg.cli", "run", cfg)
    assert out.returncode == 1
    assert re.fullmatch(r"error: out of memory: Unable to allocate [^\n]+\n", out.stderr)
    assert files_in(tmp_path / "out") == []


@pytest.mark.parametrize("experiment, params, measures_spec", [
    ("fixation", {"nmax": 200}, SELECTIVE),
    ("moment_duality", {"x0": 1.5, "n": 2, "t": 1.0}, SELECTIVE),
], ids=["fixation_nmax_200", "moment_duality_x0_1.5"])
def test_config_refused_by_its_runner_leaves_no_output_directory(
    tmp_path, capsys, experiment, params, measures_spec
):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": measures_spec, "params": params, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


STRONG = {"coupling": {"atoms": [[0.2, 0.6, 1], [0.5, 0.4, 0.5]]}}


def test_overflowing_fixation_recursion_exits_two(tmp_path, capsys):
    # at nmax 170 the recursion overflows at order 158: no NaN table marked
    # converged, and no numpy warning on stderr
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "fixation", "measures": STRONG, "params": {"nmax": 170}, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == (
        "numerical acceptance failure: h_158 has a non-finite coefficient: the recursion "
        "overflows at order 158; lower nmax below 158\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("nmax", [60, 100])
def test_unconverged_fixation_below_the_overflow_keeps_finite_rows(tmp_path, nmax):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "fixation", "measures": STRONG, "params": {"nmax": nmax, "grid": 11},
        "seed": 1, "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 2
    payload = json.loads((tmp_path / "out" / "fixation.json").read_text())
    assert payload["converged"] is False
    assert math.isfinite(payload["harmonicity_residual"])
    rows = read_rows(tmp_path / "out" / "fixation.csv")
    assert len(rows) == 11
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())


def test_write_csv_matches_the_csv_module(tmp_path):
    # the names and numbers the runners write: each float formatted once as
    # %.17g, each line joined in place, in the bytes of csv.writer
    rows = [
        [float("nan"), float("inf"), -float("inf"), -0.0],
        [1e-300, 5e-324, 0.1, 1.0 / 3.0],
        [np.float64(-0.0), np.float64(np.nan), np.float32(0.1), np.float32(-np.inf)],
        [0, -7, np.int64(12), True],
        np.array([0.25, 1e300, -2.5e-310]),
        (3, np.float32(1e-30)),
        [1.5, np.float16(0.3), np.longdouble(0.1), np.int32(-1)],
    ]
    header = ["x", "p", "last_term", "residual"]
    write_csv(tmp_path / "got.csv", header, iter(rows))
    reference_write_csv(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_csv_formats_a_mixed_row_as_the_join_of_its_values(tmp_path):
    # each float as %.17g and anything else as str, joined by commas
    row = [3, np.float64(0.1), np.int64(-4), True, 10**20, "name", None, 1 / 3]
    write_csv(tmp_path / "got.csv", ["a"], [row, row[::-1]])
    want = "a\r\n" + "".join(
        ",".join("%.17g" % v if isinstance(v, (float, np.floating)) else str(v) for v in r)
        + "\r\n" for r in (row, row[::-1])
    )
    assert (tmp_path / "got.csv").read_bytes() == want.encode()


def test_write_csv_streams_its_rows(tmp_path):
    # 10**5 rows (about 2.6 MB of text) are written as they are formatted:
    # the file is never held in memory whole
    rows = ((i, i / 7) for i in range(10**5))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["i", "x"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 2 * 10**6
    assert peak < 2**19


def test_a_run_into_a_used_directory_writes_a_fresh_directory_s_bytes(tmp_path, monkeypatch):
    # the second run's artifacts are shorter than the first's (11 grid rows
    # against 1001): each is truncated and rewritten
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(time=lambda: 0.0))
    runs = {}
    for name, grid in (("big", 1001), ("small", 11)):
        runs[name] = write_config(tmp_path, f"{name}.json", {
            "experiment": "fixation", "measures": SELECTIVE, "seed": 1,
            "params": {"nmax": 30, "grid": grid},
        })
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    assert main(["run", runs["big"], "--output-dir", str(used)]) == 0
    big = (used / "fixation.csv").stat().st_size
    assert main(["run", runs["small"], "--output-dir", str(used)]) == 0
    assert main(["run", runs["small"], "--output-dir", str(fresh)]) == 0
    assert (used / "fixation.csv").stat().st_size < big
    assert files_in(used) == files_in(fresh)
    for name in files_in(fresh):
        assert (used / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize("output_dir", ["file", "file/out"])
def test_unusable_output_dir_is_refused_before_the_run(
    tmp_path, capsys, monkeypatch, output_dir
):
    # the directory is created only after the run, so a path that can never
    # be one is refused first, not after the work is done
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the output directory was checked")

    monkeypatch.setattr(fixation, "build_fixation_solver", refuse)
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "fixation", "measures": SELECTIVE, "seed": 1,
        "output_dir": str(tmp_path / output_dir),
    })
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == (
        f"config error: output_dir {tmp_path / output_dir}: {tmp_path / 'file'} "
        "is not a writable directory\n"
    )
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("experiment, params", [
    ("fixation", {"compare_absorption_N": MAX_DENSE_N + 1}),
    ("moran_sim", {"N": MAX_DENSE_N + 1, "x0": 0.5, "horizon": 1e-6, "absorption": True}),
])
def test_run_failing_after_its_first_result_writes_nothing(tmp_path, capsys, experiment, params):
    # the dense size is refused before the run, so no artifact and no
    # manifest is written
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": SELECTIVE, "params": params, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 1
    assert f"N <= {MAX_DENSE_N}" in capsys.readouterr().err
    assert files_in(tmp_path / "out") == []


@pytest.mark.parametrize("experiment, params, name", [
    ("fixation", {"compare_absorption_N": MAX_DENSE_N + 1}, "compare_absorption_N"),
    ("moran_sim", {"N": MAX_DENSE_N + 1, "x0": 0.5, "horizon": 1e-6, "absorption": True},
     "N (absorption: true)"),
])
def test_dense_size_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, experiment, params, name
):
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the size check")

    for module, attr in ((fixation, "build_fixation_solver"), (moran, "simulate_replicates")):
        monkeypatch.setattr(module, attr, refuse)
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": SELECTIVE, "params": params, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} is too large: dense generator")
    assert f"N <= {MAX_DENSE_N}, got {MAX_DENSE_N + 1}" in err
    assert files_in(tmp_path / "out") == []


@pytest.mark.parametrize("flag, message", [
    ("-3", "--threads must be an integer >= 1, got -3"),
    ("0", "--threads must be an integer >= 1, got 0"),
], ids=["flag_negative", "flag_zero"])
def test_thread_counts_are_refused_by_name(tmp_path, capsys, flag, message):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "limit_duality", "measures": SELECTIVE, "params": {}, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--threads", flag]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_runners_take_no_output_directory():
    for name, runner in RUNNERS.items():
        positional = [
            p.name for p in inspect.signature(runner).parameters.values()
            if p.kind is not p.KEYWORD_ONLY
        ]
        assert positional == ["coupling", "seed", "threads"], name


@pytest.mark.parametrize("experiment, params", [
    ("asg_pathwise", {"N": 6, "horizon": 1.0}),
    ("duality_pathwise", {"N": 6, "t": 1.0, "x0": 0.5, "n": 2}),
])
@pytest.mark.parametrize("replicates", [0, -3])
def test_pathwise_experiments_need_a_replicate(tmp_path, capsys, experiment, params, replicates):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment, "measures": SELECTIVE,
        "params": {**params, "replicates": replicates}, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: replicates must be >= 1")
    assert not (tmp_path / "out" / "manifest.json").exists()


class TestCheck:
    def test_valid_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"measures": PAIR, "seed": 0})
        assert main(["check", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"]
        assert len(report["coupling"]) == 4
        assert report["marginal_mismatch"] < 1e-12

    def test_reversed_pair_invalid_with_witness(self, tmp_path, capsys):
        reversed_pair = {
            "lambda_minus": PAIR["lambda_plus"],
            "lambda_plus": PAIR["lambda_minus"],
        }
        cfg = write_config(tmp_path, "c.json", {"measures": reversed_pair, "seed": 0})
        assert main(["check", cfg]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["valid"]
        w = report["order_witness"]
        # the reversed upper measure has strictly more tail mass at the witness
        from lambda_asg.measures import measure_from_config

        lo = measure_from_config(reversed_pair["lambda_minus"])
        hi = measure_from_config(reversed_pair["lambda_plus"])
        assert lo.tail_mass(w) > hi.tail_mass(w)

    def test_simplex_violation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "measures": {"coupling": {"atoms": [[0.9, 0.3, 1.0]]}},
            "seed": 0,
        })
        assert main(["check", cfg]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "y + z" in report["issues"][0]

    def test_both_measure_styles_invalid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"measures": {**PAIR, **SELECTIVE}, "seed": 0})
        assert main(["check", cfg]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["valid"] and "exactly one" in report["issues"][0]

    def test_coupling_spec_reports_its_atoms_and_mass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"measures": SELECTIVE, "seed": 0})
        assert main(["check", cfg]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "valid": True, "issues": [], "coupling_atoms": 2, "total_mass": 1.4,
        }

    def test_ordered_pair_at_large_total_mass_is_valid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"measures": scaled_pair(PAIR, 1e9), "seed": 0})
        assert main(["check", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rate_scale"] == pytest.approx(1e9)
        assert report["issues"] == []

    def test_half_a_pair_names_the_missing_measure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "measures": {"lambda_minus": PAIR["lambda_minus"]}, "seed": 0,
        })
        assert main(["check", cfg]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["valid"] and "lambda_plus" in report["issues"][0]


def scaled_pair(pair: dict, total: float) -> dict:
    """``pair`` with every atom mass times ``total``."""
    return {name: {"atoms": [[x, m * total] for x, m in spec["atoms"]]}
            for name, spec in pair.items()}


# the tail masses of lambda_minus stay within ORDER_TOL of lambda_plus's at
# unit mass, but its top 8e-13 lies above all of lambda_plus: the inverse
# CDFs cross at every total mass (dust is a share of the total)
CROSSING = {
    "lambda_minus": {"atoms": [[0.4, 1.0 - 8e-13], [0.9, 8e-13]]},
    "lambda_plus": {"atoms": [[0.5, 1.0]]},
}
VERDICT_PAIRS = {
    "ordered": PAIR,
    "reversed": {"lambda_minus": PAIR["lambda_plus"], "lambda_plus": PAIR["lambda_minus"]},
    "crossing": CROSSING,
}


@pytest.mark.parametrize("total", [1e-3, 1.0, 1e4, 1e9])
@pytest.mark.parametrize("kind", sorted(VERDICT_PAIRS))
def test_run_and_check_give_one_verdict(tmp_path, capsys, kind, total):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "coupling_report", "measures": scaled_pair(VERDICT_PAIRS[kind], total),
        "seed": 1, "output_dir": str(tmp_path / "out"),
    })
    code = main(["run", cfg])
    err = capsys.readouterr().err
    assert main(["check", cfg]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] == (code == 0)
    assert code == (0 if kind == "ordered" else 1)
    if code:
        assert err.startswith("error: ")
        assert report["issues"] == [err[len("error: "):].rstrip("\n")]


def test_a_config_that_is_a_directory_is_unreadable(tmp_path, capsys, monkeypatch):
    # the default output_dir is out/ under the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config: ") and "Is a directory" in err
    assert files_in(tmp_path) == []


@pytest.mark.parametrize("payload, message", [
    ([{"experiment": "coupling_report"}], "config root must be a JSON object"),
    ({"measures": SELECTIVE, "seed": 1}, "missing required field 'experiment'"),
], ids=["root_a_list", "no_experiment"])
def test_a_config_without_its_frame_is_refused(tmp_path, capsys, monkeypatch, payload, message):
    # the default output_dir is out/ under the working directory
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert files_in(tmp_path) == ["c.json"]


def test_run_on_an_unordered_pair_exits_one_and_writes_nothing(tmp_path, capsys):
    reversed_pair = {"lambda_minus": PAIR["lambda_plus"], "lambda_plus": PAIR["lambda_minus"]}
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "coupling_report", "measures": reversed_pair, "seed": 1,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: tail mass of lambda_minus exceeds lambda_plus at x=0.5\n"
    )
    assert files_in(tmp_path / "out") == []


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second of start-up; only tests may load it
    code = "import sys, lambda_asg.cli; print('scipy.stats' in sys.modules)"
    out = fresh_python("-c", code)
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_param_tables() -> dict[str, list[list[str]]]:
    """Experiment -> rows of its params table, from the ``#### `name``` headings
    of README, in the order they appear."""
    tables = {}
    for section in README.read_text().split("\n#### ")[1:]:
        heading, _, body = section.partition("\n")
        rows = [
            re.split(r"(?<!\\)\|", line)[1:-1]
            for line in body.split("\n#")[0].splitlines() if line.startswith("| `")
        ]
        tables[heading.strip("`")] = [
            [cell.strip().strip("`").replace("\\|", "|") for cell in row] for row in rows
        ]
    return tables


def test_readme_documents_every_param():
    tables = readme_param_tables()
    assert list(tables) == sorted(RUNNERS)
    for name, rows in tables.items():
        expected = [
            [p.name, p.annotation,
             "required" if p.default is p.empty else json.dumps(p.default),
             str(MINIMUM.get(p.name, ""))]
            for p in inspect.signature(RUNNERS[name]).parameters.values()
            if p.kind is p.KEYWORD_ONLY
        ]
        assert rows == expected, name


def test_readme_library_tour_runs(capsys):
    # the tour's code runs as printed, so a public name it uses that is
    # removed or renamed fails here
    tour = README.read_text().split("\n## Library quick tour\n")[1]
    code = tour.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    residual, p = map(float, capsys.readouterr().out.split())
    assert residual < 1e-10
    assert 0.0 < p < 1.0


def test_readme_references_resolve():
    # every `module.name` of a lambda_asg module names something that exists;
    # file names such as `cli.py` are skipped
    package = Path(lambda_asg.__file__).parent
    modules = {p.stem for p in package.glob("*.py")}
    checked = 0
    for module, name in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)`", README.read_text()):
        if module not in modules or (package / f"{module}.{name}").exists():
            continue
        target = importlib.import_module(f"lambda_asg.{module}")
        for part in name.split("."):
            assert hasattr(target, part), f"README names {module}.{name}, which does not exist"
            target = getattr(target, part)
        checked += 1
    assert checked
