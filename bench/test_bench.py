"""Self-test of the benchmark at toy sizes.

    python3 -m pytest bench/test_bench.py

Checks that every workload emits every metric named in BENCHMARK.json with
all operations passing, that two runs with the same seed write
byte-identical artifacts (manifests excluded), and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, out: Path, workload: str, trace: int, seed: int = 7):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "toy", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def artifacts(tree: Path) -> dict[str, bytes]:
    return {
        p.relative_to(tree).as_posix(): p.read_bytes()
        for p in sorted(tree.rglob("*"))
        if p.is_file() and p.name not in ("manifest.json", "spans.csv")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_deterministic(workload, tmp_path):
    report, result = result_of(run_bench(ROOT, tmp_path / "a", workload, trace=0))
    check_result(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["environment"]["program_threads"] == 1
    assert report["environment"]["seed"] == 7
    again, _ = result_of(run_bench(ROOT, tmp_path / "b", workload, trace=0))
    first = artifacts(tmp_path / "a" / workload)
    assert first, "no artifacts written"
    assert artifacts(tmp_path / "b" / workload) == first
    assert again["artifact_sha256"] == report["artifact_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload, tmp_path):
    report, result = result_of(run_bench(ROOT, tmp_path, workload, trace=1))
    check_result(result, "per_layer")
    assert report["passes"]["traced"] >= 1 and report["passes"]["untraced"] >= 1
    assert (tmp_path / workload / "spans.csv").is_file()


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "out", WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
