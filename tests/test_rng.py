import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lambda_asg
from lambda_asg import asg, cli, duality, limits, moran, rng
from lambda_asg.measures import CoupledMeasure


def test_stream_tags_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(set(tags.values())) == len(tags)


def test_sde_consumers_default_to_different_streams(monkeypatch):
    keys = []

    def record(replicates, seed, key, run):
        keys.append(key)
        return np.zeros(replicates)

    monkeypatch.setattr(limits, "batched", record)
    coupling = CoupledMeasure.from_atoms([(0.5, 0.25, 1.0)])
    limits.sde_absorption(coupling, 0.5, 3, seed=1)
    limits.sde_final_values(coupling, 0.5, 1.0, 3, seed=1)
    assert keys[0] != keys[1]


def _draws(n, stream, k):
    return stream.random((n, k))


def test_batched_rows_come_from_chunk_streams(pool_workers):
    # chunks of 4, 4 and 2 replicates, on one worker and then on two
    expected = np.concatenate([
        rng.substream(8, 99, c).random((n, 3)) for c, n in enumerate((4, 4, 2))
    ])
    for threads in (1, 2):
        rows = rng.batched(10, 8, (99,), _draws, 3, chunk=4, threads=threads)
        assert rows.shape == (10, 3)
        assert np.array_equal(rows, expected)
    assert pool_workers == [2]


def test_batched_keeps_one_chunk_in_process(pool_workers):
    rows = rng.batched(4, 8, (99,), _draws, 3, chunk=4, threads=2)
    assert np.array_equal(rows, rng.substream(8, 99, 0).random((4, 3)))
    assert pool_workers == []


def _one_draw(n, stream, scale, keep):
    return np.zeros(n), [scale * stream.random()][:keep]


def test_alone_runs_one_replicate_on_its_own_stream():
    # replicate r is the one kept path of a one-row run on stream (seed, tag, r)
    for r in range(3):
        assert rng.alone(8, 99, r, _one_draw, 2.0) == 2.0 * rng.substream(8, 99, r).random()
    assert rng.alone(8, 99, 1, _one_draw, 1.0) != rng.alone(8, 99, 0, _one_draw, 1.0)


def test_batched_runs_a_closure_on_threads(pool_workers):
    k = 3

    def draws(n, stream):  # a closure, which does not pickle
        return stream.random((n, k))

    serial = rng.batched(10, 8, (99,), draws, chunk=4)
    assert np.array_equal(rng.batched(10, 8, (99,), draws, chunk=4, threads=2), serial)
    assert pool_workers == [2]


def test_batched_takes_the_dtype_and_row_shape_of_the_rows():
    flags = rng.batched(10, 8, (99,), lambda n, s: s.random(n) < 0.5, chunk=4)
    assert flags.dtype == bool and flags.shape == (10,)
    pairs = rng.batched(10, 8, (99,), lambda n, s: s.integers(0, 9, (n, 2)), chunk=4)
    assert pairs.dtype == np.int64 and pairs.shape == (10, 2)


def test_batched_leaves_no_workers_behind():
    before = threading.active_count()
    rng.batched(10, 8, (99,), _draws, 3, chunk=2, threads=2)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before


MILD = CoupledMeasure.from_atoms([(0.4, 0.15, 0.8), (0.7, 0.1, 0.6)])
# every replicate loop runs through batched, which refuses an empty run
REPLICATE_RUNS = {
    "simulate_final_counts": lambda r: moran.simulate_final_counts(
        moran.MoranConfig(N=10, coupling=MILD, initial_count=5), 1.0, r, seed=1),
    "sde_final_values": lambda r: limits.sde_final_values(MILD, 0.4, 1.0, r, seed=1),
    "chain_final_states": lambda r: limits.chain_final_states(MILD, 3, 1.0, r, seed=1),
    "line_count_replicates": lambda r: asg.line_count_replicates(10, MILD, 3, 1.0, r, 1, 0),
}


@pytest.mark.parametrize("replicates", [0, -1])
@pytest.mark.parametrize("name", sorted(REPLICATE_RUNS))
def test_replicate_runs_need_a_replicate(name, replicates):
    with pytest.raises(ValueError, match=f"replicates must be >= 1, got {replicates}"):
        REPLICATE_RUNS[name](replicates)


def test_threads_share_a_fresh_coupling_without_races():
    # more threads than cores, a short switch interval, and a coupling whose
    # cached atom table the chunks first read concurrently
    def counts(threads):
        c = CoupledMeasure.from_atoms([(0.4, 0.15, 0.8), (0.7, 0.1, 0.6)])
        return rng.batched(
            200, 3, (99,),
            lambda n, s: duality._pathwise_counts(*duality._pathwise_draws(n, s, 10, c, 1.0, 5, 3)),
            chunk=4, threads=threads,
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = counts(8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(pooled, counts(1))


def test_cli_import_loads_no_pool_modules():
    code = (
        "import sys, lambda_asg.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    src = str(Path(lambda_asg.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_each_stream_key_has_one_consumer(tmp_path, monkeypatch):
    # every key a run or a single-path function draws from, by consumer; the
    # chunk streams of rng.batched are made by rng.substream too
    keys: dict[tuple, set] = {}
    consumer = [None]
    make = rng.substream

    def record(seed, *key):
        keys.setdefault((seed, *key), set()).add(consumer[0])
        return make(seed, *key)

    # rng.alone and rng.batched open every stream of these runs; asg and limits
    # bind substream for their other consumers, and are watched in case a
    # single path opened its own
    for module in (rng, asg, limits):
        monkeypatch.setattr(module, "substream", record)
    coupling = CoupledMeasure.from_atoms([(0.4, 0.15, 0.8), (0.7, 0.1, 0.6)])
    runs = {
        "moran_sim": {"N": 10, "horizon": 1.0, "x0": 0.5, "replicates": 4, "max_paths": 3},
        "sde_sim": {"x0": 0.5, "horizon": 1.0, "replicates": 4, "max_paths": 3},
        "line_count_sim": {"N": 10, "n0": 3, "horizon": 1.0, "replicates": 4, "max_paths": 3},
    }
    for name, params in runs.items():
        consumer[0] = name
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({
            "experiment": name, "params": params, "seed": 5,
            "measures": {"coupling": {"atoms": [[0.4, 0.15, 0.8], [0.7, 0.1, 0.6]]}},
        }))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(config), "--output-dir", str(tmp_path / name)]) == 0
    singles = {
        "moran.simulate": lambda r: moran.simulate(
            moran.MoranConfig(N=10, coupling=coupling, initial_count=5), 1.0, 5, r),
        "limits.simulate_sde": lambda r: limits.simulate_sde(coupling, 0.5, 1.0, 5, r),
        "asg.simulate_line_count": lambda r: asg.simulate_line_count(10, coupling, 3, 1.0, 5, r),
        "limits.simulate_limit_chain": lambda r: limits.simulate_limit_chain(
            coupling, 3, 1.0, 5, replicate=r),
    }
    for name, path in singles.items():
        consumer[0] = name
        for r in range(4):
            path(r)
    assert {c for owners in keys.values() for c in owners} == {*runs, *singles}
    assert {k: owners for k, owners in keys.items() if len(owners) > 1} == {}
    line_count_tags = {k[1] for k, owners in keys.items() if "line_count_sim" in owners}
    assert line_count_tags == {rng.TAG_LINECOUNT}
