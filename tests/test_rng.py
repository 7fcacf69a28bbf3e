import numpy as np

from lambda_asg import limits, rng
from lambda_asg.measures import CoupledMeasure


def test_stream_tags_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(set(tags.values())) == len(tags)


def test_sde_consumers_default_to_different_streams(monkeypatch):
    keys = []

    def record(replicates, seed, key, dtype, run):
        keys.append(key)
        return np.zeros(replicates, dtype)

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
        rows = rng.batched(10, 8, (99,), float, _draws, 3, chunk=4, threads=threads)
        assert rows.shape == (10, 3)
        assert np.array_equal(rows, expected)
    assert pool_workers == [2]


def test_batched_keeps_one_chunk_in_process(pool_workers):
    rows = rng.batched(4, 8, (99,), float, _draws, 3, chunk=4, threads=2)
    assert np.array_equal(rows, rng.substream(8, 99, 0).random((4, 3)))
    assert pool_workers == []
