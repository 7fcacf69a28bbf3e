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


def _draws(stream, k):
    return stream.random(k)


def test_per_replicate_rows_come_from_own_streams():
    # two chunks, on one worker and on two
    n = rng.PATHWISE_CHUNK + 5
    expected = np.array([rng.substream(8, 99, r).random(3) for r in range(n)])
    for threads in (1, 2):
        rows = rng.per_replicate(n, 8, 99, threads, _draws, 3)
        assert rows.shape == (n, 3)
        assert np.array_equal(rows, expected)
