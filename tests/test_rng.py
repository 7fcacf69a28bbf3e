import inspect

import numpy as np

from lambda_asg import limits, rng


def test_stream_tags_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(set(tags.values())) == len(tags)


def test_sde_consumers_default_to_different_streams():
    def default_key(fn):
        return inspect.signature(fn).parameters["key"].default

    assert default_key(limits.sde_absorption) != default_key(limits.sde_final_values)


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
