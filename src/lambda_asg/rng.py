"""Splittable random-number streams.

Every stochastic routine in the package draws from a stream derived from
``(master_seed, tag, index)`` through :class:`numpy.random.SeedSequence`
spawn keys, so replicate ``r`` of an experiment sees the same randomness
no matter how replicates are batched or scheduled.  Batched Monte Carlo
routines (:func:`batched`) consume one stream per fixed-size chunk of
``REPLICATE_CHUNK`` replicates (chunk ``c`` covers replicates
``[c * CHUNK, (c+1) * CHUNK)``); per-replicate routines
(:func:`per_replicate`) give replicate ``r`` its own stream ``(seed, tag, r)``.
Both keep results byte-identical across worker counts.
"""

from __future__ import annotations

import numpy as np

# Chunk size for vectorized Monte Carlo batches. Fixed: results must not
# depend on thread count or scheduling.
REPLICATE_CHUNK = 1 << 16

# Stream tags, one per independent consumer of randomness.
TAG_MORAN = 1
TAG_ASG = 2
TAG_PATHWISE = 3
TAG_SDE = 4
TAG_LIMIT_CHAIN = 5
TAG_CONVERGENCE_MORAN = 6
TAG_CONVERGENCE_SDE = 7
TAG_KS_BOOTSTRAP = 9
TAG_MORAN_PATH = 10
TAG_SDE_PATH = 11
TAG_CHAIN_PATH = 12
TAG_CONSISTENCY = 13
TAG_LINECOUNT_PATH = 14
TAG_EVENT_JUMPS = 15
TAG_SDE_ABSORPTION = 16

# Chunk size for per-replicate (non-vectorized) Monte Carlo loops.
PATHWISE_CHUNK = 2048

SEED_RULE = (
    "stream(*key) = default_rng(SeedSequence(seed, spawn_key=key)); key starts "
    "with a fixed per-consumer tag; batched routines append one chunk index "
    f"per {REPLICATE_CHUNK} replicates; per-replicate routines use (seed, tag, "
    "replicate)"
)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for stream ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


def batched(replicates: int, seed: int, key: tuple[int, ...], dtype, run) -> np.ndarray:
    """Values of ``replicates`` replicates drawn in fixed-size chunks.

    Chunk ``c`` covers replicates ``[c * CHUNK, (c+1) * CHUNK)`` and gets its
    values from ``run(n, rng)``, with ``n`` its size and ``rng`` stream
    ``(seed, *key, c)``.
    """
    out = np.empty(replicates, dtype=dtype)
    for c, start in enumerate(range(0, replicates, REPLICATE_CHUNK)):
        stop = min(start + REPLICATE_CHUNK, replicates)
        out[start:stop] = run(stop - start, substream(seed, *key, c))
    return out


def per_replicate(replicates: int, seed: int, tag: int, threads: int, fn, *args) -> np.ndarray:
    """Rows ``fn(substream(seed, tag, r), *args)`` for r < ``replicates``.

    The replicates run in chunks of ``PATHWISE_CHUNK``, on a process pool of
    ``threads`` workers when there is more than one chunk; each replicate owns
    its stream, so the ``(replicates, k)`` result is the same for any worker
    count.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    jobs = [
        (fn, seed, tag, start, min(start + PATHWISE_CHUNK, replicates), args)
        for start in range(0, replicates, PATHWISE_CHUNK)
    ]
    if threads <= 1 or len(jobs) <= 1:
        return np.concatenate([_replicate_chunk(job) for job in jobs])
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(_replicate_chunk, jobs)))


def _replicate_chunk(job: tuple) -> np.ndarray:
    fn, seed, tag, start, stop, args = job
    return np.array([fn(substream(seed, tag, r), *args) for r in range(start, stop)])
