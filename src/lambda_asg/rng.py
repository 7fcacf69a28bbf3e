"""Splittable random-number streams.

Every stochastic routine in the package draws from a stream derived from
``(master_seed, tag, index)`` through :class:`numpy.random.SeedSequence`
spawn keys, so a result never depends on how work is scheduled.  Replicate
loops go through :func:`batched`, which hands each fixed-size chunk of
replicates one stream: chunk ``c`` covers replicates
``[c * chunk, (c+1) * chunk)`` and draws from ``(seed, tag, c)``.  The
vectorized Monte Carlo routines use chunks of ``REPLICATE_CHUNK``; the
pathwise ASG checks size their chunks from the population size, the rows
each replicate carries and the expected event count (see
``asg._chunk_size``), never from the worker count, and spread the chunks
over ``threads`` worker processes.  Results are byte-identical across
worker counts.

A recorded path is a row of a run: ``batched(..., paths=k)`` keeps the paths
of replicates 0..k-1, whose event times the chunk draws from its own stream
after its events, so path r ends at the run's value r.  The single-path
functions (``moran.simulate``, ``limits.simulate_sde``,
``asg.simulate_line_count``, ``limits.simulate_limit_chain``) run replicate r
alone on stream ``(seed, path tag, r)``.
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
TAG_LINECOUNT = 17

SEED_RULE = (
    "stream(*key) = default_rng(SeedSequence(seed, spawn_key=key)); key starts "
    "with a fixed per-consumer tag and ends with a chunk index: vectorized "
    f"routines take chunks of {REPLICATE_CHUNK} replicates, the pathwise ASG "
    "checks (asg_pathwise, duality_pathwise) chunks of about "
    "asg.BLOCK_LABELS labels and member entries, sized from N, the rows per "
    "replicate and mass * horizon; --threads runs those chunks on worker processes. "
    "moran_sim, sde_sim and line_count_sim write path r as row r of their finals "
    "run, its event times drawn from the chunk stream after the chunk's events; "
    "the single-path functions draw replicate r from stream (seed, path tag, r)"
)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for stream ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


def batched(
    replicates: int, seed: int, key: tuple[int, ...], dtype, run, *args,
    chunk: int = REPLICATE_CHUNK, threads: int = 1, paths: int | None = None,
):
    """Values of ``replicates`` replicates drawn in fixed-size chunks.

    Chunk ``c`` covers replicates ``[c * chunk, (c+1) * chunk)`` and gets its
    rows from ``run(n, rng, *args)``, with ``n`` its size and ``rng`` stream
    ``(seed, *key, c)``.  With ``threads`` above 1 and more than one chunk,
    the chunks run on a pool of that many worker processes (``run`` and
    ``args`` must then pickle); the result is the same for any worker count.

    With ``paths`` given, ``run`` also gets ``keep``, how many of its first
    rows are replicates below ``paths``, and returns ``(rows, kept)`` with a
    list of ``keep`` items; the result is then ``(values, kept)``, with the
    chunks' lists joined in replicate order.
    """
    jobs = []
    for c, start in enumerate(range(0, replicates, chunk)):
        n = min(chunk, replicates - start)
        keep = () if paths is None else (min(max(paths - start, 0), n),)
        jobs.append((run, n, seed, (*key, c), (*args, *keep)))
    if threads > 1 and len(jobs) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned workers: forking a process that may hold BLAS threads is unsafe
        with ProcessPoolExecutor(
            max_workers=min(threads, len(jobs)), mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            return _collect(replicates, dtype, pool.map(_run_chunk, jobs), paths)
    return _collect(replicates, dtype, map(_run_chunk, jobs), paths)


def _run_chunk(job: tuple) -> np.ndarray:
    run, n, seed, key, args = job
    return run(n, substream(seed, *key), *args)


def _collect(replicates: int, dtype, parts, paths: int | None):
    """The chunks' rows gathered, and with ``paths`` given their kept lists."""
    if paths is None:
        return _gather(replicates, dtype, parts)
    kept: list = []

    def rows():
        for part, part_kept in parts:
            kept.extend(part_kept)
            yield part

    return _gather(replicates, dtype, rows()), kept


def _gather(replicates: int, dtype, parts) -> np.ndarray:
    """The chunks' rows, in chunk order, in one array of ``dtype``."""
    out = None
    start = 0
    for part in parts:
        if out is None:
            out = np.empty((replicates, *np.shape(part)[1:]), dtype=dtype)
        out[start : start + len(part)] = part
        start += len(part)
    return np.empty(0, dtype=dtype) if out is None else out
