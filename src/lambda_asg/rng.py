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
``asg._chunk_size``), never from the thread count, and run the chunks on
a pool of ``threads`` threads.  Results are byte-identical across thread
counts.

A recorded path is a row of a run: ``batched(..., paths=k)`` keeps the paths
of replicates 0..k-1, whose event times the chunk draws from its own stream
after its events, so path r ends at the run's value r.  The single-path
functions (``moran.simulate``, ``limits.simulate_sde``,
``asg.simulate_line_count``, ``limits.simulate_limit_chain``) run replicate r
alone on stream ``(seed, path tag, r)``, through :func:`alone`.
"""

from __future__ import annotations

import numpy as np

from .errors import check_range

# Chunk size for vectorized Monte Carlo batches. Fixed: results must not
# depend on thread count or scheduling.
REPLICATE_CHUNK = 1 << 16

# Stream tags, one per independent consumer of randomness. Each tag keys
# its streams, so none is renumbered: 8 and 15 stay unused.
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
TAG_SDE_ABSORPTION = 16
TAG_LINECOUNT = 17

SEED_RULE = (
    "stream(*key) = default_rng(SeedSequence(seed, spawn_key=key)); key starts "
    "with a fixed per-consumer tag and ends with a chunk index: vectorized "
    f"routines take chunks of {REPLICATE_CHUNK} replicates, the pathwise ASG "
    "checks (asg_pathwise, duality_pathwise) chunks of about "
    "asg.BLOCK_LABELS labels and member entries, sized from N, the rows per "
    "replicate and mass * horizon; --threads runs those chunks on a thread pool. "
    "moran_sim, sde_sim and line_count_sim write path r as row r of their finals "
    "run, its event times drawn from the chunk stream after the chunk's events; "
    "the single-path functions draw replicate r from stream (seed, path tag, r)"
)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for stream ``(seed, *key)``; ``seed >= 0``."""
    check_range("seed", seed, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


def alone(seed: int, tag: int, replicate: int, run, *args):
    """The one kept path of ``run(1, rng, *args, 1)``: replicate ``replicate``
    run alone on stream ``(seed, tag, replicate)``.

    Raises:
        ValueError: if ``replicate < 0``.
    """
    check_range("replicate", replicate, 0)
    return run(1, substream(seed, tag, replicate), *args, 1)[1][0]


def batched(
    replicates: int, seed: int, key: tuple[int, ...], run, *args,
    chunk: int = REPLICATE_CHUNK, threads: int = 1, paths: int | None = None,
):
    """Values of ``replicates`` replicates drawn in fixed-size chunks.

    Chunk ``c`` covers replicates ``[c * chunk, (c+1) * chunk)`` and gets its
    rows, an array of ``n`` rows, from ``run(n, rng, *args)``, with ``n`` its
    size and ``rng`` stream ``(seed, *key, c)``; the result takes the dtype
    and row shape of the first chunk's rows.  With ``threads`` above 1 and
    more than one chunk, the chunks run on a pool of ``min(threads, chunks)``
    threads.  That is safe because each chunk draws only from its own
    generator and returns only its own rows, which are placed in chunk order,
    so the result is the same for any thread count.

    With ``paths`` given, ``run`` also gets ``keep``, how many of its first
    rows are replicates below ``paths``, and returns ``(rows, kept)`` with a
    list of ``keep`` items; the result is then ``(values, kept)``, with the
    chunks' lists joined in replicate order.

    Raises:
        ValueError: if ``replicates < 1``.
    """
    check_range("replicates", replicates, 1)
    starts = range(0, replicates, chunk)

    def run_chunk(c: int):
        n = min(chunk, replicates - starts[c])
        keep = () if paths is None else (min(max(paths - starts[c], 0), n),)
        return run(n, substream(seed, *key, c), *args, *keep)

    chunks = range(len(starts))
    if threads > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            return _collect(replicates, pool.map(run_chunk, chunks), paths)
    return _collect(replicates, map(run_chunk, chunks), paths)


def _collect(replicates: int, parts, paths: int | None):
    """The chunks' rows, in chunk order, in one array allocated from the
    first chunk's rows; with ``paths`` given, also their kept lists joined."""
    kept: list = []
    start = 0
    for part in parts:
        if paths is not None:
            part, part_kept = part
            kept.extend(part_kept)
        if start == 0:
            out = np.empty((replicates, *part.shape[1:]), dtype=part.dtype)
        out[start : start + len(part)] = part
        start += len(part)
    return out if paths is None else (out, kept)
