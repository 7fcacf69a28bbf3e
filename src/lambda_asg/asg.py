"""Ancestral selection graph: Poisson event stream read in both directions.

Each reproduction event carries a reproducer, a strength pair (y, z) and one
arrow label per individual: *neutral* (drawn with probability y) replaces the
target unconditionally, *selective* (probability z) replaces it only when the
reproducer carries the advantaged type.  Individuals are indexed 0..N-1.
A label compares one 53-bit uniform with y and y + z, exactly, reading the
uniform's top byte and, only when that byte ties with a threshold's top byte
(probability at most 2/256), its 45 low bits; a threshold ties only when it
falls strictly inside a byte, so p = 0 and p = 1 draw no low bits.

Forward in time the events propagate types (advantaged through both arrow
kinds, disadvantaged through neutral only); backward in time they drive the
potential-ancestor sweep: lines hit by a neutral arrow always merge into the
reproducer line, lines hit by a selective arrow stay and the reproducer line
is added.  The count of potential ancestors is Markov: its rates (see
:mod:`lambda_asg.rates`) are the oracle for its event-by-event simulator.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import SizeLimit, check_horizon, check_range, write_file
from .measures import ORDER_TOL, CoupledMeasure
from .moran import _event_counts, _event_times, _size, record_events
from .paths import FrequencyPath
from .rates import MixtureRows
from .rng import (
    TAG_ASG, TAG_CONSISTENCY, TAG_LINECOUNT, TAG_LINECOUNT_PATH, alone, batched, substream,
)

OUTCOME_NONE = 0
OUTCOME_NEUTRAL = 1
OUTCOME_SELECTIVE = 2

# Above this many stored outcome labels, realizations must be streamed to a
# binary log instead of held in memory.
MAX_IN_MEMORY_OUTCOMES = 10**7

LOG_MAGIC = b"ASG1"

# Largest number of arrow labels drawn in one block of events (1 MB).
BLOCK_LABELS = 1 << 20

# A block's labels are worked a tile of about this many at a time, in buffers
# that every tile reuses; a tile's rows are a multiple of 8, so its bytes are
# whole 64-bit words and a realization does not depend on the tile size.
TILE_LABELS = 1 << 16

# A label's uniform u = (k * 2**45 + e) * 2**-53 is read as its top byte k,
# then, only on a tie with a threshold's top byte, its 45 low bits e.
LOW_BITS = 45

# One round of events: (width, reproducers, outcomes), the e-th events of the
# first ``width`` replicates, built by :func:`_event_rounds` and read by
# :func:`_forward_rounds` and :func:`_backward_rounds`.
Round = tuple[int, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class AsgRealization:
    """A time-sorted event log, stored columnar."""

    N: int
    horizon: float
    times: np.ndarray        # (E,) strictly increasing
    reproducers: np.ndarray  # (E,) int64 in [0, N)
    ys: np.ndarray           # (E,)
    zs: np.ndarray           # (E,)
    outcomes: np.ndarray     # (E, N) uint8

    def __len__(self) -> int:
        return len(self.times)


def _mask(N: int, individuals: Iterable[int]) -> np.ndarray:
    """A boolean mask of the N individuals marking ``individuals``.

    Raises:
        ValueError: for an index that is not an integer (numpy would refuse a
            float without naming it and read a bool as a mask) or lies outside
            0..N-1 (numpy would wrap a negative index to the end).
    """
    idx = list(individuals)
    for i in idx:
        if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"individual {i!r} is not an integer index: need 0 <= i < N = {N}")
        if not 0 <= i < N:
            raise ValueError(f"individual {i} out of range: need 0 <= i < N = {N}")
    mask = np.zeros(N, dtype=bool)
    mask[idx] = True
    return mask


def _realization(
    N: int, coupling: CoupledMeasure, horizon: float, seed: int
) -> tuple[np.random.Generator, int]:
    """The stream ``(seed, TAG_ASG, 0)`` of a realization and its event count
    E, drawn first by :func:`lambda_asg.moran._event_counts`, the count rule
    of every event stream; N and the horizon are checked before it is opened.
    :func:`generate_asg` and :func:`stream_asg_to_log` both open their
    stream here."""
    check_range("N", N, 2)
    check_horizon(horizon)
    rng = substream(seed, TAG_ASG, 0)
    return rng, _event_counts(rng, coupling.total_mass, horizon)


def generate_asg(
    N: int, coupling: CoupledMeasure, horizon: float, seed: int
) -> AsgRealization:
    """Draw one realization of the event stream on [0, horizon].

    The event count comes from :func:`_realization` and the times are
    sorted uniforms (:func:`lambda_asg.moran._event_times`), drawn before
    the marks; the reproducer is uniform, the strength pair is an atom drawn
    by mass, and each individual's arrow label is independently neutral w.p. y and
    selective w.p. z, from one random byte but on a tie
    (:func:`_draw_labels`).
    For a seed, ``write_event_log`` of this realization writes the bytes
    that :func:`stream_asg_to_log` writes.

    Raises:
        SizeLimit: if the realization would store more than
            ``MAX_IN_MEMORY_OUTCOMES`` labels; use :func:`stream_asg_to_log`.
        ValueError: if mass * horizon is above ``moran.MAX_EVENT_MEAN``.
    """
    rng, E = _realization(N, coupling, horizon, seed)
    if E * N > MAX_IN_MEMORY_OUTCOMES:
        raise SizeLimit(
            f"{E} events x {N} individuals exceed the in-memory cap; "
            "stream to disk with stream_asg_to_log"
        )
    times = _event_times(rng, E, horizon)
    reproducers, atoms, outcomes = _joined(_mark_blocks(rng, E, N, coupling))
    ys, zs = coupling.ys[atoms], coupling.zs[atoms]
    return AsgRealization(N, horizon, times, reproducers, ys, zs, outcomes)


def _block_events(N: int) -> int:
    """Events per block of :func:`_mark_blocks`: it follows from N alone, so
    a seed gives one realization whoever reads it."""
    return max(BLOCK_LABELS // N, 1)


def _mark_blocks(
    rng: np.random.Generator, E: int, N: int, coupling: CoupledMeasure,
    outcomes: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The marks ``(reproducers, atoms, labels)`` of E events, a block of at
    most ``_block_events(N)`` events at a time; one empty block when E = 0.
    ``atoms`` are indices into the coupling's atoms: a caller that stores
    the strength pairs gathers ``coupling.ys[atoms]`` and
    ``coupling.zs[atoms]`` itself.  With ``outcomes``, a
    ``(_block_events(N), N)`` uint8 buffer, each block's labels are written
    into its first rows, which the next block overwrites; else each block
    gets a new array.

    A block draws its reproducers (``integers``), atoms (``sample_atoms``)
    and then its labels by :func:`_draw_labels`, in that order.
    """
    for start in range(0, max(E, 1), _block_events(N)):
        n = min(_block_events(N), E - start)
        reproducers = rng.integers(0, N, size=n)
        atoms = coupling.sample_atoms(rng, n)
        labels = np.empty((n, N), np.uint8) if outcomes is None else outcomes[:n]
        _draw_labels(rng.bit_generator, coupling.ys, coupling.zs, atoms, labels)
        yield reproducers, atoms, labels


def _joined(blocks: Iterable[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """The columns of all blocks; a single block, the usual case, is kept
    without copying."""
    blocks = list(blocks)
    return blocks[0] if len(blocks) == 1 else tuple(np.concatenate(col) for col in zip(*blocks))


def _thresholds(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` of each ``T = ceil(p * 2**53)``, at most 2**53: the top
    byte ``hi = T >> 45``, 256 at p = 1, and the rest ``lo = T mod 2**45``,
    which is 0 at p = 0 and at p = 1."""
    T = np.minimum(np.ceil(p * 2.0**53), 2.0**53).astype(np.int64)
    return T >> LOW_BITS, T & ((1 << LOW_BITS) - 1)


def _below(k: np.ndarray, e: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Whether ``u = (k * 2**45 + e) * 2**-53`` lies below the p of ``(hi, lo)``."""
    return (k < hi) | ((k == hi) & (e < lo))


def _draw_labels(
    bits, ys: np.ndarray, zs: np.ndarray, atoms: np.ndarray, out: np.ndarray
) -> None:
    """The ``(n, N)`` arrow labels of n events, into ``out``: event i has the
    atom ``(ys, zs)[atoms[i]]``.

    A label is neutral when its 53-bit uniform u is below y, selective when
    y <= u < y + z and none otherwise; as u < y implies u < y + z, it is
    ``OUTCOME_SELECTIVE * (u < y + z) - (u < y)``.  u < p holds exactly when
    the integer ``u * 2**53`` is below ``T = ceil(p * 2**53)``, so each
    label first draws u's top byte k: one byte of the block's
    ``bits.random_raw`` words, read little-endian, row by row.  By
    :func:`_thresholds`, k < hi decides u < p, and k > hi decides against,
    except when k == hi and lo > 0, that is when T falls strictly inside
    byte k: a tie.  After all the block's bytes, each label that ties with
    either threshold draws u's low bits e, the top 45 of one more word, in
    row-major order, and reads ``u < p`` as ``e < lo``.  So every label has
    the law of a 53-bit float comparison, from one byte but for a tie, of
    probability at most 2/256; p = 0 and p = 1 never tie and draw no low
    bits.

    The bytes are compared as uint8: u < y as ``k < min(hi, 255)`` and
    u < y + z as ``k <= max(hi, 1) - 1``, which at y + z = 1 is byte 255.
    The two ends no byte expresses are set on whole rows: every label of an
    atom at y = 1 is neutral, and every label of an atom at y + z = 0 is
    none.  The labels are worked a tile of rows at a time.  A tile searches
    its bytes for ties with a threshold only if one of its rows' atoms has a
    low part above 0 there (a dyadic p has none), and a call whose atoms
    have neither ties nor ends checks no tile for them.  When ``out`` is a
    strided view (the records of a streamed log), a tile's labels are
    worked in one contiguous buffer and copied into ``out`` once.
    """
    n, N = out.shape
    hy, ly = _thresholds(ys)
    hs, ls = _thresholds(ys + zs)
    below_y = np.minimum(hy, 255).astype(np.uint8)
    below_s = (np.maximum(hs, 1) - 1).astype(np.uint8)
    tie_byte_s = np.minimum(hs, 255).astype(np.uint8)
    one, zero = hy > 255, (hs == 0) & (ls == 0)
    ends = (one | zero).any()
    may_tie = (ly > 0).any() or (ls > 0).any()
    rows = max(TILE_LABELS // N // 8, 1) * 8
    below = np.empty((min(rows, n), N), dtype=bool)
    tie = np.empty_like(below)
    labels = None if out.flags.c_contiguous else np.empty_like(below, dtype=np.uint8)
    ties, tied_bytes = [np.empty(0, np.intp)], [np.empty(0, np.uint8)]
    for r0 in range(0, n, rows):
        m = min(rows, n - r0)
        words = bits.random_raw(-(-m * N // 8)).astype("<u8", copy=False)
        k = words.view(np.uint8)[: m * N].reshape(m, N)
        a = atoms[r0 : r0 + m]
        y = below_y[a, None]
        o = out[r0 : r0 + m] if labels is None else labels[:m]
        b = below[:m]
        np.less_equal(k, below_s[a, None], out=o.view(bool))
        o += o
        np.less(k, y, out=b)
        o -= b.view(np.uint8)
        if ends:
            o[one[a]] = OUTCOME_NEUTRAL
            o[zero[a]] = OUTCOME_NONE
        if labels is not None:
            out[r0 : r0 + m] = o
        if not may_tie:
            continue
        tie_y, tie_s = (ly[a] > 0).any(), (ls[a] > 0).any()
        if tie_y or tie_s:
            s = tie_byte_s[a, None]
            np.equal(k, y if tie_y else s, out=b)
            if tie_y and tie_s:
                b |= np.equal(k, s, out=tie[:m])
            idx = np.flatnonzero(b)
            ties.append(idx + r0 * N)
            tied_bytes.append(k.ravel()[idx])
    r, c = np.divmod(np.concatenate(ties), N)
    k, a = np.concatenate(tied_bytes), atoms[r]
    # a byte equal to a threshold's top byte is a tie only if its low part is not 0
    tied = ((k == hy[a]) & (ly[a] > 0)) | ((k == hs[a]) & (ls[a] > 0))
    r, c, k, a = r[tied], c[tied], k[tied], a[tied]
    if len(k):
        e = (bits.random_raw(len(k)) >> (64 - LOW_BITS)).astype(np.int64)
        out[r, c] = OUTCOME_SELECTIVE * _below(k, e, hs[a], ls[a]) - _below(k, e, hy[a], ly[a])


def propagate_forward(asg: AsgRealization, minus: Iterable[int]) -> set[int]:
    """The disadvantaged individuals after every event, from the first, of a
    population whose disadvantaged individuals at the start are ``minus``
    (any iterable of indices, possibly empty): types pushed forward by
    :func:`_forward_rounds`, one event per round.

    Raises:
        ValueError: for an individual that is not an integer index in
            0..N-1, as :func:`potential_ancestors` refuses a sample member;
            so a bool mask is refused by its first entry.
    """
    types = _mask(asg.N, minus)
    rounds = _event_rounds(itertools.repeat(1, len(asg)), asg.reproducers, asg.outcomes)
    _forward_rounds(rounds, types[None])
    return {int(i) for i in np.nonzero(types)[0]}


def _event_rounds(widths: Iterable[int], reproducers, outcomes) -> Iterator[Round]:
    """Rounds of ``widths`` consecutive rows of the event columns
    ``reproducers`` and ``outcomes``, in row order, made one at a time: the
    one source of rounds for both sweeps, for a chunk of replicates and, at
    width 1, for a realization."""
    start = 0
    for width in widths:
        yield width, reproducers[start : start + width], outcomes[start : start + width]
        start += width


def _forward(minus: np.ndarray, reproducers: np.ndarray, outcomes: np.ndarray) -> None:
    """One event per row of the ``(L, N)`` types ``minus``, in place.

    An advantaged reproducer converts every neutral- or selective-hit
    individual; a disadvantaged reproducer converts neutral-hit individuals
    only.  The reproducer's own label is inert (it rewrites its own type).
    """
    carrier = minus[np.arange(len(minus)), reproducers][:, None]
    minus |= carrier & (outcomes == OUTCOME_NEUTRAL)
    minus &= carrier | (outcomes == OUTCOME_NONE)


def potential_ancestors(
    asg: AsgRealization,
    sample: Iterable[int],
    from_time: float,
    to_time: float,
) -> set[int]:
    """Potential ancestors at ``to_time`` of a sample alive at ``from_time``.

    Sweeps the events in (to_time, from_time] backward by
    :func:`_backward_rounds`, one event per round, last event first.

    Raises:
        ValueError: unless ``0 <= to_time <= from_time <= horizon``, naming
            the time out of its range, or if the sample is empty.
    """
    check_range("from_time", from_time, 0, asg.horizon)
    check_range("to_time", to_time, 0, from_time)
    members = _mask(asg.N, sample)[None, None]
    if not members.any():
        raise ValueError("sample must be nonempty")
    lo = int(np.searchsorted(asg.times, to_time, side="right"))
    hi = int(np.searchsorted(asg.times, from_time, side="right"))
    window = asg.reproducers[lo:hi][::-1], asg.outcomes[lo:hi][::-1]
    _backward_rounds(_event_rounds(itertools.repeat(1, hi - lo), *window), members)
    return {int(i) for i in np.nonzero(members[0, 0])[0]}


def _backward(members: np.ndarray, reproducers: np.ndarray, outcomes: np.ndarray) -> None:
    """One event, read backward, per replicate of the ``(L, k, N)`` member
    rows ``members``, in place.

    A row is touched when the event hits one of its members other than the
    reproducer.  A touched row loses its members hit by a neutral arrow (they
    merge into the reproducer line) and gains the reproducer; members hit by
    a selective arrow stay.  Removals come before the addition, so a mixed
    event keeps selective-hit lines.
    """
    L = len(members)
    touched = outcomes != OUTCOME_NONE
    touched[np.arange(L), reproducers] = False
    rows = (members & touched[:, None, :]).any(axis=2)
    members &= ~(rows[:, :, None] & (outcomes == OUTCOME_NEUTRAL)[:, None, :])
    members[np.arange(L), :, reproducers] |= rows


# -- replicates drawn a chunk at a time ----------------------------------------


def _chunk_size(N: int, rows: int, mean: float) -> int:
    """Replicates per chunk when each replicate carries ``rows`` boolean rows
    of N and ``mean`` expected events: about ``BLOCK_LABELS`` labels and
    member entries per chunk.  It follows from the inputs alone, so a seed
    gives the same replicates for any worker count."""
    return max(int(BLOCK_LABELS // (N * (rows + mean))), 1)


def _draw_rounds(
    rng: np.random.Generator, n: int, N: int, coupling: CoupledMeasure, horizon: float
) -> list[Round]:
    """The rounds of n replicates on [0, horizon], in event order and
    without times: counts by :func:`lambda_asg.moran._event_counts`, then
    the marks of all events, round by round, from :func:`_mark_blocks`.

    The checks built on them read the whole window, so only the order of a
    replicate's events matters: a replicate is a realization of
    :func:`generate_asg` without its times.  Replicates are ordered by event
    count, most first (they are exchangeable), so the replicates with an
    e-th event are the first ``width`` of round e, and replicate j's events
    are row j of every round wider than j.  When no replicate has an event,
    there is no round.

    Raises:
        SizeLimit: if one replicate would hold more than
            ``MAX_IN_MEMORY_OUTCOMES`` labels.
    """
    counts = -np.sort(-_event_counts(rng, coupling.total_mass, horizon, n))
    if counts[0] * N > MAX_IN_MEMORY_OUTCOMES:
        raise SizeLimit(
            f"a replicate of {counts[0]} events x {N} individuals exceeds the "
            "in-memory cap; shorten the horizon or lower N"
        )
    reproducers, _, outcomes = _joined(_mark_blocks(rng, int(counts.sum()), N, coupling))
    widths = np.searchsorted(-counts, -np.arange(counts[0]), side="left")
    return list(_event_rounds(widths.tolist(), reproducers, outcomes))


def _forward_rounds(rounds: Iterable[Round], minus: np.ndarray) -> np.ndarray:
    """Push the ``(n, N)`` types ``minus`` through the rounds, first to last,
    in place."""
    for width, reproducers, outcomes in rounds:
        _forward(minus[:width], reproducers, outcomes)
    return minus


def _backward_rounds(rounds: Iterable[Round], members: np.ndarray) -> np.ndarray:
    """Sweep the ``(n, k, N)`` member rows through the rounds in the order
    given, which is backward in time (last event first), in place."""
    for width, reproducers, outcomes in rounds:
        _backward(members[:width], reproducers, outcomes)
    return members


def _ancestor_events(n, N: int | None, c: CoupledMeasure, rng: np.random.Generator):
    """One event per entry of the ancestor count ``n`` (an array, or one
    scalar count), read backward: the reproducer is one of the n lines w.p.
    n / N (never in the limit, ``N=None``); each other line is hit w.p.
    y + z, neutrally w.p. y, and a neutral hit merges it into the
    reproducer, which joins when it was outside and hit anything.  Stored
    atoms have y + z > 0."""
    size = _size(n)
    a = c.sample_atoms(rng, size)
    y = c.ys[a]
    s = y + c.zs[a]
    inside = rng.random(size) * N < n if N is not None else False
    hits = rng.binomial(n - inside, s)
    neutral = rng.binomial(hits, y / s)
    # (hits > 0) > inside is "hit and not inside", for bool arrays and bools
    return n - neutral + ((hits > 0) > inside)


def line_count_rates(
    N: int, coupling: CoupledMeasure, n: int
) -> tuple[np.ndarray, float]:
    """Transition rates of the potential-ancestor count at value ``n``.

    Returns ``(coalesce, branch)``: ``coalesce[k]`` is the rate of
    ``n -> n - k`` for k = 1..n-1 (index 0 unused), ``branch`` the rate of
    ``n -> n + 1``; :mod:`lambda_asg.rates` derives them.
    """
    check_range("n", n, 1, N)
    return _count_rates(coupling, n, N)


def _count_rates(
    coupling: CoupledMeasure, n: int, N: int | None
) -> tuple[np.ndarray, float]:
    """Row ``n`` of the ancestor rates as ``(coalesce, branch)``; ``N`` is None
    for the limit chain."""
    row = MixtureRows(coupling, (n - 1, n)).ancestor_row(n, N)
    return row[n:0:-1], float(row[n + 1])


def _ancestor_run(
    n: int, rng: np.random.Generator, N: int | None, coupling: CoupledMeasure, n0: int,
    horizon: float, hi: int, keep: int = 0,
) -> tuple[np.ndarray, list[FrequencyPath]]:
    """:func:`lambda_asg.moran.record_events` on n ancestor counts from n0 by
    :func:`_ancestor_events`; a count stops at ``hi`` and above.  The one
    place n0 is checked: in [1, N], or at least 1 in the limit."""
    check_range("n0", n0, 1, N)
    # without a selective gap one line is absorbing
    lo = int(coupling.selective_mass() == 0.0)
    return record_events(
        np.full(n, n0, dtype=np.int64), lo, hi, coupling.total_mass, horizon,
        lambda m: _ancestor_events(m, N, coupling, rng), rng, keep,
    )


def simulate_line_count(
    N: int, coupling: CoupledMeasure, n0: int, horizon: float, seed: int,
    replicate: int = 0,
) -> FrequencyPath:
    """Potential-ancestor count of ``n0`` lines among N, drawn event by event:
    the one-replicate case of :func:`line_count_replicates` on stream
    ``(seed, TAG_LINECOUNT_PATH, replicate)``."""
    return alone(seed, TAG_LINECOUNT_PATH, replicate, _ancestor_run, N, coupling, n0, horizon, N + 1)


def line_count_replicates(
    N: int, coupling: CoupledMeasure, n0: int, horizon: float, replicates: int, seed: int,
    max_paths: int,
) -> tuple[np.ndarray, list[FrequencyPath]]:
    """Time-``horizon`` potential-ancestor counts of ``replicates`` replicates,
    drawn a chunk at a time from stream ``(seed, TAG_LINECOUNT, c)``, and the
    paths of the first ``max_paths``: path r ends at count r."""
    return batched(
        replicates, seed, (TAG_LINECOUNT,), _ancestor_run,
        N, coupling, n0, horizon, N + 1, paths=max_paths,
    )


def _consistency_draws(
    n: int, rng: np.random.Generator, N: int, coupling: CoupledMeasure, horizon: float
) -> tuple[list[Round], np.ndarray]:
    """The rounds of n replicates, then their ``(n, N)`` initial types."""
    return _draw_rounds(rng, n, N, coupling, horizon), rng.random((n, N)) < 0.5


def _consistency_violations(rounds: list[Round], minus: np.ndarray) -> np.ndarray:
    """Violations per replicate: individuals whose final type disagrees with
    their potential ancestors' initial types."""
    n, N = minus.shape
    final = _forward_rounds(rounds, minus.copy())
    # row i of replicate j holds the potential ancestors of its individual i
    ancestors = _backward_rounds(reversed(rounds), np.tile(np.eye(N, dtype=bool), (n, 1, 1)))
    plus_reachable = (ancestors & ~minus[:, None, :]).any(axis=2)
    return (plus_reachable == final).sum(axis=1)


def ancestry_consistency_check(
    N: int,
    coupling: CoupledMeasure,
    horizon: float,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> tuple[int, int]:
    """Forward/backward agreement on random realizations.

    For each replicate, random initial types are propagated forward; every
    individual's final type must be advantaged exactly when its
    potential-ancestor set at time 0 contains an advantaged individual.
    Returns (individuals checked, violations); any violation falsifies the
    graph construction.  The replicates are drawn and checked a chunk at a
    time (stream ``(seed, TAG_CONSISTENCY, c)`` for chunk c), with one
    member matrix per replicate for every individual's ancestors.
    """
    check_range("N", N, 2)
    check_horizon(horizon)
    violations = batched(
        replicates, seed, (TAG_CONSISTENCY,),
        lambda n, rng: _consistency_violations(*_consistency_draws(n, rng, N, coupling, horizon)),
        chunk=_chunk_size(N, N + 1, coupling.total_mass * horizon), threads=threads,
    )
    return replicates * N, int(violations.sum())


# -- binary event log ---------------------------------------------------------

def _record_dtype(N: int) -> np.dtype:
    return np.dtype(
        [("t", "<f8"), ("reproducer", "<u4"), ("y", "<f8"), ("z", "<f8"),
         ("outcome", "u1", (N,))]
    )


def _packed(records: np.ndarray, columns: tuple[np.ndarray, ...]) -> np.ndarray:
    """The first ``len(columns[0])`` log records, holding the columns in field
    order (times, reproducers, ys, zs and, unless already there, outcomes), a
    contiguous array that a file writes without a copy.  The ys and zs are
    the strength pairs themselves, not a block's atom indices, which
    :func:`stream_asg_to_log` gathers into pairs first."""
    head = records[: len(columns[0])]
    for name, column in zip(head.dtype.names, columns):
        head[name] = column
    return head


def _write_log(path: str, N: int, horizon: float, records: Iterable[np.ndarray]) -> None:
    """Write the 16-byte header (magic, N, horizon), then the record arrays."""
    write_file(path, itertools.chain([LOG_MAGIC + struct.pack("<Id", N, horizon)], records))


def write_event_log(asg: AsgRealization, path: str) -> None:
    """Write the 16-byte header (magic, N, horizon) and packed event records."""
    columns = (asg.times, asg.reproducers, asg.ys, asg.zs, asg.outcomes)
    records = np.empty(len(asg), dtype=_record_dtype(asg.N))
    _write_log(path, asg.N, asg.horizon, [_packed(records, columns)])


def read_event_log(path: str) -> AsgRealization:
    """Read a log written by :func:`write_event_log` or :func:`stream_asg_to_log`.

    Raises:
        ValueError: if the file is not an ASG event log, is truncated, or
            breaks an invariant of a realization (see :func:`_check_records`),
            naming the file and the field.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != LOG_MAGIC:
        raise ValueError(f"{path}: not an ASG event log (magic {raw[:4]!r})")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated header, {len(raw)} of 16 bytes found")
    N, horizon = struct.unpack_from("<Id", raw, 4)
    if N < 2:
        raise ValueError(f"{path}: header field N is {N}; need at least two individuals")
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"{path}: header field horizon is {horizon}; need it finite and positive")
    dtype = _record_dtype(N)
    if (len(raw) - 16) % dtype.itemsize:
        raise ValueError(
            f"{path}: truncated record, {len(raw) - 16} bytes after the header are "
            f"not a multiple of the {dtype.itemsize}-byte record size"
        )
    records = np.frombuffer(raw, dtype=dtype, offset=16)
    _check_records(path, N, horizon, records)
    return AsgRealization(
        N=N, horizon=horizon,
        times=records["t"].copy(),
        reproducers=records["reproducer"].astype(np.int64),
        ys=records["y"].copy(),
        zs=records["z"].copy(),
        # a read-only view of the read buffer: a copy would double the read's
        # peak memory, and each row of N labels is contiguous either way
        outcomes=records["outcome"],
    )


def _check_records(path: str, N: int, horizon: float, records: np.ndarray) -> None:
    """Refuse log records that break an invariant of a realization: times
    nondecreasing within [0, horizon], reproducers below N, labels at most
    ``OUTCOME_SELECTIVE``, and finite ``y, z >= 0`` with ``y + z <= 1``
    (up to ``ORDER_TOL``).  A NaN or infinite value fails the comparisons."""
    t, y, z = records["t"], records["y"], records["z"]
    reproducer = int(records["reproducer"].max(initial=0))
    label = int(records["outcome"].max(initial=0))
    checks = (
        ("t", (np.diff(t, prepend=0.0, append=horizon) >= 0.0).all(),
         f"times must be nondecreasing within [0, {horizon}]"),
        ("reproducer", reproducer < N, f"reproducer {reproducer} is not below N = {N}"),
        ("outcome", label <= OUTCOME_SELECTIVE,
         f"label {label} is above OUTCOME_SELECTIVE = {OUTCOME_SELECTIVE}"),
        ("y, z", ((y >= 0.0) & (z >= 0.0) & (y + z <= 1.0 + ORDER_TOL)).all(),
         "need finite y, z >= 0 with y + z <= 1"),
    )
    for field, ok, message in checks:
        if not ok:
            raise ValueError(f"{path}: field {field}: {message}")


def stream_asg_to_log(
    N: int,
    coupling: CoupledMeasure,
    horizon: float,
    seed: int,
    path: str,
) -> int:
    """Generate a realization directly to disk; returns the event count.

    Holds all event times in memory (8 bytes per event) and one block of
    log records, reused by every block: a block's labels are drawn straight
    into its records, which are written before the next block is drawn, so
    at most ``BLOCK_LABELS`` labels are held at once, for realizations beyond
    the in-memory cap.  Each block's records get their event times, sliced
    from the times at the block's start, and the strength pairs of its atom
    indices.  The log holds the bytes that ``write_event_log`` writes for
    :func:`generate_asg` with the same seed.
    """
    rng, E = _realization(N, coupling, horizon, seed)
    times, size = _event_times(rng, E, horizon), _block_events(N)
    records = np.empty(min(size, E), dtype=_record_dtype(N))
    blocks = _mark_blocks(rng, E, N, coupling, records["outcome"])
    _write_log(path, N, horizon, (
        _packed(records, (times[s : s + size], r, coupling.ys[a], coupling.zs[a]))
        for s, (r, a, _) in zip(itertools.count(0, size), blocks)
    ))
    return E
