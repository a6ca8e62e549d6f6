"""Temperature-based language balancing and three-pool batch scheduling.

Languages are sampled with probability proportional to ``D_l^(1/T)`` where
``D_l`` is the language's sentence count; raising the temperature flattens
the distribution toward uniform, lifting low-resource languages. Batches mix
the bitext, back-translation, and dual-pseudo pools according to normalized
mixture weights. The scheduler keeps a 4-byte line-start offset per pair
(8 bytes for a shard of 4 GiB or more) and reads a batch's drawn lines in
one loop, ``_read_batch``, by ``os.pread`` at those offsets.
"""

from __future__ import annotations

import io
import math
import os
import random
import weakref
from array import array
from bisect import bisect
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import accumulate, repeat
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Mapping

from . import corpus
from .corpus import (CorpusManifest, Direction, LanguageStats, OriginPool,
                     SentencePair, check_tabs, decode_lines, line_text, write_table)
from .errors import MTForgeError

_NOT_TAB_OR_LF = bytes(b for b in range(256) if b not in b"\t\n")
# A shard smaller than this has every line offset, and its size, in
# ``array('I')`` range; a larger one takes ``array('Q')``.
_I_OFFSET_LIMIT = 1 << 32


def check_temperature(temperature: float) -> float:
    """``temperature``, or ValueError unless it is in (0, inf) (NaN is not)."""
    if not 0 < temperature < math.inf:
        raise ValueError("temperature must be positive and finite")
    return temperature


def check_batch_size(batch_size: int) -> int:
    """``batch_size``, or ValueError unless it is at least 1."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return batch_size


def check_batches(batches: int) -> int:
    """``batches``, or ValueError if it is negative."""
    if batches < 0:
        raise ValueError(f"batches must be >= 0, got {batches}")
    return batches


@dataclass(frozen=True)
class SamplingDistribution:
    """Language probabilities, as ``language_distribution`` rescales them.

    Every ``q`` must be finite and non-negative with a positive, finite
    sum; anything else raises ValueError. ``q`` is kept as a read-only
    copy. ``sample`` makes the one RNG call of ``random.choices``.
    """

    q: Mapping[str, float]

    def __post_init__(self):
        # A read-only copy, so later changes to the caller's mapping cannot
        # bypass these checks or split ``q`` from ``sample``'s weights.
        q = MappingProxyType(dict(self.q))
        object.__setattr__(self, "q", q)
        if not all(math.isfinite(v) and v >= 0 for v in q.values()):
            raise ValueError("language probabilities must be finite and non-negative")
        if not 0 < sum(q.values()) < math.inf:
            raise ValueError("language probabilities must have a positive, finite sum")
        langs = sorted(q)
        object.__setattr__(self, "_langs", langs)
        object.__setattr__(self, "_cumulative", _cumulative([q[l] for l in langs]))

    def sample(self, rng: random.Random) -> str:
        cum, total, hi = self._cumulative
        return self._langs[bisect(cum, rng.random() * total, 0, hi)]


@dataclass(frozen=True)
class MixtureWeights:
    """Pool weights (bitext, back-translation, dual-pseudo).

    Weights must be finite and non-negative with a positive, finite sum and
    are normalized to sum to one, so decimal shorthands like (0.33, 0.33,
    0.33) mean exact thirds.
    """

    bitext: float
    back_translation: float
    dual_pseudo: float

    def __post_init__(self):
        vals = (self.bitext, self.back_translation, self.dual_pseudo)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("mixture weights must be finite")
        if any(v < 0 for v in vals):
            raise ValueError("mixture weights must be non-negative")
        total = sum(vals)
        if total <= 0:
            raise ValueError("mixture weights must not all be zero")
        if not math.isfinite(total):
            raise ValueError("mixture weights must have a finite sum")
        if abs(total - 1.0) > 1e-9:
            object.__setattr__(self, "bitext", self.bitext / total)
            object.__setattr__(self, "back_translation", self.back_translation / total)
            object.__setattr__(self, "dual_pseudo", self.dual_pseudo / total)

    def for_pool(self, pool: OriginPool) -> float:
        return {
            OriginPool.BITEXT: self.bitext,
            OriginPool.BACK_TRANSLATION: self.back_translation,
            OriginPool.DUAL_PSEUDO: self.dual_pseudo,
        }[pool]

    @classmethod
    def parse(cls, text: str) -> "MixtureWeights":
        """Parse ``0.6,0.2,0.2`` notation (bitext, BT, dual-pseudo order)."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated weights, got {text!r}")
        return cls(*(float(p) for p in parts))


@dataclass
class Batch:
    pairs: list[SentencePair]
    composition: dict[tuple[str, OriginPool], int]


def language_distribution(stats: LanguageStats, temperature: float) -> SamplingDistribution:
    """Rescale language frequencies p_l = D_l / sum_i D_i by ``1/temperature``:
    q_l is p_l^(1/T) renormalized. Going through p_l keeps the result exactly
    invariant under a common scaling of all counts. Languages with zero count
    get zero probability (they are dropped).
    """
    check_temperature(temperature)
    positive = {l: c for l, c in stats.per_language.items() if c > 0}
    if not positive:
        raise ValueError("no language has a positive sentence count")
    total = sum(positive.values())
    exponent = 1.0 / temperature
    scaled = {l: (c / total) ** exponent for l, c in sorted(positive.items())}
    z = sum(scaled.values())
    if z <= 0:
        raise ValueError(f"temperature {temperature:g} gives every language zero weight")
    return SamplingDistribution({l: w / z for l, w in scaled.items()})


def _index_lines(raw: BinaryIO, shard_id: str) -> array:
    """Byte offsets of the line starts of a shard opened unbuffered in
    binary mode, followed by its size, built in one pass. They are kept in
    an ``array('I')`` (4 bytes each) when the shard's size is under
    ``_I_OFFSET_LIMIT``, else in an ``array('Q')``.

    Every line must hold exactly one tab and follow ``corpus.decode_lines``,
    as ``read_pairs`` requires; the scheduler reads bytes itself because it
    needs their offsets for ``os.pread``. The lines are read a
    ``_BYTES_PER_READ`` chunk at a time through a buffer of that size,
    which is detached afterwards, so ``raw`` keeps no read buffer. Each
    chunk is checked by two C-level passes: ``line_text`` for UTF-8 and
    stray ``\\r``, and its separators, every byte but tab and ``\\n``
    deleted, against one tab and one line end per line. Only a chunk that
    fails them is walked line by line, to find its first bad line.
    """
    size = os.fstat(raw.fileno()).st_size
    offsets = array("I" if size < _I_OFFSET_LIMIT else "Q", [0])
    line_no = 0   # lines indexed so far
    fh = io.BufferedReader(raw, corpus._BYTES_PER_READ)
    try:
        while lines := fh.readlines(corpus._BYTES_PER_READ):
            data = b"".join(lines)   # bound until the next read, which is faster
            seps = data.translate(None, _NOT_TAB_OR_LF)
            if data[-1:] != b"\n":
                seps += b"\n"   # the shard's unended last line
            if line_text(data) is None or seps != b"\t\n" * len(lines):
                for n, line in enumerate(lines, line_no):
                    check_tabs(decode_lines(line, shard_id, n), 1, shard_id, n)
            offsets.extend(accumulate(map(len, lines), initial=offsets.pop()))
            line_no += len(lines)
    finally:
        fh.detach()
    return offsets


class _OffsetPairs:
    """The pairs of one (pool, direction), concatenated over its shards in
    manifest order; ``_read_batch`` reads them from disk by offset.
    ``indices`` is the range of their indexes, so a draw from it names a
    pair without reading it. ``keys`` are the batch composition's keys for
    the source and the target language of each pair."""

    __slots__ = ("direction", "origin", "keys", "indices", "starts", "shards")

    def __init__(self, direction: Direction, origin: OriginPool,
                 shards: list[tuple[int, array, str]]):
        self.direction = direction
        self.origin = origin
        self.keys = ((direction.src, origin), (direction.tgt, origin))
        self.shards = shards   # (descriptor, line offsets, shard id)
        # Index of each shard's first pair, then the total.
        *self.starts, n = accumulate(
            (len(offsets) - 1 for _, offsets, _ in shards), initial=0)
        self.indices = range(n)


def _read_batch(batch: list[tuple[_OffsetPairs, int]]) -> list[SentencePair]:
    """Read the drawn pairs, each named by its ``(pairs, k)``, in draw
    order: one ``os.pread`` of each line at its offset."""
    pread, new = os.pread, tuple.__new__
    out = []
    for pairs, k in batch:
        starts = pairs.starts
        if len(starts) == 1:
            fd, offsets, shard_id = pairs.shards[0]
        else:
            s = bisect(starts, k) - 1
            fd, offsets, shard_id = pairs.shards[s]
            k -= starts[s]
        start = offsets[k]
        source, target = pread(fd, offsets[k + 1] - start, start) \
            .rstrip(b"\r\n").decode().split("\t")
        out.append(new(SentencePair, (source, target, pairs.direction, pairs.origin,
                                      shard_id, k + 1)))
    return out


def _cumulative(weights: list[float]) -> tuple[list[float], float, int]:
    """What ``random.choices`` computes from ``weights`` on every call:
    cumulative weights, their total and the highest index."""
    cum = list(accumulate(weights))
    return cum, cum[-1] + 0.0, len(cum) - 1


class BatchScheduler:
    """Seeded infinite sampler over a three-pool corpus.

    Each draw picks (1) a pool from the mixture weights, (2) a direction
    within the pool with probability proportional to q_src * q_tgt
    (renormalized over the directions present in that pool), and (3) a pair
    uniformly from that direction. Sampling is with replacement; the whole
    stream is reproducible from the seed, and draws make exactly the RNG
    calls of ``random.choices`` and ``randrange``.

    A batch's ``composition`` counts its pairs per (language, pool), once
    for the source and once for the target language of each pair. It is
    tallied per (pool, direction) as pairs are drawn and expanded once per
    batch. Its keys are in the order they first occur in the batch, taking
    each pair's source language before its target language.

    Each batch is drawn first and read after. The draw names every pair by
    its (pool, direction) and index and reads no line; it alone makes the
    RNG calls and tallies the composition, so the stream does not depend on
    what is read. Only ``next_batch`` then reads the drawn lines, in draw
    order and in one loop over the batch (``_read_batch``);
    ``write_composition`` reads none. A line that cannot be read (a shard
    changed after construction) therefore raises only once the whole batch
    has been drawn.

    Construction reads every shard once in binary mode and keeps only an
    array of line-start byte offsets per shard: ``array('I')``, 4 bytes a
    pair, for a shard under 4 GiB, and ``array('Q')``, 8 bytes a pair, for
    a larger one. ``next_batch`` reads each drawn line with one
    ``os.pread``. Lines are validated as ``read_pairs`` reads them (one
    tab, strict UTF-8, ``\\n`` or ``\\r\\n`` line ends, no other ``\\r``),
    by two C-level checks per chunk of ``corpus._BYTES_PER_READ`` bytes; a
    line-by-line walk runs only on a chunk that fails them, to locate its
    first bad line (``_index_lines``).
    The descriptors are opened unbuffered and the chunk buffer is detached
    once a shard is indexed, so no read buffer is held per descriptor.

    The scheduler keeps one read-only descriptor open per non-empty shard
    of a pool with positive weight, so shards must not change while it is
    open. ``close()`` (or leaving a ``with`` block) releases them, as does
    garbage collection. The process's descriptor limit (``ulimit -n``) thus
    caps the number of such shards: past it, construction fails with
    ``OSError`` (``EMFILE``, CLI exit code 2) and closes the descriptors it
    opened.
    """

    def __init__(
        self,
        manifest: CorpusManifest,
        distribution: SamplingDistribution,
        weights: MixtureWeights,
        batch_size: int,
        seed: int,
    ):
        self.batch_size = check_batch_size(batch_size)
        self._rng = random.Random(seed)

        with ExitStack() as stack:
            shards: dict[OriginPool, dict[Direction, list]] = {}
            for entry in manifest.shards:
                fh = stack.enter_context(entry.path.open("rb", buffering=0))
                offsets = _index_lines(fh, entry.shard_id)
                if len(offsets) == 1 or weights.for_pool(entry.origin) <= 0:
                    fh.close()   # never drawn from
                    continue
                shards.setdefault(entry.origin, {}).setdefault(entry.direction, []) \
                    .append((fh.fileno(), offsets, entry.shard_id))

            self._pools = []   # (cumulative direction weights, total, hi, pairs per direction)
            pool_weights = []
            for pool in OriginPool:
                lam = weights.for_pool(pool)
                if lam <= 0:
                    continue
                by_dir = shards.get(pool)
                if not by_dir:
                    raise MTForgeError(
                        f"pool {pool.value} has weight {lam:g} but no pairs in the manifest")
                directions = sorted(by_dir)
                cum, total, hi = _cumulative([
                    distribution.q.get(d.src, 0.0) * distribution.q.get(d.tgt, 0.0)
                    for d in directions
                ])
                if total <= 0:
                    raise MTForgeError(
                        f"pool {pool.value}: no direction has positive sampling weight")
                if not math.isfinite(total):
                    raise ValueError(f"pool {pool.value}: direction weights must be finite")
                self._pools.append(
                    (cum, total, hi, [_OffsetPairs(d, pool, by_dir[d]) for d in directions]))
                pool_weights.append(lam)
            self._pool_cum, self._pool_total, self._pool_hi = _cumulative(pool_weights)
            self._finalizer = weakref.finalize(self, stack.pop_all().close)

    def close(self) -> None:
        """Release the shard descriptors; later draws raise ValueError."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _draw(self, pairs: range) -> int:
        return pairs[self._rng.randrange(len(pairs))]

    def _draw_batch(self) -> tuple[list[tuple[_OffsetPairs, int]],
                                   dict[tuple[str, OriginPool], int]]:
        """Draw one batch without reading a line: its ``(pairs, k)`` in
        draw order, and its composition."""
        if self.closed:
            raise ValueError("the scheduler is closed")
        rand, draw, pools = self._rng.random, self._draw, self._pools
        pool_cum, pool_total, pool_hi = self._pool_cum, self._pool_total, self._pool_hi
        batch = []
        drawn: dict[_OffsetPairs, int] = {}   # draws per (pool, direction)
        for _ in repeat(None, self.batch_size):
            cum, total, hi, by_dir = pools[bisect(pool_cum, rand() * pool_total, 0, pool_hi)]
            pairs = by_dir[bisect(cum, rand() * total, 0, hi)]
            batch.append((pairs, draw(pairs.indices)))
            drawn[pairs] = drawn.get(pairs, 0) + 1
        composition: dict[tuple[str, OriginPool], int] = {}
        for pairs, n in drawn.items():
            for key in pairs.keys:
                composition[key] = composition.get(key, 0) + n
        return batch, composition

    def next_batch(self) -> Batch:
        batch, composition = self._draw_batch()
        return Batch(_read_batch(batch), composition)


def write_composition(scheduler: BatchScheduler, batches: int, path: str | Path) -> None:
    """Draw ``batches`` batches and write the composition report: per batch,
    one ``batch language origin count`` row per (language, pool), sorted.
    The batches are drawn as ``next_batch`` draws them, with the same RNG
    calls, but no line is read, so the scheduler's stream goes on as if
    ``next_batch`` had been called ``batches`` times. A negative
    ``batches`` or a closed scheduler, even with ``batches`` 0, raises
    ValueError before anything is drawn, and writes no report."""
    check_batches(batches)
    if scheduler.closed:
        raise ValueError("the scheduler is closed")
    rows = []
    for b in range(batches):
        composition = scheduler._draw_batch()[1]
        rows += sorted((b, lang, origin.value, n) for (lang, origin), n in composition.items())
    write_table(path, rows, header="batch language origin count".split())
