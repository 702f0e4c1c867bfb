"""Random disaster environment: one Poisson stream of disaster times per site.

A field is a pure descriptor (seed, rate, dimension).  Site streams are
materialized lazily from exponential gaps whose uniforms come from a
counter-based generator keyed by hash(seed, site), so an unbounded lattice
needs no storage and every query is a pure function of (seed, site, window).
Streams live on (0, inf): a disaster exactly at time 0 never occurs.

A stream's k-th time is the running sum of its first k+1 gaps, added one at
a time, so it is a function of (seed, site, counter) alone: neither the order
of queries nor the route that materialized it (the scalar loop or the
blocks of _draw) changes a bit.

Windows are half-open [t0, t1); a disaster exactly at t1 belongs to the next
window, which makes window splitting exact.  A NaN end, or an infinite end
of a nonempty window, raises InvalidWindowError before any draw.

Instances cache materialized stream prefixes by site key, so a field must
be owned by a single worker; build one field per replica (they are cheap).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

import numpy as np

from .rng import _INV53, _M64, _MIX_A, _MIX_B, GOLDEN, counter_exponential, fold, mix64, mix64_int, zigzag


class InvalidWindowError(ValueError):
    pass


class _SiteStream:
    """Materialized prefix of one site's disaster times."""

    __slots__ = ("key", "times", "next_ctr", "last")

    def __init__(self, key: int):
        self.key = key
        self.times = np.empty(0, dtype=np.float64)
        self.next_ctr = 0  # uniforms drawn so far
        self.last = 0.0  # running sum of gaps generated so far


def _block_size(rate: float, span: float) -> int:
    """Uniforms drawn at once for a stream asked for times up to `span`.

    A Poisson count with this mean reaches the block with probability below
    1e-9 at every mean, so a stream rarely needs more; when one does, _draw
    draws its block again, longer, with the same bits.
    """
    mean = rate * max(span, 0.0)
    return int(math.ceil(mean + 6.0 * math.sqrt(mean) + 8.0))


def _draw(keys: np.ndarray, first: np.ndarray, start: np.ndarray, rate: float, t_max: float,
          cells: int):
    """Continue the streams of `keys` past t_max, about `cells` values a block: yields the blocks.

    Row i continues stream keys[i] from its uint64 counter first[i] (so
    rng.counter_uniform reads the counter matrix without a copy) and running
    sum start[i]: column c holds start[i] plus its gaps first[i]..first[i] + c,
    each -log(u)/rate from rng.counter_exponential, added one at a time, left
    to right, as the scalar loop adds them, so every bit agrees with it.
    (add.accumulate, not cumsum: numpy 2.4's cumsum keeps a small object per
    call.)  The rows of a block share its length; a block with a row ending
    at or before t_max is drawn again, twice as long, with the same bits.
    """
    if not math.isfinite(t_max):
        raise InvalidWindowError(f"window end {t_max} is not finite")
    if not len(keys):
        return
    n_block = _block_size(rate, t_max - start.min())
    rows = max(1, cells // n_block)
    for lo in range(0, len(keys), rows):
        key, ctr = keys[lo:lo + rows, None], first[lo:lo + rows, None]
        n, end = n_block, -math.inf
        while end <= t_max:
            sums = counter_exponential(key, ctr + np.arange(n, dtype=np.uint64), rate)
            sums[:, 0] += start[lo:lo + rows]
            np.add.accumulate(sums, axis=1, out=sums)
            n, end = 2 * n, sums[:, -1].min()
        yield sums


def site_keys_at(base_keys: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Site keys of the rows of an (m, d) coordinate array, row i in the field whose
    DisasterField.base_key is base_keys[i]: one call keys the sites of many fields."""
    h = base_keys
    g = np.uint64(GOLDEN)
    for j in range(coords.shape[1]):
        h = mix64(h ^ (zigzag(coords[:, j]) + g))
    return h


class PackedStreams:
    """Disaster times in (0, t_max] of many site streams, for fields of one rate.

    A stream is a pure function of its site key and the rate, so the streams
    of every field of that rate share one pool.  Stream i's times lie at
    times[off[i]:off[i] + len[i]] of one flat array, and an open-addressing
    hash table maps site keys (uniform 64-bit words, so their low bits index
    it) to stream numbers.  Looking up many keys, and their first disasters
    after given times, is then a few vectorized steps.  A probe pass reads
    only the keys still colliding and moves them one slot on, so a lookup
    costs the keys' chain lengths, not the longest chain times the keys.
    The unknown keys of a lookup are drawn once each through _draw, as
    DisasterField.bulk_streams draws, `block_cells` values a block, and
    filed by one insertion loop.  Every stream is tagged with an owner, and
    drop() forgets the streams of owners that are done.
    """

    def __init__(self, rate: float, t_max: float, block_cells: int):
        self.rate = float(rate)
        self.t_max = float(t_max)
        self.block_cells = block_cells
        self._n = 0  # streams
        self._key = np.empty(0, dtype=np.uint64)
        self._off = np.empty(0, dtype=np.int32)
        self._len = np.empty(0, dtype=np.int32)
        self._owner = np.empty(0, dtype=np.int32)
        self._times = np.array([np.inf])  # a trailing inf keeps bisection reads in bounds
        self._table = np.full(256, -1, dtype=np.int32)  # slot -> stream number; -1 empty

    def first_from(self, keys: np.ndarray, owners: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Per query i: the first disaster time >= a[i] in stream keys[i], or inf."""
        if self.rate == 0.0 or not len(keys):
            return np.full(len(keys), np.inf)
        i = self._find(keys, owners)
        lo = self._off[i]
        n = self._len[i]
        end = lo + n
        times = self._times
        for _ in range(int(n.max(initial=0)).bit_length()):  # lower bound, all rows in step
            half = n >> 1
            mid = lo + half
            go = (times[mid] < a) & (n > 0)
            lo = np.where(go, mid + 1, lo)
            n = np.where(go, n - half - 1, half)
        return np.where(lo < end, times[lo], np.inf)

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """Each key's table slot: the one holding its stream, or the empty one ending its probe."""
        table, mask = self._table, len(self._table) - 1
        slot = (keys & np.uint64(mask)).astype(np.int64)
        on = np.arange(len(keys))  # keys whose probe goes on: each pass reads only these
        while len(on):
            i = table[slot[on]]
            on, i = on[i >= 0], i[i >= 0]  # an empty slot ends the probe
            on = on[self._key[i] != keys[on]]
            slot[on] = (slot[on] + 1) & mask
        return slot

    def _find(self, keys: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Stream numbers of `keys`, materializing the unknown ones."""
        slot = self._probe(keys)
        i = self._table[slot]
        miss = i < 0
        if miss.any():
            new, first, inverse = np.unique(keys[miss], return_index=True, return_inverse=True)
            ids = self._add(new, owners[miss][first])
            i[miss] = ids[inverse]
            slots = slot[miss][first]  # the empty slots the new keys' probes ended on
            size = len(self._table)
            while 2 * self._n > size:  # keep the table at most half full
                size *= 2
            if size > len(self._table):  # a new table files every stream
                self._table = np.full(size, -1, dtype=np.int32)
                ids, slots = np.arange(self._n, dtype=np.int32), None
            self._insert(ids, slots)
        return i

    def _insert(self, ids: np.ndarray, slots: np.ndarray | None = None) -> None:
        """File streams `ids`, whose keys are distinct and not in the table; `slots`, if
        given, are the empty slots where their probes of the current table ended."""
        while len(ids):  # each empty slot goes to its last writer; the others probe on
            s = self._probe(self._key[ids]) if slots is None else slots
            self._table[s] = ids
            ids, slots = ids[self._table[s] != ids], None

    def _add(self, keys: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Materialize the streams of distinct unseen `keys`; their stream numbers."""
        times, lengths = [self._times[:-1]], []
        first = np.zeros(len(keys), dtype=np.uint64)  # a new stream: counter 0, running sum 0
        for sums in _draw(keys, first, np.zeros(len(keys)), self.rate, self.t_max, self.block_cells):
            keep = sums <= self.t_max
            times.append(sums[keep])
            lengths.append(keep.sum(axis=1))
        lengths = np.concatenate(lengths, dtype=np.int32)
        off = len(self._times) - 1 + np.add.accumulate(lengths) - lengths
        self._times = np.concatenate((*times, [np.inf]))
        self._off = np.concatenate((self._off, off), dtype=np.int32)
        self._len = np.concatenate((self._len, lengths))
        self._key = np.concatenate((self._key, keys))
        self._owner = np.concatenate((self._owner, owners), dtype=np.int32)
        n0, self._n = self._n, len(self._key)
        return np.arange(n0, self._n, dtype=np.int32)

    def drop(self, done: np.ndarray) -> None:
        """Forget the streams whose owner is done (done[owner] True), once they are a
        quarter of the pool."""
        keep = ~done[self._owner]
        if 4 * int(keep.sum()) >= 3 * self._n:
            return
        lengths = self._len[keep]
        off = np.add.accumulate(lengths) - lengths
        src = np.repeat(self._off[keep] - off, lengths) + np.arange(int(lengths.sum()))
        self._times = np.append(self._times[src], np.inf)
        self._key, self._off, self._len, self._owner = self._key[keep], off, lengths, self._owner[keep]
        self._n = len(lengths)
        self._table[:] = -1
        self._insert(np.arange(self._n, dtype=np.int32))


class DisasterField:
    """Seeded family of independent rate-`rate` Poisson disaster streams."""

    def __init__(self, seed: int, rate: float = 1.0, dimension: int = 1):
        if not 0.0 <= rate < math.inf:
            raise ValueError("disaster rate must be finite and >= 0")
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.seed = int(seed)
        self.rate = float(rate)
        self.dimension = int(dimension)
        self.base_key = fold(mix64_int(self.seed), self.dimension)
        self._streams: dict[int, _SiteStream] = {}

    # -- site keys ---------------------------------------------------------

    def site_key(self, site: Sequence[int]) -> int:
        """fold(h, zigzag_int(c)) per coordinate, inlined: the tree engine asks once per new site."""
        if len(site) != self.dimension:
            raise ValueError(f"site has {len(site)} coordinates, field has dimension {self.dimension}")
        h = self.base_key
        for c in site:
            c = int(c)
            x = h ^ (((((c << 1) ^ (c >> 63) if c < 0 else c << 1) & _M64) + GOLDEN) & _M64)
            x = ((x ^ (x >> 30)) * _MIX_A) & _M64
            x = ((x ^ (x >> 27)) * _MIX_B) & _M64
            h = x ^ (x >> 31)
        return h

    def site_keys(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized site_key over an (m, dimension) int array."""
        coords = np.asarray(coords)
        if coords.ndim != 2 or coords.shape[1] != self.dimension:
            raise ValueError("coords must have shape (m, dimension)")
        return site_keys_at(np.full(coords.shape[0], self.base_key, dtype=np.uint64), coords)

    # -- stream materialization ---------------------------------------------

    def _stream(self, key: int) -> _SiteStream:
        s = self._streams.get(key)
        if s is None:
            s = self._streams[key] = _SiteStream(key)
            if self.rate == 0.0:
                s.last = math.inf  # no disaster ever: nothing to draw
        return s

    def _extend(self, s: _SiteStream, t_max: float) -> None:
        """Draw gaps until the stream's running sum exceeds t_max.

        One gap per counter, -log(u)/rate with u = counter_uniform(key, ctr)
        inlined (np.log, as ParticleStream.exponential: math.log differs in
        the last bit), added to the running sum one at a time.  This scalar
        loop serves the point queries, one site at a time, where a numpy
        call per query would cost more than the draws.
        """
        last = s.last
        if last > t_max:
            return
        if not math.isfinite(t_max):
            raise InvalidWindowError(f"window end {t_max} is not finite")
        key, ctr, rate = s.key, s.next_ctr, self.rate
        log = np.log
        new = []
        while last <= t_max:
            x = (key + ctr * GOLDEN) & _M64
            ctr += 1
            x = ((x ^ (x >> 30)) * _MIX_A) & _M64
            x = ((x ^ (x >> 27)) * _MIX_B) & _M64
            last += -float(log((((x ^ (x >> 31)) >> 11) + 1) * _INV53)) / rate
            new.append(last)
        s.times = np.concatenate((s.times, new)) if len(s.times) else np.array(new)
        s.next_ctr = ctr
        s.last = last

    def stream_times(self, site: Sequence[int], t_max: float) -> np.ndarray:
        """All disaster times in (0, t_max] at `site` (sorted, read-only view)."""
        s = self._stream(self.site_key(site))
        self._extend(s, t_max)
        return s.times[: s.times.searchsorted(t_max, side="right")]

    def bulk_streams(self, keys: np.ndarray, t_max: float) -> list[np.ndarray]:
        """Materialize many site streams at once; returns full prefixes.

        Each distinct stream not yet past t_max, new or met before, is
        continued through _draw from its own counter and running sum, so its
        times are the scalar loop's bit for bit.  A prefix may run past
        t_max: it holds every time drawn.
        """
        streams = [self._stream(k) for k in np.asarray(keys, dtype=np.uint64).tolist()]
        todo = list(dict.fromkeys(s for s in streams if s.last <= t_max))
        first = np.array([s.next_ctr for s in todo], dtype=np.uint64)
        start = np.array([s.last for s in todo], dtype=np.float64)
        todo_keys = np.array([s.key for s in todo], dtype=np.uint64)
        lo = 0
        for sums in _draw(todo_keys, first, start, self.rate, t_max, 4_000_000):
            for s, row in zip(todo[lo:lo + len(sums)], sums):
                s.times = np.concatenate((s.times, row))
                s.next_ctr += len(row)
                s.last = float(row[-1])
            lo += len(sums)
        return [s.times for s in streams]

    def streams_for_coords(self, coords: np.ndarray, t_max: float) -> list[np.ndarray]:
        """Stream prefixes for the rows of an (m, dimension) coordinate array."""
        return self.bulk_streams(self.site_keys(coords), t_max)

    # -- queries -------------------------------------------------------------

    def disasters_in_window(self, site: Sequence[int], t0: float, t1: float) -> list[float]:
        """Sorted disaster times in [t0, t1) at `site`, as a list of floats.

        bisect_left finds what searchsorted(side="left") finds, at a third of
        its cost on the few times a tree's window holds.
        """
        if not t0 <= t1:
            raise InvalidWindowError(f"window start {t0} is not at most its end {t1}")
        if t0 == t1:
            return []
        s = self._stream(self.site_key(site))
        self._extend(s, t1)
        times = s.times
        return times[bisect_left(times, t0):bisect_left(times, t1)].tolist()

    def first_disaster_after(self, site: Sequence[int], t: float, horizon: float) -> float | None:
        """Smallest disaster time in (t, horizon] at `site`, or None."""
        if not t <= horizon:
            raise InvalidWindowError(f"window start {t} is not at most the horizon {horizon}")
        s = self._stream(self.site_key(site))
        self._extend(s, horizon)
        i = s.times.searchsorted(t, side="right")
        if i < len(s.times) and s.times[i] <= horizon:
            return float(s.times[i])
        return None

