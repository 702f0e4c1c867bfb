"""Random disaster environment: one Poisson stream of disaster times per site.

A field is a pure descriptor (seed, rate, dimension).  Site streams are
materialized lazily from exponential gaps whose uniforms come from a
counter-based generator keyed by hash(seed, site), so an unbounded lattice
needs no storage and every query is a pure function of (seed, site, window).
Streams live on (0, inf): a disaster exactly at time 0 never occurs.

A stream's k-th time is the running sum of its first k+1 gaps, added one at
a time, so it is a function of (seed, site, counter) alone: neither the order
of queries nor the route that materialized it (the scalar loop or the bulk
matrix) changes a bit.

Windows are half-open [t0, t1); a disaster exactly at t1 belongs to the next
window, which makes window splitting exact.

Instances cache materialized stream prefixes, by site key and, for point
queries, by site tuple (a warm lookup skips hashing the site), so a field
must be owned by a single worker; build one field per replica (they are
cheap).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .rng import _INV53, _M64, _MIX_A, _MIX_B, GOLDEN, fold, mix64, mix64_int, zigzag, zigzag_int


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
    1e-9 at every mean, so a stream rarely needs more; when one does, the
    callers draw on and keep every bit.
    """
    mean = rate * max(span, 0.0)
    return int(math.ceil(mean + 6.0 * math.sqrt(mean) + 8.0))


def _gap_sums(keys: np.ndarray, n: int, rate: float) -> np.ndarray:
    """Times 0..n-1 of the streams of `keys` (one row each): running sums of their gaps.

    Counter c of a row's key gives its c-th gap, -log(u)/rate; add.accumulate
    adds them left to right, as the scalar loop does, so every bit agrees
    with it.  (Not cumsum: numpy 2.4's cumsum keeps a small object per call.)
    """
    bits = mix64(keys[:, None] + (np.arange(n, dtype=np.uint64) * np.uint64(GOLDEN))[None, :])
    u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
    return np.add.accumulate(-np.log(u) / rate, axis=1)


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
    Unknown keys are materialized together, `block_cells` uniforms at a
    time, by the matrix path of DisasterField.bulk_streams.  Every stream
    is tagged with an owner, and drop() forgets the streams of owners that
    are done.
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
        miss = np.flatnonzero(self._table[slot] < 0)
        size = len(self._table)
        while 2 * (self._n + len(miss)) > size:  # keep the table at most half full
            size *= 2
        if size > len(self._table):
            self._rehash(size)
            slot = self._probe(keys)
        while len(miss):  # one key claims each empty slot; the others probe on (or find it)
            s = slot[miss]
            code = -2 - np.arange(len(miss), dtype=np.int32)
            self._table[s] = code
            first = self._table[s] == code
            self._table[s[first]] = self._add(keys[miss[first]], owners[miss[first]])
            miss = miss[~first]
            slot[miss] = self._probe(keys[miss])
            miss = miss[self._table[slot[miss]] < 0]
        return self._table[slot]

    def _rehash(self, size: int) -> None:
        self._table = np.full(size, -1, dtype=np.int32)
        ids = np.arange(self._n, dtype=np.int32)
        while len(ids):  # distinct keys: each empty slot goes to its last writer
            s = self._probe(self._key[ids])
            self._table[s] = ids
            ids = ids[self._table[s] != ids]

    def _add(self, keys: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Materialize the streams of distinct unseen `keys`; their stream numbers."""
        n_block = _block_size(self.rate, self.t_max)
        rows = max(1, self.block_cells // n_block)
        times, lengths = [self._times[:-1]], []
        for lo in range(0, len(keys), rows):
            n = n_block
            sums = _gap_sums(keys[lo:lo + rows], n, self.rate)
            while sums[:, -1].min() <= self.t_max:  # a row ends early: redraw longer, same bits
                n *= 2
                sums = _gap_sums(keys[lo:lo + rows], n, self.rate)
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
        self._rehash(len(self._table))


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
        self._sites: dict[tuple, _SiteStream] = {}  # point-query cache by site tuple

    # -- site keys ---------------------------------------------------------

    def site_key(self, site: Sequence[int]) -> int:
        if len(site) != self.dimension:
            raise ValueError(f"site has {len(site)} coordinates, field has dimension {self.dimension}")
        h = self.base_key
        for c in site:
            h = fold(h, zigzag_int(int(c)))
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
        return s

    def _site_stream(self, site: Sequence[int]) -> _SiteStream:
        """The stream at `site`; tuples are cached, so a warm lookup skips site_key."""
        if type(site) is not tuple:
            return self._stream(self.site_key(site))
        s = self._sites.get(site)
        if s is None:
            s = self._sites[site] = self._stream(self.site_key(site))
        return s

    def _extend(self, s: _SiteStream, t_max: float) -> None:
        """Draw gaps until the stream's running sum exceeds t_max.

        One gap per counter, -log(u)/rate with u = counter_uniform(key, ctr)
        inlined (np.log, as ParticleStream.exponential: math.log differs in
        the last bit), added to the running sum one at a time.
        """
        last = s.last
        if last > t_max:
            return
        rate = self.rate
        if rate == 0.0:
            s.last = math.inf
            return
        key, ctr = s.key, s.next_ctr
        log = np.log
        new = []
        while last <= t_max:
            x = (key + ctr * GOLDEN) & _M64
            ctr += 1
            x = ((x ^ (x >> 30)) * _MIX_A) & _M64
            x = ((x ^ (x >> 27)) * _MIX_B) & _M64
            last += -log((((x ^ (x >> 31)) >> 11) + 1) * _INV53) / rate
            new.append(last)
        s.times = np.concatenate((s.times, new)) if len(s.times) else np.array(new)
        s.next_ctr = ctr
        s.last = float(last)

    def stream_times(self, site: Sequence[int], t_max: float) -> np.ndarray:
        """All disaster times in (0, t_max] at `site` (sorted, read-only view)."""
        s = self._site_stream(site)
        self._extend(s, t_max)
        return s.times[: s.times.searchsorted(t_max, side="right")]

    def bulk_streams(self, keys: np.ndarray, t_max: float) -> list[np.ndarray]:
        """Materialize many site streams at once; returns full prefixes.

        Never-seen streams are generated through one shared uniform matrix,
        whose row-wise cumulative sums are the scalar loop's running sums;
        streams met before, rows whose block ends before t_max, and a rate-0
        field go through the scalar loop.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out: list[np.ndarray | None] = [None] * len(keys)
        ks = keys.tolist()
        new = []
        for i, k in enumerate(ks):
            if self.rate > 0.0 and k not in self._streams:
                new.append(i)
            else:  # met before (rare), or rate 0: the scalar loop
                s = self._stream(k)
                self._extend(s, t_max)
                out[i] = s.times
        if new:
            n_block = _block_size(self.rate, t_max)
            chunk = max(1, 4_000_000 // n_block)
            for lo in range(0, len(new), chunk):
                part = new[lo : lo + chunk]
                times = _gap_sums(keys[np.array(part, dtype=np.intp)], n_block, self.rate)
                for row, i in enumerate(part):
                    s = self._stream(ks[i])
                    s.times = times[row].copy()
                    s.last = float(s.times[-1])
                    s.next_ctr = n_block
                    self._extend(s, t_max)  # the tail beyond the block, if any
                    out[i] = s.times
        return out  # type: ignore[return-value]

    def streams_for_coords(self, coords: np.ndarray, t_max: float) -> list[np.ndarray]:
        """Stream prefixes for the rows of an (m, dimension) coordinate array."""
        return self.bulk_streams(self.site_keys(coords), t_max)

    # -- queries -------------------------------------------------------------

    def disasters_in_window(self, site: Sequence[int], t0: float, t1: float) -> np.ndarray:
        """Sorted disaster times in [t0, t1) at `site`."""
        if t0 > t1:
            raise InvalidWindowError(f"window start {t0} exceeds end {t1}")
        if t0 == t1:
            return np.empty(0, dtype=np.float64)
        s = self._site_stream(site)
        self._extend(s, t1)
        times = s.times
        return times[times.searchsorted(t0):times.searchsorted(t1)].copy()

    def first_disaster_after(self, site: Sequence[int], t: float, horizon: float) -> float | None:
        """Smallest disaster time in (t, horizon] at `site`, or None."""
        if t > horizon:
            raise InvalidWindowError(f"window start {t} exceeds horizon {horizon}")
        s = self._site_stream(site)
        self._extend(s, horizon)
        i = s.times.searchsorted(t, side="right")
        if i < len(s.times) and s.times[i] <= horizon:
            return float(s.times[i])
        return None


class SuperposedField:
    """Union of two independent fields; rate adds, windows merge."""

    def __init__(self, a, b):
        if a.dimension != b.dimension:
            raise ValueError("superposed fields must share a dimension")
        self.a = a
        self.b = b
        self.rate = a.rate + b.rate
        self.dimension = a.dimension

    def site_keys(self, coords: np.ndarray) -> np.ndarray:
        # keys of the first component; only used as grouping labels
        return self.a.site_keys(coords)

    def stream_times(self, site, t_max: float) -> np.ndarray:
        merged = np.concatenate([self.a.stream_times(site, t_max), self.b.stream_times(site, t_max)])
        merged.sort()
        return merged

    def streams_for_coords(self, coords: np.ndarray, t_max: float) -> list[np.ndarray]:
        return [self.stream_times(tuple(int(c) for c in row), t_max) for row in np.asarray(coords)]

    def disasters_in_window(self, site, t0: float, t1: float) -> np.ndarray:
        if t0 > t1:
            raise InvalidWindowError(f"window start {t0} exceeds end {t1}")
        merged = np.concatenate(
            [self.a.disasters_in_window(site, t0, t1), self.b.disasters_in_window(site, t0, t1)]
        )
        merged.sort()
        return merged

    def first_disaster_after(self, site, t: float, horizon: float) -> float | None:
        fa = self.a.first_disaster_after(site, t, horizon)
        fb = self.b.first_disaster_after(site, t, horizon)
        if fa is None:
            return fb
        if fb is None:
            return fa
        return min(fa, fb)


def superpose(field_a, field_b) -> SuperposedField:
    """Environment containing the disasters of both inputs.

    The inputs must be independent (distinct seeds); the result's windows are
    the sorted merge of the inputs' windows and its rate is the sum of rates.
    """
    return SuperposedField(field_a, field_b)
