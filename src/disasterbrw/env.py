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
    mean = rate * max(span, 0.0)
    return max(8, int(math.ceil(mean + 10.0 * math.sqrt(mean) + 16.0)))


class DisasterField:
    """Seeded family of independent rate-`rate` Poisson disaster streams."""

    def __init__(self, seed: int, rate: float = 1.0, dimension: int = 1):
        if rate < 0.0:
            raise ValueError("disaster rate must be >= 0")
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.seed = int(seed)
        self.rate = float(rate)
        self.dimension = int(dimension)
        self._base_key = fold(mix64_int(self.seed), self.dimension)
        self._streams: dict[int, _SiteStream] = {}
        self._sites: dict[tuple, _SiteStream] = {}  # point-query cache by site tuple

    # -- site keys ---------------------------------------------------------

    def site_key(self, site: Sequence[int]) -> int:
        if len(site) != self.dimension:
            raise ValueError(f"site has {len(site)} coordinates, field has dimension {self.dimension}")
        h = self._base_key
        for c in site:
            h = fold(h, zigzag_int(int(c)))
        return h

    def site_keys(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized site_key over an (m, dimension) int array."""
        coords = np.asarray(coords)
        if coords.ndim != 2 or coords.shape[1] != self.dimension:
            raise ValueError("coords must have shape (m, dimension)")
        h = np.full(coords.shape[0], self._base_key, dtype=np.uint64)
        g = np.uint64(GOLDEN)
        for j in range(self.dimension):
            v = zigzag(coords[:, j])
            h = mix64(h ^ (v + g))
        return h

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
            ctr_row = np.arange(n_block, dtype=np.uint64) * np.uint64(GOLDEN)
            for lo in range(0, len(new), chunk):
                part = new[lo : lo + chunk]
                kk = keys[np.array(part, dtype=np.intp)]
                bits = mix64(kk[:, None] + ctr_row[None, :])
                u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
                times = np.cumsum(-np.log(u) / self.rate, axis=1)
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
