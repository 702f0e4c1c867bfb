"""Random disaster environment: one Poisson stream of disaster times per site.

A field is a pure descriptor (seed, rate, dimension).  Site streams are
materialized lazily from exponential gaps whose uniforms come from a
counter-based generator keyed by hash(seed, site), so an unbounded lattice
needs no storage and every query is a pure function of (seed, site, window).
Streams live on (0, inf): a disaster exactly at time 0 never occurs.

Windows are half-open [t0, t1); a disaster exactly at t1 belongs to the next
window, which makes window splitting exact.

Instances cache materialized stream prefixes, so a field must be owned by a
single worker; build one field per replica (they are cheap).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .rng import counter_uniform, fold, mix64, mix64_int, zigzag, zigzag_int

_INV53_ENV = 2.0 ** -53


class InvalidWindowError(ValueError):
    pass


class _SiteStream:
    """Materialized prefix of one site's disaster times."""

    __slots__ = ("times", "next_ctr", "last")

    def __init__(self):
        self.times = np.empty(0, dtype=np.float64)
        self.next_ctr = 0
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
        g = np.uint64(0x9E3779B97F4A7C15)
        for j in range(self.dimension):
            v = zigzag(coords[:, j])
            h = mix64(h ^ (v + g))
        return h

    # -- stream materialization ---------------------------------------------

    def _stream(self, key: int) -> _SiteStream:
        s = self._streams.get(key)
        if s is None:
            s = _SiteStream()
            self._streams[key] = s
        return s

    def _extend(self, key: int, s: _SiteStream, t_max: float) -> None:
        """Grow the stream until its running gap-sum exceeds t_max."""
        if self.rate == 0.0:
            s.last = float("inf")
            return
        while s.last <= t_max:
            n = _block_size(self.rate, t_max - s.last)
            ctrs = np.arange(s.next_ctr, s.next_ctr + n, dtype=np.uint64)
            gaps = -np.log(counter_uniform(key, ctrs)) / self.rate
            block = s.last + np.cumsum(gaps)
            s.times = np.concatenate([s.times, block])
            s.last = float(block[-1])
            s.next_ctr += n

    def stream_times(self, site: Sequence[int], t_max: float) -> np.ndarray:
        """All disaster times in (0, t_max] at `site` (sorted, read-only view)."""
        key = self.site_key(site)
        s = self._stream(key)
        self._extend(key, s, t_max)
        hi = np.searchsorted(s.times, t_max, side="right")
        return s.times[:hi]

    def bulk_streams(self, keys: np.ndarray, t_max: float) -> list[np.ndarray]:
        """Materialize many site streams at once; returns full prefixes.

        Never-seen streams are generated through one shared uniform matrix;
        values are identical to the scalar path because every uniform is
        indexed by (key, counter) alone, not by block layout.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out: list[np.ndarray | None] = [None] * len(keys)
        fresh = []
        for i, k in enumerate(keys):
            ki = int(k)
            s = self._streams.get(ki)
            if s is not None and s.last > t_max:
                out[i] = s.times
            else:
                fresh.append(i)
        if fresh and self.rate == 0.0:
            for i in fresh:
                s = self._stream(int(keys[i]))
                s.last = float("inf")
                out[i] = s.times
            return out  # type: ignore[return-value]
        if fresh:
            n_block = _block_size(self.rate, t_max)
            chunk = max(1, 4_000_000 // n_block)
            g = np.uint64(0x9E3779B97F4A7C15)
            ctr_row = np.arange(n_block, dtype=np.uint64) * g
            for lo in range(0, len(fresh), chunk):
                part = fresh[lo : lo + chunk]
                started = [i for i in part if int(keys[i]) in self._streams]
                new = [i for i in part if int(keys[i]) not in self._streams]
                for i in started:  # rare: partially materialized earlier
                    ki = int(keys[i])
                    s = self._stream(ki)
                    self._extend(ki, s, t_max)
                    out[i] = s.times
                if not new:
                    continue
                kk = keys[np.array(new, dtype=np.intp)]
                bits = mix64(kk[:, None] + ctr_row[None, :])
                u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53_ENV
                times = np.cumsum(-np.log(u) / self.rate, axis=1)
                for row, i in enumerate(new):
                    ki = int(keys[i])
                    s = self._stream(ki)
                    s.times = times[row].copy()
                    s.last = float(s.times[-1])
                    s.next_ctr = n_block
                    if s.last <= t_max:  # tail beyond the block: extend scalar-style
                        self._extend(ki, s, t_max)
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
        key = self.site_key(site)
        s = self._stream(key)
        self._extend(key, s, t1)
        lo = np.searchsorted(s.times, t0, side="left")
        hi = np.searchsorted(s.times, t1, side="left")
        return s.times[lo:hi].copy()

    def first_disaster_after(self, site: Sequence[int], t: float, horizon: float) -> float | None:
        """Smallest disaster time in (t, horizon] at `site`, or None."""
        if t > horizon:
            raise InvalidWindowError(f"window start {t} exceeds horizon {horizon}")
        key = self.site_key(site)
        s = self._stream(key)
        self._extend(key, s, horizon)
        i = np.searchsorted(s.times, t, side="right")
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
