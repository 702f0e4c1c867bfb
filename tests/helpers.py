"""Shared oracle implementations for the test suite.

These deliberately re-derive quantities through routes independent of the
library code they check (enumeration, series, replay), so agreement is
evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np


# -- scalar path simulator ----------------------------------------------------
# One walker's path as a list of jumps, and its first disaster found site by
# site through DisasterField.disasters_in_window: a route independent of the
# vectorized kernel in disasterbrw.walk.

@dataclass(frozen=True)
class WalkPath:
    """Piecewise-constant trajectory on the lattice.

    jumps holds (time, new_site) with strictly increasing times; position at
    time t is the site installed by the last jump at or before t.
    """

    start_site: tuple[int, ...]
    jumps: tuple[tuple[float, tuple[int, ...]], ...]
    horizon: float

    @property
    def dimension(self) -> int:
        return len(self.start_site)

    def position(self, t: float) -> tuple[int, ...]:
        site = self.start_site
        for tj, sj in self.jumps:
            if tj <= t:
                site = sj
            else:
                break
        return site

    def occupancy_intervals(self):
        """Yield (site, t_enter, t_leave) covering [0, horizon]."""
        site = self.start_site
        t = 0.0
        for tj, sj in self.jumps:
            yield site, t, tj
            site, t = sj, tj
        yield site, t, self.horizon


def simulate_walk(jump_rate: float, dimension: int, horizon: float, rng,
                  start_site: Sequence[int] | None = None) -> WalkPath:
    """Rate-`jump_rate` simple random walk on Z^dimension over [0, horizon]."""
    from disasterbrw.rng import as_generator

    if jump_rate < 0.0 or horizon < 0.0:
        raise ValueError("jump_rate and horizon must be >= 0")
    gen = as_generator(rng)
    start = tuple(start_site) if start_site is not None else (0,) * dimension
    n = int(gen.poisson(jump_rate * horizon)) if jump_rate > 0.0 and horizon > 0.0 else 0
    times = np.sort(gen.random(n)) * horizon
    axes = gen.integers(0, dimension, n)
    signs = gen.integers(0, 2, n) * 2 - 1
    jumps = []
    site = list(start)
    for t, ax, sg in zip(times, axes, signs):
        site[ax] += int(sg)
        jumps.append((float(t), tuple(site)))
    return WalkPath(start_site=start, jumps=tuple(jumps), horizon=float(horizon))


def extinction_time(path: WalkPath, field) -> float | None:
    """First disaster time along the path, or None if none up to the horizon.

    Detection windows are [enter, leave) per occupied site, matching the
    post-jump convention; the horizon endpoint itself is checked too and, if
    hit, reported as exactly the horizon (which still counts as survival of
    the horizon under the strict-before convention).
    """
    if field.dimension != path.dimension:
        raise ValueError("field and path dimensions differ")
    best = None
    for site, a, b in path.occupancy_intervals():
        hi = min(b, path.horizon)
        if a >= hi:
            continue
        w = field.disasters_in_window(site, a, hi)
        if len(w):
            best = float(w[0])
            break
    if best is None:
        last_site = path.position(path.horizon)
        w = field.disasters_in_window(last_site, path.horizon, np.nextafter(path.horizon, np.inf))
        if len(w):
            return path.horizon
    return best


def series_return_probability(rate: float, t: float, terms: int = 200) -> float:
    """P(rate-`rate` 1-d walk is back at 0 at time t) via the jump-count series."""
    total = 0.0
    log_rt = math.log(rate * t) if rate * t > 0 else -math.inf
    for k in range(0, terms, 2):
        if rate * t == 0.0:
            total = 1.0
            break
        log_term = -rate * t + k * log_rt - math.lgamma(k + 1)
        total += math.exp(log_term) * math.comb(k, k // 2) / 2.0**k
    return total


def walk_positions_at(path, times):
    return [path.position(t) for t in times]


def brute_force_extinction(path, field) -> float | None:
    """Scan every disaster at every visited site against the cadlag position."""
    visited = {path.start_site} | {s for _t, s in path.jumps}
    hits = []
    for site in visited:
        for t in field.stream_times(site, path.horizon):
            if path.position(float(t)) == site:
                hits.append(float(t))
    return min(hits) if hits else None


def prob_of(dist, bits) -> float:
    """Probability of one even-parity pattern under an orders.DistOnSigma."""
    code = sum(int(b) << i for i, b in enumerate(bits))
    codes = (dist.patterns.astype(np.int64) << np.arange(dist.n_bits)).sum(axis=1)
    hit = np.flatnonzero(codes == code)
    if not len(hit):
        raise KeyError("pattern has odd parity or wrong length")
    return float(dist.probs[hit[0]])


def exact_parity_enumeration(weights, k: int) -> dict:
    """Exact parity-pattern law by enumerating all bin assignments (rationals)."""
    wf = [Fraction(w) for w in weights]
    out: dict = {}
    for assign in product(range(len(weights)), repeat=k):
        pr = Fraction(1)
        for a in assign:
            pr *= wf[a]
        bits = tuple(sum(1 for a in assign if a == j) % 2 for j in range(len(weights)))
        out[bits] = out.get(bits, Fraction(0)) + pr
    return out


def survival_batch_oracle(field, jump_rate, t, n_walkers, gen, namespaces=None):
    """Every walker checked over every holding interval up to t, in one pass.

    The single-pass form of walk._survival_batch: the same draws in the same
    order (Poisson counts, then per chunk the jump times, the int8 signs and,
    for d > 1, the axes), but every segment of every walker is looked up, hit
    or not.  The lookup is not the kernel's: it sorts the non-empty segments
    by site and bisects each visited site's stream on its own, so it
    materializes exactly the visited sites.  Returns (survived, at_origin).
    """
    from disasterbrw.walk import _chunked

    d = field.dimension - (1 if namespaces is not None else 0)
    survived = np.ones(n_walkers, dtype=bool)
    at_origin = np.zeros(n_walkers, dtype=bool)
    counts = gen.poisson(jump_rate * t, n_walkers) if jump_rate > 0.0 else np.zeros(n_walkers, dtype=np.int64)
    for lo, hi in _chunked(n_walkers, int(counts.max(initial=0)) + 1):
        k = counts[lo:hi]
        m = hi - lo
        kmax = int(k.max(initial=0))
        times = gen.random((m, kmax)) * t if kmax else np.empty((m, 0))
        pad = np.arange(kmax)[None, :] >= k[:, None]
        times[pad] = np.inf
        times.sort(axis=1)
        signs = (gen.integers(0, 2, (m, kmax), dtype=np.int8) * 2 - 1) if kmax else np.empty((m, 0), np.int8)
        if d > 1:
            axes = gen.integers(0, d, (m, kmax), dtype=np.int8)
        steps = np.where(pad, 0, signs)
        pos = np.zeros((m, kmax + 1, d), dtype=np.int32)
        if kmax:
            for c in range(d):
                pos[:, 1:, c] = np.cumsum(steps if d == 1 else np.where(axes == c, steps, 0), axis=1)
        at_origin[lo:hi] = ~pos[np.arange(m), k, :].any(axis=1)
        starts = np.minimum(np.concatenate([np.zeros((m, 1)), times], axis=1), t)
        ends = np.minimum(np.concatenate([times, np.full((m, 1), np.inf)], axis=1), t)
        live = starts < ends
        if not live.any():
            continue
        w_idx = np.broadcast_to(np.arange(lo, hi)[:, None], live.shape)[live]
        sites = pos[live]
        if namespaces is not None:
            sites = np.concatenate([namespaces[w_idx][:, None].astype(np.int32), sites], axis=1)
        keys = sites[:, 0] if sites.shape[1] == 1 else field.site_keys(sites)
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        a_s, b_s, w_s = starts[live][order], ends[live][order], w_idx[order]
        cut = np.flatnonzero(np.r_[True, keys_s[1:] != keys_s[:-1]])
        streams = field.streams_for_coords(sites[order[cut]], t)
        bounds = np.r_[cut, len(keys_s)]
        for j, ss in enumerate(streams):
            sl = slice(bounds[j], bounds[j + 1])
            hit = np.searchsorted(ss, b_s[sl]) > np.searchsorted(ss, a_s[sl])
            survived[w_s[sl][hit]] = False
    return survived, at_origin


def simulate_oracle(params, initial, field, start_time, horizon, seed, *, trunc=None,
                    caps=None, record_events=True):
    """brw.simulate with a disaster lookup on every occupation and every arrival.

    The heap loop as first written: each occupation asks the field for the
    site's first disaster after now (`first_disaster_after`) unless one is
    pending, and each jump asks again whether a disaster sits exactly at the
    arrival instant.  Same draws, same pushes in the same order, so results
    must match brw.simulate field by field.  Expects a valid configuration.
    """
    import heapq

    from disasterbrw.brw import Caps, Event, SimResult
    from disasterbrw.rng import ParticleStream, fold, mix64_int

    caps = caps or Caps()
    q_cdf = np.asarray(params.offspring_cdf)
    events, records, streams, position, occupancy, pending, heap = [], [], {}, {}, {}, {}, []
    pop_t, pop_n = [start_time], [0]
    seq = 0

    def push(time, rank, payload):
        nonlocal seq
        heapq.heappush(heap, (time, rank, seq, payload))
        seq += 1

    def log(time, kind, pid, site):
        if record_events:
            events.append(Event(time, kind, pid, site))

    def occupy(pid, site, now):
        occupancy.setdefault(site, set()).add(pid)
        position[pid] = site
        if site not in pending:
            nd = field.first_disaster_after(site, now, horizon)
            if nd is not None:
                pending[site] = nd
                push(nd, 0, site)

    def vacate(pid):
        site = position.pop(pid)
        occupancy[site].discard(pid)
        if not occupancy[site]:
            del occupancy[site]

    def spawn(pid, key, time, site):
        records.append(pid)
        st = streams[pid] = ParticleStream(key)
        occupy(pid, site, time)
        log(time, "birth", pid, site)
        push(time + st.exponential(params.birth_rate), 1, pid)
        push(time + st.exponential(params.jump_rate), 2, pid)

    lineage = 0
    for site in sorted(initial):
        for _ in range(initial[site]):
            spawn((lineage,), fold(mix64_int(seed), lineage), start_time, tuple(site))
            lineage += 1
    pop_t.append(start_time)
    pop_n.append(len(position))

    capped, cap_time, n_events = False, None, 0
    while heap and heap[0][0] <= horizon:
        time, rank, _seq, payload = heapq.heappop(heap)
        n_events += 1
        if n_events > caps.max_events:
            capped, cap_time = True, time
            break
        if rank == 0:
            pending.pop(payload, None)
            victims = sorted(occupancy.get(payload, ()))
            for pid in victims:
                log(time, "disaster", pid, payload)
                vacate(pid)
            if victims:
                pop_t.append(time)
                pop_n.append(len(position))
            continue
        pid = payload
        if pid not in position:
            continue  # stale clock of a dead particle
        site, st = position[pid], streams[pid]
        if rank == 1:
            n_children = int(np.searchsorted(q_cdf, st.uniform(), side="left"))
            if len(position) - 1 + n_children > caps.max_alive:
                capped, cap_time = True, time
                break
            log(time, "branch", pid, site)
            vacate(pid)
            for j in range(n_children):
                spawn(pid + (j,), st.child_key(j), time, site)
        else:
            d = params.dimension
            axis, sign = divmod(min(int(st.uniform() * 2 * d), 2 * d - 1), 2)
            new_site = site[:axis] + (site[axis] + (1 if sign else -1),) + site[axis + 1:]
            vacate(pid)
            if trunc is not None and not trunc.contains(new_site):
                log(time, "leave", pid, new_site)
            else:
                occupy(pid, new_site, time)
                log(time, "jump", pid, new_site)
                if not len(field.disasters_in_window(new_site, time, np.nextafter(time, np.inf))):
                    push(time + st.exponential(params.jump_rate), 2, pid)
                    continue
                log(time, "disaster", pid, new_site)
                vacate(pid)
        pop_t.append(time)
        pop_n.append(len(position))

    return SimResult(events=events, records=records, capped=capped,
                     cap_time=cap_time, pop_times=np.asarray(pop_t), pop_counts=np.asarray(pop_n),
                     final_alive=tuple(sorted(position.items())))


def centered_box(half_width: int, dimension: int):
    """The truncation region {-half_width..half_width}^dimension."""
    from disasterbrw.brw import Box

    return Box(lo=(-half_width,) * dimension, hi=(half_width,) * dimension)


def replay_site_counts(events, at_time: float) -> dict:
    """Recount occupancy at `at_time` from an event log (oracle for a run's final population)."""
    pos: dict = {}
    for ev in events:
        if ev.time > at_time:
            break
        if ev.kind in ("birth", "jump"):
            pos[ev.pid] = ev.site
        elif ev.kind in ("branch", "disaster", "leave"):
            pos.pop(ev.pid, None)
    out: dict = {}
    for site in pos.values():
        out[site] = out.get(site, 0) + 1
    return out


def annealed_survival_via_field(jump_rate: float, disaster_rate: float, t: float,
                                n_samples: int, seed: int, dimension: int = 1):
    """Annealed survival through the full site-stream pipeline.

    Slow cross-check route for walk.annealed_survival: one shared field of
    dimension d+1 whose leading coordinate is the sample index, giving every
    walker an independent environment while exercising the production stream
    machinery.
    """
    from disasterbrw.env import DisasterField
    from disasterbrw.rng import derive_seed
    from disasterbrw.walk import Estimate, _survival_batch

    field = DisasterField(derive_seed(seed, "annealed-field"), disaster_rate, dimension + 1)
    gen = np.random.default_rng(derive_seed(seed, "annealed-walkers"))
    namespaces = np.arange(n_samples, dtype=np.int64)
    survived, _ = _survival_batch(field, jump_rate, t, n_samples, gen, namespaces=namespaces)
    return Estimate.binomial(float(survived.mean()), n_samples)


def enumerate_open_oracle(occupied: np.ndarray) -> np.ndarray:
    """Oriented closure by enumerating oriented paths (small lattices only)."""
    rows = occupied.shape[0] - 1
    open_ = np.zeros_like(occupied, dtype=bool)
    open_[0, 0] = True

    def walk(k: int, l: int):
        open_[k, l] = True
        if k == rows:
            return
        for dl in (0, 1):
            nl = l + dl
            if nl <= k + 1 and occupied[k + 1, nl]:
                walk(k + 1, nl)

    walk(0, 0)
    return open_


def detect_occupied_copy_oracle(events, block_radius: int, copies_root: int, window, dimension: int):
    """percolation.detect_occupied_copy for one window, by a scan of its own.

    The per-window scanner that the one-pass sweep replaced.  It tracks the
    anchors inside `window` that a newly saturated site may have filled
    (`pending`) and reads them after each batch of events sharing a
    timestamp once the window has opened; it reads the whole window box
    when the window opens, or when the log ends before that.  Anchors
    filling at one instant resolve in lexicographic order.  Returns None
    when no placement fills up within the window.
    """
    from disasterbrw.brw import cube_sites

    need = copies_root * copies_root
    offsets = cube_sites(block_radius, dimension)
    lo, hi = window.x_lo, window.x_hi

    counts: dict = {}
    saturated: set = set()
    pending: set = set()
    pos: dict = {}

    def anchors_of(site):
        for off in offsets:
            x = tuple(s - o for s, o in zip(site, off))
            if all(a <= c <= b for c, a, b in zip(x, lo, hi)):
                yield x

    def block_full(x) -> bool:
        return all(tuple(x[i] + o[i] for i in range(dimension)) in saturated for o in offsets)

    def bump(site, delta: int) -> None:
        c = counts.get(site, 0) + delta
        if c:
            counts[site] = c
        else:
            counts.pop(site, None)
        if c >= need:
            if site not in saturated:
                saturated.add(site)
                pending.update(anchors_of(site))
        else:
            saturated.discard(site)

    def first_full(cands):
        for x in sorted(cands):
            if block_full(x):
                return x
        return None

    def scan_all():
        return first_full(tuple(x) for x in product(*[range(a, b + 1) for a, b in zip(lo, hi)]))

    opened = False
    prev_time = None
    for ev in events:
        if opened and prev_time is not None and ev.time != prev_time and prev_time >= window.t_lo:
            # the batch at prev_time is complete: a real state exists there
            x = first_full(pending)
            pending.clear()
            if x is not None:
                return prev_time, x
        if not opened and ev.time > window.t_lo:
            # processed events are exactly those at or before the opening
            opened = True
            pending.clear()
            x = scan_all()
            if x is not None:
                return window.t_lo, x
        if ev.time > window.t_hi:
            return None
        prev_time = ev.time
        if ev.kind == "birth":
            pos[ev.pid] = ev.site
            bump(ev.site, +1)
        elif ev.kind == "jump":
            old = pos.get(ev.pid)
            if old is not None:
                bump(old, -1)
            pos[ev.pid] = ev.site
            bump(ev.site, +1)
        else:  # leave, branch, disaster: the particle's site empties
            old = pos.pop(ev.pid, None)
            if old is not None:
                bump(old, -1)
    # log exhausted: close out the final batch / never-opened window
    if not opened:
        x = scan_all()
        return (window.t_lo, x) if x is not None else None
    if prev_time is not None and prev_time >= window.t_lo:
        x = first_full(pending)
        if x is not None:
            return max(prev_time, window.t_lo), x
    return None


# -- block-wise stream materializer ---------------------------------------------
# How DisasterField grew a stream before its running-sum loop: numpy blocks of
# _block_size draws, each block's cumulative sum offset by the previous end.
# Only a stream's first block is a pure running sum (later blocks add a
# block-local cumsum to the old end, which differs in the last bits), so the
# oracle returns that first block.

def _block_size(rate: float, span: float) -> int:
    mean = rate * max(span, 0.0)
    return max(8, int(math.ceil(mean + 10.0 * math.sqrt(mean) + 16.0)))


def first_block_oracle(field, site, t_max: float) -> np.ndarray:
    """The first block the block-wise materializer drew for `site` when asked for t_max.

    Empty at rate 0, where that materializer drew nothing.
    """
    from disasterbrw.rng import counter_uniform

    if field.rate == 0.0:
        return np.empty(0)
    n = _block_size(field.rate, t_max)
    ctrs = np.arange(0, n, dtype=np.uint64)
    gaps = -np.log(counter_uniform(field.site_key(site), ctrs)) / field.rate
    return 0.0 + np.cumsum(gaps)


# -- exit counter by region tuples ------------------------------------------------
# boxes.exit_counts as it was when every exit built and validated its own
# region object; a region is a tuple (kind, axis, sign, theta), with theta the
# signs of the coordinates other than the distinguished one.

def _sign(v: int) -> int:
    return 1 if v >= 0 else -1


def exit_region_order(dimension: int) -> tuple[list, list]:
    """(top, face) region tuples in the order of exit_counts' vectors: axes in
    order, the distinguished sign before theta, +1 before -1."""
    thetas = list(product((1, -1), repeat=dimension - 1))
    top = [("top", 0, s, th) for s in (1, -1) for th in thetas]
    face = [("face", ax, s, th) for ax in range(dimension) for s in (1, -1) for th in thetas]
    return top, face


def classify_exit_oracle(box, t: float, site):
    L = box.half_width
    if any(abs(c) > L for c in site):
        raise ValueError("site outside the box")
    if t == box.t_end:
        return ("top", 0, _sign(site[0]), tuple(_sign(c) for c in site[1:]))
    if not (0.0 <= t < box.t_end):
        raise ValueError("time outside the box")
    for ax, c in enumerate(site):
        if abs(c) == L:
            theta = tuple(_sign(site[j]) for j in range(box.dimension) if j != ax)
            return ("face", ax, _sign(c), theta)
    raise ValueError("point is interior, not on the boundary")


def exit_vectors(tops: dict, faces: dict, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts keyed by region tuples as exit_counts' (top, face) vectors."""
    top, face = exit_region_order(dimension)
    return (np.array([tops.get(r, 0) for r in top], dtype=np.int64),
            np.array([faces.get(r, 0) for r in face], dtype=np.int64))


def exit_counts_oracle(events, box) -> tuple[np.ndarray, np.ndarray]:
    """(top, face) vectors of boxes.exit_counts, by the per-event classifier."""
    L = box.half_width
    tops: dict = {}
    faces: dict = {}
    pos: dict = {}
    touched: dict = {}

    def on_shell(site) -> bool:
        return max(abs(c) for c in site) == L

    def outside(site) -> bool:
        return max(abs(c) for c in site) > L

    started = False

    def open_window() -> None:
        for pid, site in pos.items():
            if touched[pid] is None and on_shell(site):
                region = classify_exit_oracle(box, 0.0, site)
                faces[region] = faces.get(region, 0) + 1
                touched[pid] = 0.0

    def note_arrival(pid, site, time: float) -> None:
        if started and time < box.t_end and touched.get(pid) is None \
                and (on_shell(site) or outside(site)):
            if not outside(site):
                region = classify_exit_oracle(box, time, site)
                faces[region] = faces.get(region, 0) + 1
            touched[pid] = time

    for ev in events:
        if ev.time > box.t_end:
            break
        if not started and ev.time >= 0.0:
            started = True
            open_window()
        if ev.kind == "birth":
            parent = ev.pid[:-1]
            pos[ev.pid] = ev.site
            touched[ev.pid] = touched.get(parent) if len(ev.pid) > 1 else None
            note_arrival(ev.pid, ev.site, ev.time)
        elif ev.kind in ("jump", "leave"):
            pos[ev.pid] = ev.site
            note_arrival(ev.pid, ev.site, ev.time)
            if ev.kind == "leave":
                pos.pop(ev.pid, None)
        elif ev.kind in ("branch", "disaster"):
            pos.pop(ev.pid, None)
    if not started:
        started = True
        open_window()
    for pid, site in pos.items():
        if touched.get(pid) is None and not outside(site):
            region = classify_exit_oracle(box, box.t_end, site)
            tops[region] = tops.get(region, 0) + 1
    return exit_vectors(tops, faces, box.dimension)


# -- superposed environment ------------------------------------------------------
# The union of two independent fields: a denser environment for the domination
# and coupling tests, and a field that is not a DisasterField, which the
# batch engine must refuse.

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

    def disasters_in_window(self, site, t0: float, t1: float) -> list[float]:
        from disasterbrw.env import InvalidWindowError

        if t0 > t1:
            raise InvalidWindowError(f"window start {t0} exceeds end {t1}")
        return sorted(self.a.disasters_in_window(site, t0, t1)
                      + self.b.disasters_in_window(site, t0, t1))

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


# -- one-sided comparisons ----------------------------------------------------------

def violated_at(cmp) -> float:
    """Sigmas by which cmp.rhs exceeds cmp.lhs (a brw.Comparison): positive when the
    bound lhs >= rhs fails.

    Both estimates exact: +inf when rhs > lhs, -inf when the bound holds.
    """
    denom = math.hypot(cmp.lhs_se, cmp.rhs_se)
    if denom > 0:
        return (cmp.rhs - cmp.lhs) / denom
    return math.inf if cmp.rhs > cmp.lhs else -math.inf


def nonextinction_bound_check(fields, params, period: float, n_reps: int, seeds) -> list:
    """Per field: check 1 - q_hat(0) >= exp(-birth_rate*period*q(0)) * pinned survival.

    Following a single line of first children through the tree survives all
    branchings with probability exp(-birth_rate*t*q(0)); if that line also
    dodges disasters and returns to the origin, at least one particle sits
    there, so the nonextinction probability dominates the product.
    """
    from disasterbrw.brw import Comparison
    from disasterbrw.gw_embed import sample_offspring
    from disasterbrw.rng import derive_seed
    from disasterbrw.walk import _binom_se, estimate_survival

    samples = sample_offspring(fields, params, period, 1, n_reps,
                               [derive_seed(seed, "bound-trees") for seed in seeds])
    factor = math.exp(-params.birth_rate * period * params.offspring[0])
    checks = []
    for field, seed, sample in zip(fields, seeds, samples):
        lhs = 1.0 - sample.pmf[0]
        pinned = estimate_survival(field, params.jump_rate, period, n_reps, True,
                                   derive_seed(seed, "bound-walkers"))
        checks.append(Comparison(lhs=lhs, lhs_se=_binom_se(lhs, n_reps), rhs=factor * pinned.value,
                                 rhs_se=factor * pinned.std_err))
    return checks
