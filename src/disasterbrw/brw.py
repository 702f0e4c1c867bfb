"""Event-driven branching random walk among disasters.

Particles are tree nodes: the root of lineage i is (i,), and the j-th child
of v is v + (j,).  Every particle jumps at `jump_rate`, branches at
`birth_rate` (replaced by an offspring-law number of children at its site),
and dies when a disaster hits its site; a disaster kills all co-located
particles atomically.

The loop runs on a single global priority queue.  Jump and branch clocks are
exponential (memoryless, resampled per event).  Disasters are read from the
environment once per site and call: the first time a particle lands on a
site, one disasters_in_window query fetches that site's disaster times in
[start_time, horizon] into a list.  On every later arrival one bisection of
that list gives both the site's next disaster, which goes on the queue
unless one is already pending there, and whether a disaster strikes exactly
at the arrival instant (it then kills the particle right after its jump).
Simultaneous floating-point times are ordered disaster < branch < jump,
which keeps replays deterministic.  Caching is safe because a stream's times
are running sums of gaps indexed by (seed, site, counter), so they never
depend on when, or in which order, windows are read.  Two caches outlive a
call: the field keeps every stream it has materialized, so trees sharing a
field draw each site's stream once, and BRWParams builds its offspring cdf
once.

Each particle owns a counter-based random stream keyed by (seed, id), so a
particle's draws are independent of which other particles exist; see the
rng module for why that makes path-wise couplings exact.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .env import DisasterField
from .rng import ParticleStream, derive_seed, fold, mix64_int
from .walk import SurvivalEstimate, estimate_survival

MAX_OFFSPRING_SUPPORT = 64

Site = tuple[int, ...]
ParticleId = tuple[int, ...]
Configuration = dict  # site -> positive particle count


class Event(NamedTuple):
    time: float
    kind: str  # birth | jump | branch | disaster | leave
    pid: ParticleId
    site: Site


@dataclass(frozen=True)
class BRWParams:
    """Model parameters: jump rate, birth rate, offspring law, disaster rate, dimension."""

    jump_rate: float
    birth_rate: float
    offspring: tuple[float, ...]  # pmf over {0, 1, ..., len-1}
    disaster_rate: float = 1.0
    dimension: int = 1

    def __post_init__(self):
        if self.jump_rate < 0 or self.birth_rate < 0 or self.disaster_rate < 0:
            raise ValueError("rates must be >= 0")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        q = np.asarray(self.offspring, dtype=np.float64)
        if q.ndim != 1 or len(q) == 0 or len(q) > MAX_OFFSPRING_SUPPORT:
            raise ValueError(f"offspring pmf needs 1..{MAX_OFFSPRING_SUPPORT} entries")
        if (q < 0).any() or abs(q.sum() - 1.0) > 1e-12:
            raise ValueError("offspring pmf must be nonnegative and sum to 1")
        if len(q) > 1 and q[1] >= 1.0 - 1e-15:
            raise ValueError("offspring law must not be a point mass at one child")
        object.__setattr__(self, "offspring", tuple(float(x) for x in q))

    @property
    def offspring_mean(self) -> float:
        return float(sum(k * p for k, p in enumerate(self.offspring)))

    def offspring_cdf(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.offspring))

    @cached_property
    def _cdf_list(self) -> list[float]:
        """offspring_cdf() as a list, built once: simulate bisects it per branch."""
        return self.offspring_cdf().tolist()


def offspring_pmf(pairs: Mapping[int, float]) -> tuple[float, ...]:
    """Dense pmf tuple from {count: prob}; e.g. {0: .5, 2: .5}."""
    top = max(pairs)
    q = [0.0] * (top + 1)
    for k, p in pairs.items():
        if k < 0:
            raise ValueError("offspring counts must be >= 0")
        q[k] = float(p)
    return tuple(q)


def cube_sites(radius: int, dimension: int) -> list[Site]:
    """All lattice sites of the centered cube {-radius..radius}^dimension."""
    return [tuple(p) for p in itertools.product(range(-radius, radius + 1), repeat=dimension)]


def block_config(sites: Iterable[Site], count: int) -> Configuration:
    """Configuration placing `count` particles on every listed site."""
    return {tuple(s): int(count) for s in sites}


@dataclass(frozen=True)
class Box:
    """Axis-aligned inclusive lattice box used as a truncation region."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box needs lo <= hi per axis")

    def contains(self, site: Site) -> bool:
        return all(l <= c <= h for c, l, h in zip(site, self.lo, self.hi))


def centered_box(half_width: int, dimension: int) -> Box:
    return Box(lo=(-half_width,) * dimension, hi=(half_width,) * dimension)


@dataclass
class ParticleRecord:
    id: ParticleId
    birth_time: float
    birth_site: Site
    end_time: float | None = None
    end_cause: str | None = None  # branch | disaster | left-truncation-region | horizon | cap
    jumps: list = dc_field(default_factory=list)  # (time, new_site) when paths recorded


@dataclass(frozen=True)
class Snapshot:
    time: float
    alive: tuple[tuple[ParticleId, Site], ...]  # sorted by particle id

    def __len__(self) -> int:
        return len(self.alive)


@dataclass(frozen=True)
class Caps:
    max_alive: int = 1_000_000
    max_events: int = 100_000_000


@dataclass
class SimResult:
    events: list
    snapshots: list
    records: dict
    capped: bool
    cap_time: float | None
    pop_times: np.ndarray
    pop_counts: np.ndarray
    start_time: float
    horizon: float
    final_alive: tuple

    @property
    def final_count(self) -> int:
        return len(self.final_alive)


class CapTripped(RuntimeError):
    """A population or event cap tripped where a check needs an uncapped run."""


def simulate(params: BRWParams, initial: Mapping[Site, int], field, start_time: float,
             horizon: float, seed: int, *, trunc: Box | None = None, caps: Caps = Caps(),
             snapshot_times: Sequence[float] = (), snapshot_flavor: str = "post",
             record_events: bool = True) -> SimResult:
    """Run the branching system from `initial` over [start_time, horizon].

    snapshot_flavor "post" applies every event at the snapshot instant before
    reporting; "pre" reports the state just before events at that instant
    (the left limit, under which particles killed exactly then still count).
    Truncated runs remove a particle the moment it jumps out of `trunc`.
    Cap trips flag the result rather than raising; flagged replicas must be
    excluded from unbiased statistics by the caller.
    """
    if horizon < start_time:
        raise ValueError("horizon must be >= start_time")
    if field.dimension != params.dimension:
        raise ValueError("field and params dimensions differ")
    if snapshot_flavor not in ("post", "pre"):
        raise ValueError("snapshot_flavor must be 'post' or 'pre'")
    snap_times = sorted(map(float, snapshot_times))
    if snap_times and (snap_times[0] < start_time or snap_times[-1] > horizon):
        raise ValueError("snapshot times must lie in [start_time, horizon]")
    if sum(initial.values()) < 1:
        raise ValueError("a process start needs at least one particle")

    q_cdf = params._cdf_list
    base_key = mix64_int(seed)
    birth_rate, jump_rate = params.birth_rate, params.jump_rate
    n_dirs = 2 * params.dimension
    window_end = math.nextafter(horizon, math.inf)
    max_alive, max_events = caps.max_alive, caps.max_events
    heappush, heappop = heapq.heappush, heapq.heappop
    tick = itertools.count().__next__  # heap tie-breaker: push order

    events: list = []
    records: dict[ParticleId, ParticleRecord] = {}
    streams: dict[ParticleId, ParticleStream] = {}
    occupancy: dict[Site, set] = {}
    position: dict[ParticleId, Site] = {}  # alive particles only
    disasters: dict[Site, list] = {}  # site -> its disaster times in [start_time, horizon]
    pending: set = set()  # sites whose next disaster is on the heap
    heap: list = []  # (time, rank, seq, site or pid); rank: disaster 0 < branch 1 < jump 2
    pop_t: list[float] = [start_time]
    pop_n: list[int] = [0]

    def log(time: float, kind: str, pid: ParticleId, site: Site) -> None:
        if record_events:
            events.append(Event(time, kind, pid, site))

    def occupy(pid: ParticleId, site: Site, now: float) -> bool:
        """Place `pid` at `site`; True when a disaster strikes it exactly at `now`."""
        group = occupancy.get(site)
        if group is None:
            occupancy[site] = {pid}
        else:
            group.add(pid)
        position[pid] = site
        ts = disasters.get(site)
        if ts is None:
            ts = disasters[site] = field.disasters_in_window(site, start_time, window_end).tolist()
        i = bisect_right(ts, now)
        # a pending disaster has not fired yet, so it is still the first after `now`
        if i < len(ts) and site not in pending:
            pending.add(site)
            heappush(heap, (ts[i], 0, tick(), site))
        return i > 0 and ts[i - 1] == now

    def note_pop(time: float) -> None:
        pop_t.append(time)
        pop_n.append(len(position))

    def vacate(pid: ParticleId) -> None:
        site = position.pop(pid)
        group = occupancy[site]
        group.discard(pid)
        if not group:
            del occupancy[site]

    def kill(pid: ParticleId, time: float, cause: str) -> None:
        vacate(pid)
        rec = records[pid]
        rec.end_time = time
        rec.end_cause = cause

    def spawn(pid: ParticleId, key: int, time: float, site: Site) -> None:
        records[pid] = ParticleRecord(id=pid, birth_time=time, birth_site=site)
        st = streams[pid] = ParticleStream(key)
        occupy(pid, site, time)
        log(time, "birth", pid, site)
        heappush(heap, (time + st.exponential(birth_rate), 1, tick(), pid))
        heappush(heap, (time + st.exponential(jump_rate), 2, tick(), pid))

    # seed lineages in deterministic site order
    lineage = 0
    for site in sorted(initial):
        count = initial[site]
        if count < 0:
            raise ValueError("configuration counts must be >= 0")
        if trunc is not None and count > 0 and not trunc.contains(site):
            raise ValueError("initial configuration outside the truncation region")
        for _ in range(count):
            spawn((lineage,), fold(base_key, lineage), start_time, tuple(site))
            lineage += 1
    note_pop(start_time)

    capped = False
    cap_time: float | None = None
    snapshots: list[Snapshot] = []
    snap_i = 0
    next_snap = snap_times[0] if snap_times else math.inf
    n_events = 0

    def emit_snapshots_up_to(next_time: float) -> float:
        """Emit snapshots strictly due before the next event is applied; next snapshot time."""
        nonlocal snap_i
        while snap_i < len(snap_times):
            ts = snap_times[snap_i]
            due = (next_time > ts) if snapshot_flavor == "post" else (next_time >= ts)
            if not due:
                return ts
            snapshots.append(Snapshot(time=ts, alive=tuple(sorted(position.items()))))
            snap_i += 1
        return math.inf

    while heap:
        time, rank, _seq, payload = heappop(heap)
        if time > horizon:
            break
        if time >= next_snap:
            next_snap = emit_snapshots_up_to(time)
        n_events += 1
        if n_events > max_events:
            capped, cap_time = True, time
            break

        if rank == 0:  # disaster: kills every particle on the site
            pending.discard(payload)
            group = occupancy.get(payload)
            if group:
                for pid in sorted(group):
                    log(time, "disaster", pid, payload)
                    kill(pid, time, "disaster")
                note_pop(time)
            continue

        pid = payload
        site = position.get(pid)
        if site is None:
            continue  # stale clock of a dead particle
        st = streams[pid]

        if rank == 1:  # branch
            n_children = bisect_left(q_cdf, st.uniform())
            if len(position) - 1 + n_children > max_alive:
                capped, cap_time = True, time
                break
            log(time, "branch", pid, site)
            kill(pid, time, "branch")
            for j in range(n_children):
                spawn(pid + (j,), st.child_key(j), time, site)
            note_pop(time)
            continue

        # jump
        axis, sign = divmod(min(int(st.uniform() * n_dirs), n_dirs - 1), 2)
        new_site = site[:axis] + (site[axis] + (1 if sign else -1),) + site[axis + 1 :]
        if trunc is not None and not trunc.contains(new_site):
            log(time, "leave", pid, new_site)
            kill(pid, time, "left-truncation-region")
            note_pop(time)
            continue
        vacate(pid)
        struck = occupy(pid, new_site, time)
        if record_events:
            records[pid].jumps.append((time, new_site))
            events.append(Event(time, "jump", pid, new_site))
        if struck:  # post-jump tie rule: a disaster at the arrival instant kills
            log(time, "disaster", pid, new_site)
            kill(pid, time, "disaster")
            note_pop(time)
            continue
        heappush(heap, (time + st.exponential(jump_rate), 2, tick(), pid))

    emit_snapshots_up_to(math.inf)
    final = tuple(sorted(position.items()))
    for pid, _site in final:
        rec = records[pid]
        rec.end_time = horizon
        rec.end_cause = "cap" if capped else "horizon"
    return SimResult(
        events=events,
        snapshots=snapshots,
        records=records,
        capped=capped,
        cap_time=cap_time,
        pop_times=np.asarray(pop_t),
        pop_counts=np.asarray(pop_n),
        start_time=start_time,
        horizon=horizon,
        final_alive=final,
    )


# ---------------------------------------------------------------------------
# derived views
# ---------------------------------------------------------------------------

def site_counts(snapshot: Snapshot) -> Configuration:
    """Multiset tally of alive particles by site."""
    out: Configuration = {}
    for _pid, site in snapshot.alive:
        out[site] = out.get(site, 0) + 1
    return out


def dominates(snapshot: Snapshot, config: Mapping[Site, int]) -> bool:
    """True iff every site holds at least the configured particle count."""
    counts = site_counts(snapshot)
    return all(counts.get(site, 0) >= need for site, need in config.items() if need > 0)


def serialize_events(events: Iterable[Event]):
    """One line per event: time<TAB>kind<TAB>id<TAB>site (ids dot-joined, sites comma-joined)."""
    for ev in events:
        pid = ".".join(str(i) for i in ev.pid)
        site = ",".join(str(c) for c in ev.site)
        yield f"{ev.time:.17g}\t{ev.kind}\t{pid}\t{site}"


def parse_events(lines: Iterable[str]) -> list[Event]:
    out = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        t, kind, pid, site = line.split("\t")
        out.append(Event(float(t), kind, tuple(int(x) for x in pid.split(".")),
                         tuple(int(x) for x in site.split(","))))
    return out


# ---------------------------------------------------------------------------
# replica-level estimators
# ---------------------------------------------------------------------------

def survival_frequency(params: BRWParams, horizon: float, n_reps: int, seed: int,
                       *, caps: Caps = Caps(max_alive=10_000, max_events=5_000_000),
                       initial: Mapping[Site, int] | None = None) -> SurvivalEstimate:
    """Fraction of independent (environment, tree) replicas alive at `horizon`.

    A replica that trips the population cap is counted as surviving: it held
    `max_alive` particles at the trip time, and dying out from there has
    probability at most (single-particle extinction)^max_alive.  The cap
    fraction is reported so callers can judge that reading.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    start = initial if initial is not None else {(0,) * params.dimension: 1}
    survived = 0
    capped = 0
    for i in range(n_reps):
        fld = DisasterField(derive_seed(seed, "bsurv-env", i), params.disaster_rate, params.dimension)
        res = simulate(params, start, fld, 0.0, horizon, derive_seed(seed, "bsurv-tree", i),
                       caps=caps, record_events=False)
        if res.capped:
            capped += 1
            survived += 1
        elif res.final_count > 0:
            survived += 1
    return SurvivalEstimate.binomial(survived / n_reps, n_reps, capped / n_reps)


@dataclass(frozen=True)
class Comparison:
    """Two Monte Carlo estimates, lhs and rhs, with their standard errors."""

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def z(self) -> float:
        """(lhs - rhs) in units of the combined noise; 0 when both are exact."""
        denom = math.hypot(self.lhs_se, self.rhs_se)
        return (self.lhs - self.rhs) / denom if denom > 0 else 0.0

    @property
    def violated_at(self) -> float:
        """Sigmas by which rhs exceeds lhs: positive when the bound lhs >= rhs fails.

        Both estimates exact: +inf when rhs > lhs, -inf when the bound holds.
        """
        denom = math.hypot(self.lhs_se, self.rhs_se)
        if denom > 0:
            return (self.rhs - self.lhs) / denom
        return math.inf if self.rhs > self.lhs else -math.inf


def moment_identity_check(params: BRWParams, field, t: float, n_reps: int, seed: int,
                          *, n_walkers: int | None = None,
                          caps: Caps = Caps(max_alive=100_000, max_events=10_000_000)) -> Comparison:
    """Compare mean population at t against growth-factor-scaled survival.

    In a fixed environment, the expected number of alive particles at time t
    equals exp(birth_rate*(mean-1)*t) times the single-particle survival
    probability, so the two Monte Carlo estimates target one number.
    Raises CapTripped when a tree trips `caps`: a capped size would bias lhs.
    """
    if t == 0.0:
        return Comparison(lhs=1.0, lhs_se=0.0, rhs=1.0, rhs_se=0.0)
    sizes = np.empty(n_reps)
    for i in range(n_reps):
        res = simulate(params, {(0,) * params.dimension: 1}, field, 0.0, t,
                       derive_seed(seed, "moment-tree", i), caps=caps,
                       snapshot_times=[t], record_events=False)
        if res.capped:
            raise CapTripped("population cap tripped during moment check; raise caps")
        sizes[i] = len(res.snapshots[0])
    lhs = float(sizes.mean())
    lhs_se = float(sizes.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
    nw = n_walkers if n_walkers is not None else n_reps
    surv = estimate_survival(field, params.jump_rate, t, nw, False, derive_seed(seed, "moment-walk"))
    factor = math.exp(params.birth_rate * (params.offspring_mean - 1.0) * t)
    return Comparison(lhs=lhs, lhs_se=lhs_se, rhs=factor * surv.value, rhs_se=factor * surv.std_err)


@dataclass(frozen=True)
class GrowthEstimate:
    slope: float
    std_err: float
    n_survivors: int
    cap_fraction: float


def growth_rate(params: BRWParams, horizon: float, n_reps: int, seed: int,
                *, caps: Caps = Caps(max_alive=10_000, max_events=5_000_000),
                tail_fraction: float = 0.5) -> GrowthEstimate | None:
    """Mean least-squares slope of log population over each survivor's tail window.

    The window is the last `tail_fraction` of the replica's observed span
    (capped runs end at the cap time).  Returns None when no replica survives.
    """
    slopes = []
    capped = 0
    for i in range(n_reps):
        fld = DisasterField(derive_seed(seed, "growth-env", i), params.disaster_rate, params.dimension)
        res = simulate(params, {(0,) * params.dimension: 1}, fld, 0.0, horizon,
                       derive_seed(seed, "growth-tree", i), caps=caps, record_events=False)
        if res.capped:
            capped += 1
            t_end = res.cap_time
        elif res.final_count > 0:
            t_end = horizon
        else:
            continue
        lo = t_end * (1.0 - tail_fraction)
        mask = (res.pop_times >= lo) & (res.pop_times <= t_end) & (res.pop_counts > 0)
        if mask.sum() < 3:
            continue
        x = res.pop_times[mask]
        y = np.log(res.pop_counts[mask].astype(np.float64))
        slope = np.polyfit(x, y, 1)[0]
        slopes.append(float(slope))
    if not slopes:
        return None
    arr = np.asarray(slopes)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return GrowthEstimate(slope=float(arr.mean()), std_err=se, n_survivors=len(arr),
                          cap_fraction=capped / n_reps)


# ---------------------------------------------------------------------------
# coupled birth-rate family
# ---------------------------------------------------------------------------

def coupled_birth_rate_survival(params_max: BRWParams, birth_rates: Sequence[float],
                                horizon: float, n_reps: int, seed: int,
                                *, caps: Caps = Caps(max_alive=10_000, max_events=5_000_000)) -> list[SurvivalEstimate]:
    """Survival frequencies for several birth rates on shared randomness.

    One run per replica at the maximal rate; each branch event is real for
    rate b with probability b/max (nested uniform marks), and a fake event
    continues the particle through its first child.  Requires an offspring
    law with no zero-children mass, under which the alive sets are nested in
    the birth rate, so the frequencies are monotone replica by replica.
    """
    if params_max.offspring[0] != 0.0:
        raise ValueError("the monotone birth-rate coupling needs offspring >= 1")
    rates = sorted(set(float(b) for b in birth_rates))
    if not rates or rates[-1] > params_max.birth_rate:
        raise ValueError("birth_rates must be <= params_max.birth_rate")
    lam_max = params_max.birth_rate
    survived = {b: 0 for b in rates}
    capped = {b: 0 for b in rates}
    for i in range(n_reps):
        fld = DisasterField(derive_seed(seed, "lcpl-env", i), params_max.disaster_rate,
                            params_max.dimension)
        res = simulate(params_max, {(0,) * params_max.dimension: 1}, fld, 0.0, horizon,
                       derive_seed(seed, "lcpl-tree", i), caps=caps, record_events=False)
        # branch-mark uniforms, keyed by the branching particle's id
        mark_key = derive_seed(seed, "lcpl-marks", i)
        marks: dict[ParticleId, float] = {}
        for pid, rec in res.records.items():
            if rec.end_cause == "branch":
                h = mark_key
                for part in pid:
                    h = fold(h, part)
                marks[pid] = (mix64_int(h) >> 11) * 2.0 ** -53
        for b in rates:
            if res.capped:
                capped[b] += 1
                survived[b] += 1
                continue
            thin = b / lam_max if lam_max > 0 else 0.0
            alive = False
            for pid, _site in res.final_alive:
                ok = True
                for cut in range(1, len(pid)):
                    parent, child_idx = pid[:cut], pid[cut]
                    u = marks.get(parent)
                    if u is None:
                        continue
                    if u > thin and child_idx != 0:
                        ok = False  # fake branch: only the first child continues
                        break
                if ok:
                    alive = True
                    break
            if alive:
                survived[b] += 1
    return [SurvivalEstimate.binomial(survived[b] / n_reps, n_reps, capped[b] / n_reps)
            for b in rates]
