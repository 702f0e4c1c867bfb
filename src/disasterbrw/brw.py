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

Per particle the loop holds two things: its ParticleStream, which rides in
its own heap entries (time, rank, seq, pid, stream), and its site in one
dict; an end deletes that entry, and the event log says when and why it came.
Per site it holds the particles on it, its disaster list and whether its next
disaster is pending.  Children join their parent's site without a lookup: the
parent was not struck there, so the site's next disaster is already pending.
The loop body is inlined, and draws return python floats, so times, heap
comparisons and bisections never run on numpy scalars.  Draws stay one
ParticleStream method call each: a stream patched on its class (a test
pinning a draw, the benchmark's tracer counting them) sees every draw, and
the counter arithmetic inside the call, not the call, is the cost.

Each particle owns a counter-based random stream keyed by (seed, id), so a
particle's draws are independent of which other particles exist; see the
rng module for why that makes path-wise couplings exact.

survive_replicas answers what survival_frequency, moment_identity_check and
gw_embed.sample_offspring ask: "capped?", "how many particles are alive at
the horizon?" and "how many of them sit on a start site?", for many replicas
at once, without the heap.  The last two reach it through
replicas_in_fields, which runs the trees of all their fields as one batch.
It gets the same answers as simulate, replica for replica, because:

* Lives are pure.  Given the field, a particle's life is a function of its
  key, birth time and birth site alone: counter 0 is its branch gap, 1 its
  first jump gap, then one (direction, gap) pair per jump, and the offspring
  uniform sits at counter 2 + 2 * jumps.  Jump times are running sums, added
  left to right as the heap loop adds them, and disaster streams are the
  field's own (env.PackedStreams, drawn once per distinct env seed and kept
  until that field's last replica is done), so every time agrees bit for
  bit.  Lives of all replicas' newborns are therefore drawn together as
  arrays, a block of at most _BLOCK_CELLS cells at a time, with no effect on
  any draw.
* Tie rules carry over.  A particle dies at the first disaster at its site
  in (t0, e] after its birth at t0 and in [a, e] after a jump at a, where e
  is its next jump, its branch or the horizon: a disaster fires before a
  branch or jump at its instant, one at the horizon still kills, and one at
  the arrival instant is the post-jump kill.  A jump tied with the branch
  never happens (branch before jump).  A root born at the start time is
  born at t0 too, so a disaster at that very instant spares it, as in the
  heap loop.
* Children inherit their first disaster.  Each particle carries `next`, the
  first disaster at its site at or after its last arrival (after its birth
  if it never jumped).  One that branches at t0 was not struck, so no
  disaster fell at its site from that arrival through t0, and `next` is
  also the first disaster after t0 there: the one that ends its children's
  first interval (t0, e].  Children take it over, and only roots look their
  birth site up.
* The alive cap is checked in time order.  A replica's events are complete
  up to its checked time, its earliest branch whose children are not yet
  drawn.  Each round sorts the events before that time by (time, rank),
  with the heap loop's ranks disaster < branch < struck arrival, counts the
  alive particles through them, and stops the replica at the first branch
  where alive - 1 + children > max_alive, as the heap loop does.  (Only two
  branches of one replica at the very same floating-point instant, which
  continuous draws do not produce, could come in another order than the
  heap's push order.)  Events are applied only up to each replica's
  earliest unspawned branch, so which branches a round spawns decides how
  far the replica gets, never what it meets: every window that reaches
  the checked time gives the same answers.  The window is cap-aware:
  children are drawn for the branches at most lookahead * room after the
  checked time, where lookahead = 1 / (birth_rate * (mean - 1)) and room =
  clip((max_alive - alive) / alive, 1/64, 1).  A replica far from its cap
  looks a full lookahead ahead; one near it draws few children of branches
  after its trip.  Replicas start and advance only while the pool holds
  about _LIVE_BLOCKS blocks of rows, and each running replica reserves rows
  for its disaster-free mean population at the horizon (at most
  _REPLICA_ROWS), so small critical trees start by the thousand.  Once
  every event of an uncapped replica is applied, the alive count is its
  population at the horizon; a particle that outlives the horizon also adds
  to its replica's start-site count when it ends on a start site.
* The event cap is bounded, not ported.  The heap loop counts stale clocks
  and disasters at empty sites, which the arrays never see.  Its pops are at
  most its pushes: three per particle (branch clock, first jump clock, a
  disaster at the birth site) and two per jump.  A replica whose
  3 * particles + 2 * jumps drawn so far passes max_events, and that has not
  tripped the alive cap, is run again through simulate, so max_events keeps
  its exact meaning.  The window does not weaken the bound: a replica stops
  only at its checked time, and every branch before it is spawned, so every
  particle the heap loop creates before it stops is drawn and counted.  (A
  replica that trips the alive cap is capped whichever cap the heap loop
  meets first.)

simulate stays the one general engine: event logs, truncation, growth
rates and the box embeddings use it, and it is the reference the batch
engine is tested against.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .env import DisasterField, PackedStreams, site_keys_at
from .rng import (_M64, GOLDEN, ParticleStream, counter_exponential, counter_uniform, derive_seed,
                  derive_seeds, fold, mix64, mix64_int)
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
        if not all(0 <= r < math.inf for r in (self.jump_rate, self.birth_rate, self.disaster_rate)):
            raise ValueError("rates must be finite and >= 0")
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

    @cached_property
    def offspring_cdf(self) -> list[float]:
        """Cumulative offspring pmf, built once: simulate bisects it per branch."""
        return np.cumsum(np.asarray(self.offspring)).tolist()


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


@dataclass(frozen=True)
class Caps:
    max_alive: int = 1_000_000
    max_events: int = 100_000_000


@dataclass(slots=True)
class SimResult:
    events: list
    records: list  # the id of every particle the run created, in creation order
    capped: bool
    cap_time: float | None
    pop_times: np.ndarray
    pop_counts: np.ndarray
    final_alive: tuple

    @property
    def final_count(self) -> int:
        return len(self.final_alive)


class CapTripped(RuntimeError):
    """A population or event cap tripped where a check needs an uncapped run."""


def simulate(params: BRWParams, initial: Mapping[Site, int], field, start_time: float,
             horizon: float, seed: int, *, trunc: Box | None = None, caps: Caps = Caps(),
             record_events: bool = True) -> SimResult:
    """Run the branching system from `initial` over [start_time, horizon].

    `final_alive` is the state after every event at the horizon is applied.
    Truncated runs remove a particle the moment it jumps out of `trunc`.
    Cap trips flag the result rather than raising; flagged replicas must be
    excluded from unbiased statistics by the caller.
    """
    if not (math.isfinite(start_time) and math.isfinite(horizon)):
        raise ValueError("start_time and horizon must be finite")
    if horizon < start_time:
        raise ValueError("horizon must be >= start_time")
    if field.dimension != params.dimension:
        raise ValueError("field and params dimensions differ")
    if trunc is not None and len(trunc.lo) != params.dimension:
        raise ValueError("truncation region and params dimensions differ")
    if sum(initial.values()) < 1:
        raise ValueError("a process start needs at least one particle")

    q_cdf = params.offspring_cdf
    birth_rate, jump_rate = params.birth_rate, params.jump_rate
    n_dirs = 2 * params.dimension
    window, window_end = field.disasters_in_window, math.nextafter(horizon, math.inf)
    max_alive, max_events = caps.max_alive, caps.max_events
    lo, hi = (trunc.lo, trunc.hi) if trunc is not None else ((), ())
    heappush, heappop = heapq.heappush, heapq.heappop
    tick = itertools.count().__next__  # heap tie-breaker: push order
    new = tuple.__new__  # new(Event, fields) skips Event's python-level __new__

    events: list = []
    records: list[ParticleId] = []
    position: dict[ParticleId, Site] = {}  # alive particles only
    occupancy: dict[Site, set] = {}  # site -> the alive particles on it
    disasters: dict[Site, list] = {}  # site -> its disaster times in [start_time, horizon]
    pending: set = set()  # sites whose next disaster is on the heap
    # (time, rank, seq, site or pid, the particle's stream); rank: disaster 0 < branch 1 < jump 2
    heap: list = []
    pop_t: list[float] = [start_time]
    pop_n: list[int] = [0]

    # seed lineages in deterministic site order
    base_key = mix64_int(seed)
    lineage = 0
    for site in sorted(initial):
        count = initial[site]
        if count < 0:
            raise ValueError("configuration counts must be >= 0")
        if trunc is not None and count > 0 and not trunc.contains(site):
            raise ValueError("initial configuration outside the truncation region")
        site = tuple(site)
        for _ in range(count):
            pid = (lineage,)
            st = ParticleStream(fold(base_key, lineage))
            lineage += 1
            records.append(pid)
            position[pid] = site
            occupancy.setdefault(site, set()).add(pid)
            if site not in disasters:
                ts = disasters[site] = window(site, start_time, window_end)
                i = bisect_right(ts, start_time)
                if i < len(ts):
                    pending.add(site)
                    heappush(heap, (ts[i], 0, tick(), site, None))
            if record_events:
                events.append(new(Event, (start_time, "birth", pid, site)))
            heappush(heap, (start_time + st.exponential(birth_rate), 1, tick(), pid, st))
            heappush(heap, (start_time + st.exponential(jump_rate), 2, tick(), pid, st))
    pop_t.append(start_time)
    pop_n.append(len(position))

    capped = False
    cap_time: float | None = None
    n_events = 0

    while heap:
        time, rank, _seq, payload, st = heappop(heap)
        if time > horizon:
            break
        n_events += 1
        if n_events > max_events:
            capped, cap_time = True, time
            break

        if rank == 0:  # disaster: kills every particle on the site
            pending.discard(payload)
            group = occupancy.pop(payload, None)
            if group:
                for pid in sorted(group):
                    if record_events:
                        events.append(new(Event, (time, "disaster", pid, payload)))
                    del position[pid]
                pop_t.append(time)
                pop_n.append(len(position))
            continue

        pid = payload
        site = position.get(pid)
        if site is None:
            continue  # stale clock of a dead particle

        if rank == 1:  # branch: the children take the parent's place on its site
            n_children = bisect_left(q_cdf, st.uniform())
            if len(position) - 1 + n_children > max_alive:
                capped, cap_time = True, time
                break
            if record_events:
                events.append(new(Event, (time, "branch", pid, site)))
            del position[pid]
            group = occupancy[site]
            group.discard(pid)
            # children need no disaster lookup: the parent sat here unstruck since it
            # arrived, so the site's next disaster, if any, is on the heap already
            for j in range(n_children):
                child = pid + (j,)
                cst = ParticleStream(st.child_key(j))
                records.append(child)
                position[child] = site
                group.add(child)
                if record_events:
                    events.append(new(Event, (time, "birth", child, site)))
                heappush(heap, (time + cst.exponential(birth_rate), 1, tick(), child, cst))
                heappush(heap, (time + cst.exponential(jump_rate), 2, tick(), child, cst))
            if not group:
                del occupancy[site]
            pop_t.append(time)
            pop_n.append(len(position))
            continue

        # jump
        k = min(int(st.uniform() * n_dirs), n_dirs - 1)
        axis = k >> 1
        x = site[axis] + (1 if k & 1 else -1)
        new_site = (x,) if n_dirs == 2 else site[:axis] + (x,) + site[axis + 1:]
        group = occupancy[site]
        group.discard(pid)
        if not group:
            del occupancy[site]
        # the particle was inside trunc, so only the coordinate it moved can leave it
        if trunc is not None and not lo[axis] <= x <= hi[axis]:
            if record_events:
                events.append(new(Event, (time, "leave", pid, new_site)))
            del position[pid]
            pop_t.append(time)
            pop_n.append(len(position))
            continue
        ts = disasters.get(new_site)
        if ts is None:
            ts = disasters[new_site] = window(new_site, start_time, window_end)
        i = bisect_right(ts, time)
        # a pending disaster has not fired yet, so it is still the first after `time`
        if i < len(ts) and new_site not in pending:
            pending.add(new_site)
            heappush(heap, (ts[i], 0, tick(), new_site, None))
        if record_events:
            events.append(new(Event, (time, "jump", pid, new_site)))
        if i and ts[i - 1] == time:  # post-jump tie rule: a disaster at the arrival instant kills
            if record_events:
                events.append(new(Event, (time, "disaster", pid, new_site)))
            del position[pid]
            pop_t.append(time)
            pop_n.append(len(position))
            continue
        position[pid] = new_site
        group = occupancy.get(new_site)
        if group is None:
            occupancy[new_site] = {pid}
        else:
            group.add(pid)
        heappush(heap, (time + st.exponential(jump_rate), 2, tick(), pid, st))

    return SimResult(events, records, capped, cap_time, np.asarray(pop_t), np.asarray(pop_n),
                     tuple(sorted(position.items())))


# ---------------------------------------------------------------------------
# replica-batch engine
# ---------------------------------------------------------------------------

# The batch engine draws lives in numpy blocks of at most _BLOCK_CELLS cells
# (particle x jump column), at most _JUMP_COLUMNS columns a step.  It holds
# about _LIVE_BLOCKS blocks of particles, and reserves each running replica
# the rows of its expected population, at most _REPLICA_ROWS.
_BLOCK_CELLS = 1 << 12
_JUMP_COLUMNS = 8
_LIVE_BLOCKS = 2
_REPLICA_ROWS = 32

# How a particle's life ends.  The first three are the heap loop's tie order
# at one instant: disaster, then branch, then a jump (whose arrival may be struck).
_DISASTER, _BRANCH, _STRUCK, _SURVIVES = 0, 1, 2, 3


class ReplicaOutcome(NamedTuple):
    capped: np.ndarray  # bool per replica: a cap tripped
    alive: np.ndarray  # bool per replica: final_count > 0 (True when capped)
    final_count: np.ndarray  # int per replica: particles alive at the horizon (if not capped)
    home_count: np.ndarray  # int per replica: those of them on a site of `initial` (if not capped)
    peak_live: int  # the most particles the engine held at once


def survive_replicas(params: BRWParams, initial: Mapping[Site, int], env_seeds, tree_seeds,
                     horizon: float, *, start_time: float = 0.0, caps: Caps = Caps()) -> ReplicaOutcome:
    """simulate's capped flag and population at the horizon for many replicas at once.

    Replica i is simulate(params, initial, DisasterField(env_seeds[i],
    params.disaster_rate, params.dimension), start_time, horizon,
    tree_seeds[i], caps=caps); the module docstring says why the answers are
    the same.  The seeds are sequences of ints or uint64 arrays, and replicas
    may share an env seed.  The counts mean nothing for capped replicas.
    """
    return _ReplicaBatch(params, initial, env_seeds, tree_seeds, start_time, horizon, caps).run()


def replicas_in_fields(params: BRWParams, fields, tree_seeds, start_time: float, horizon: float,
                       caps: Caps) -> list[ReplicaOutcome]:
    """survive_replicas for one particle at the origin per tree seed, for several fields at once.

    tree_seeds[i] holds the tree seeds of fields[i]; every tree of every
    field runs in one batch, whose answers do not depend on which replicas
    run together, and one outcome per field comes back (peak_live is the
    batch's).  The engine rebuilds each field from its seed, so the fields
    must be DisasterFields of params' disaster rate and dimension
    (ValueError otherwise).  Raises CapTripped, naming the first field that
    has a capped tree: the callers' statistics need every tree's population.
    """
    if len(fields) != len(tree_seeds) or not all(
            isinstance(f, DisasterField) and f.rate == params.disaster_rate
            and f.dimension == params.dimension for f in fields):
        raise ValueError("trees in fields need one DisasterField with params' disaster rate "
                         "and dimension per tree-seed sequence")
    tree_seeds = [np.asarray(t, dtype=np.uint64) for t in tree_seeds]
    sizes = [len(t) for t in tree_seeds]
    env_seeds = np.repeat(np.array([f.seed & _M64 for f in fields], dtype=np.uint64), sizes)
    out = survive_replicas(params, {(0,) * params.dimension: 1}, env_seeds,
                           np.concatenate(tree_seeds), horizon, start_time=start_time, caps=caps)
    cuts = np.add.accumulate(sizes)[:-1]
    per_field = [ReplicaOutcome(*cols, out.peak_live) for cols in
                 zip(*(np.split(col, cuts) for col in out[:4]))]
    for i, o in enumerate(per_field):
        if o.capped.any():
            raise CapTripped(f"a tree in field {i} tripped a population or event cap; raise caps")
    return per_field


class _ReplicaBatch:
    """Replica states, and the pool: one row per drawn particle whose end is not yet applied.

    A pool row is a death, or a branch whose children are born once it is
    spawned (`open` until then), with the first disaster its children meet
    (`next`).  A replica's `checked` time is the earliest open branch it
    has: every event before it is known, and has been applied.  The pool
    is a dict of exact-length columns: _resolve appends the new rows, and
    _settle keeps the rows whose end is still to be applied.
    """

    def __init__(self, params, initial, env_seeds, tree_seeds, start_time, horizon, caps):
        start_time, horizon = float(start_time), float(horizon)
        if not (math.isfinite(horizon) and 0.0 <= start_time <= horizon):
            raise ValueError("need 0 <= start_time <= horizon and a finite horizon")
        env_seeds = np.asarray(env_seeds, dtype=np.uint64)
        tree_seeds = np.asarray(tree_seeds, dtype=np.uint64)
        if env_seeds.shape != tree_seeds.shape or env_seeds.ndim != 1 or len(env_seeds) < 1:
            raise ValueError("need one env seed and one tree seed per replica, at least one replica")
        d = params.dimension
        sites = sorted(initial)
        counts = [int(initial[s]) for s in sites]
        if any(c < 0 for c in counts) or sum(counts) < 1:
            raise ValueError("a process start needs counts >= 0 and at least one particle")
        if any(len(s) != d for s in sites):
            raise ValueError("initial sites and params dimensions differ")
        self.root_sites = np.repeat(np.array(sites, dtype=np.int64).reshape(-1, d), counts, axis=0)
        # start sites, for home_count; not np.unique(axis=0), which imports numpy.ma (~2 MB)
        self.home_sites = np.array([s for s, c in zip(sites, counts) if c], dtype=np.int64).reshape(-1, d)
        n = self.n = len(env_seeds)
        seeds, self.field_of = np.unique(env_seeds, return_inverse=True)  # replica -> its field
        self.field_base = np.array([DisasterField(s, params.disaster_rate, d).base_key
                                    for s in seeds.tolist()], dtype=np.uint64)
        self.tree_base = mix64(tree_seeds)
        self.params, self.initial, self.caps = params, initial, caps
        self.env_seeds, self.tree_seeds = env_seeds, tree_seeds
        self.start_time, self.horizon = start_time, horizon
        self.cdf = np.asarray(params.offspring_cdf)
        growth = params.birth_rate * (params.offspring_mean - 1.0)
        self.lookahead = 1.0 / growth if growth > 0.0 else math.inf
        # rows held for each running replica: its disaster-free mean population
        # at the horizon, within [1, _REPLICA_ROWS]
        mean = len(self.root_sites) * math.exp(min(growth * (horizon - start_time),
                                                   math.log(_REPLICA_ROWS)))
        self.reserve = min(max(math.ceil(mean), 1), _REPLICA_ROWS)
        self.streams = PackedStreams(params.disaster_rate, horizon, _BLOCK_CELLS)
        self.state = np.zeros(n, dtype=np.int8)  # 0 waiting, 1 running, 2 done
        self.alive = np.zeros(n, dtype=np.int64)  # alive once every checked event is applied
        self.home = np.zeros(n, dtype=np.int64)  # particles outliving the horizon on a start site
        self.limit = np.zeros(n)  # branches up to it may be spawned: checked + lookahead * room
        self.work = np.zeros(n, dtype=np.int64)  # 3 * particles + 2 * jumps drawn so far
        self.capped = np.zeros(n, dtype=bool)
        self.rerun = np.zeros(n, dtype=bool)
        self.next = 0
        self.pool = {"rep": np.empty(0, dtype=np.int32), "time": np.empty(0),
                     "rank": np.empty(0, dtype=np.int8), "nc": np.empty(0, dtype=np.int32),
                     "key": np.empty(0, dtype=np.uint64), "site": np.empty((0, d), dtype=np.int64),
                     "next": np.empty(0), "open": np.empty(0, dtype=bool)}

    def run(self) -> ReplicaOutcome:
        peak = 0
        while self.next < self.n or (self.state == 1).any():
            births = [self._admit(), self._spawn()]
            rep, key, t0, site, tau = (np.concatenate(cols) for cols in zip(*births))
            peak = max(peak, len(self.pool["rep"]) + len(rep))
            if len(rep):
                self._resolve(rep, key, t0, site, tau)
            self._settle()
        p = self.params
        homes = set(map(tuple, self.home_sites.tolist()))
        for i in np.flatnonzero(self.rerun):  # the event cap could have tripped: ask the heap loop
            field = DisasterField(int(self.env_seeds[i]), p.disaster_rate, p.dimension)
            res = simulate(p, self.initial, field, self.start_time, self.horizon,
                           int(self.tree_seeds[i]), caps=self.caps, record_events=False)
            self.capped[i], self.alive[i] = res.capped, res.final_count
            self.home[i] = sum(site in homes for _pid, site in res.final_alive)
        return ReplicaOutcome(self.capped, self.capped | (self.alive > 0), self.alive, self.home, peak)

    def _admit(self):
        """Start waiting replicas while the pool holds under half its budget of rows,
        with `reserve` rows of that budget for each running replica.

        Roots are the only particles whose first disaster after birth is looked up.
        """
        budget = _LIVE_BLOCKS * _BLOCK_CELLS
        running = int(np.count_nonzero(self.state == 1))
        room = min((budget // 2 - len(self.pool["rep"])) // len(self.root_sites),
                   budget // self.reserve - running)
        if not running:
            room = max(room, 1)
        k = min(max(room, 0), self.n - self.next)
        n0 = len(self.root_sites)
        idx = np.arange(self.next, self.next + k, dtype=np.int32)
        self.next += k
        self.state[idx] = 1
        self.alive[idx] = n0
        self.limit[idx] = self.start_time + self.lookahead
        self.work[idx] = 3 * n0
        rep = np.repeat(idx, n0)
        lineage = np.tile(np.arange(n0, dtype=np.uint64), k)
        key = mix64(self.tree_base[rep] ^ (lineage + np.uint64(GOLDEN)))  # fold(base, lineage)
        t0, site = np.full(len(rep), self.start_time), np.tile(self.root_sites, (k, 1))
        return rep, key, t0, site, self._first_disaster(rep, site, np.nextafter(t0, np.inf))

    def _spawn(self):
        """Children of the open branches up to `limit`, with their parents' next disasters.

        Oldest replicas first: a replica takes part only if it, its children
        and the replicas before it stay within the budget of rows (the first
        always does); the others wait a round.
        """
        pool = self.pool
        rep = pool["rep"]
        due = pool["open"] & (pool["time"] <= self.limit[rep])
        run = np.flatnonzero(self.state == 1)
        rows = (np.bincount(rep, minlength=self.n)
                + np.bincount(rep[due], weights=pool["nc"][due], minlength=self.n))[run]
        take = np.zeros(self.n, dtype=bool)
        take[run[np.add.accumulate(rows) <= _LIVE_BLOCKS * _BLOCK_CELLS]] = True
        take[run[:1]] = True
        sel = np.flatnonzero(due & take[rep])
        pool["open"][sel] = False
        nc = pool["nc"][sel]
        par = np.repeat(sel, nc)
        j = np.arange(len(par)) - np.repeat(np.add.accumulate(nc) - nc, nc)
        key = mix64(pool["key"][par] ^ (j.astype(np.uint64) + np.uint64(GOLDEN)))  # child_key(j)
        kids = rep[par]
        self.work += 3 * np.bincount(kids, minlength=self.n)
        return kids, key, pool["time"][par], pool["site"][par], pool["next"][par]

    def _resolve(self, rep, key, t0, site, tau) -> None:
        """Draw the lives of newborn particles, _BLOCK_CELLS at a time, into the pool."""
        parts = []
        for lo in range(0, len(rep), _BLOCK_CELLS):
            sl = slice(lo, lo + _BLOCK_CELLS)
            parts.append((rep[sl], key[sl], *self._lives(rep[sl], key[sl], t0[sl], site[sl], tau[sl])))
        rep, key, time, rank, nc, site, jumps, nxt = (np.concatenate(c) for c in zip(*parts))
        self.work += 2 * np.bincount(rep, weights=jumps, minlength=self.n).astype(np.int64)
        ends = rank != _SURVIVES
        out = np.flatnonzero(~ends)
        home = (site[out, None, :] == self.home_sites).all(axis=2).any(axis=1)
        self.home += np.bincount(rep[out[home]], minlength=self.n)
        rows = {"rep": rep, "time": time, "rank": rank, "nc": nc, "key": key, "site": site,
                "next": nxt, "open": (rank == _BRANCH) & (nc > 0)}
        self.pool = {name: np.concatenate((self.pool[name], col[ends])) for name, col in rows.items()}

    def _lives(self, rep, key, t0, site, tau):
        """Each particle's life to its end: (time, rank, children, site, jumps, next).

        tau is the first disaster at the birth site after t0.  The draws:
        counter 0 the branch gap, 1 the first jump gap, then a (direction,
        gap) pair per jump, and the offspring uniform after j jumps at 2 + 2
        j.  It dies at the first disaster at its site in (t0, e] at birth and
        in [a, e] after a jump at a, where e is its next jump, its branch or
        the horizon; a disaster at a is the arrival kill.  `next` is the first
        disaster at or after its last arrival (tau if it never jumped).
        """
        p, horizon = self.params, self.horizon
        d, n_dirs = p.dimension, 2 * p.dimension
        t_branch = t0 + counter_exponential(key, 0, p.birth_rate)
        t_jump = t0 + counter_exponential(key, 1, p.jump_rate)
        lim = np.minimum(t_branch, horizon)
        dead = tau <= np.minimum(t_jump, lim)
        end = np.where(dead, tau, lim)
        rank = np.where(dead, _DISASTER, np.where(t_branch <= horizon, _BRANCH, _SURVIVES)).astype(np.int8)
        end_site, nxt = site.copy(), tau.copy()
        jumps = np.zeros(len(key), dtype=np.int64)
        act = np.flatnonzero(~dead & (t_jump < t_branch) & (t_jump <= horizon))
        here, at0 = site[act], t_jump[act]
        col = 1  # jump number of the block's first column
        while len(act):
            w = max(1, min(_JUMP_COLUMNS, _BLOCK_CELLS // len(act)))
            u = counter_uniform(key[act, None], 2 * col + np.arange(2 * w))
            # running sums by np.add.accumulate, here and below: numpy 2.4's cumsum
            # keeps a small object per call
            times = np.add.accumulate(
                np.concatenate((at0[:, None], -np.log(u[:, 1::2]) / p.jump_rate), axis=1), axis=1)
            pick = np.minimum((u[:, 0::2] * n_dirs).astype(np.int64), n_dirs - 1)
            step = (pick & 1) * 2 - 1
            moves = np.zeros((len(act), w, d), dtype=np.int64)
            for c in range(d):
                moves[:, :, c] = np.where(pick >> 1 == c, step, 0)
            sites = here[:, None, :] + np.add.accumulate(moves, axis=1)
            at = times[:, :w]
            made = (at < t_branch[act, None]) & (at <= horizon)
            stop = np.minimum(times[:, 1:], lim[act, None])
            strike = np.full(at.shape, np.inf)  # first disaster from each arrival on
            r, c = np.nonzero(made)
            strike[r, c] = self._first_disaster(rep[act[r]], sites[r, c], at[r, c])
            # every row of `act` is written; rows that jump on are written again later
            hit = strike <= stop
            struck = hit.any(axis=1)
            rows = np.arange(len(act))
            first = hit.argmax(axis=1)
            t_hit = strike[rows, first]
            n_made = made.sum(axis=1)
            last = np.where(struck, first, n_made - 1)  # column of the last site reached
            reached, last = last >= 0, np.maximum(last, 0)
            end[act] = np.where(struck, t_hit, end[act])
            rank[act] = np.where(struck, np.where(t_hit == at[rows, first], _STRUCK, _DISASTER), rank[act])
            jumps[act] = np.where(struck, col + first, col - 1 + n_made)
            end_site[act] = np.where(reached[:, None], sites[rows, last], here)
            nxt[act] = np.where(reached, strike[rows, last], nxt[act])
            go = ~struck & (n_made == w)
            act, here, at0 = act[go], sites[go, -1], times[go, -1]
            col += w
        u = counter_uniform(key, 2 + 2 * jumps)
        nc = np.where(rank == _BRANCH, np.searchsorted(self.cdf, u, side="left"), 0).astype(np.int32)
        return end, rank, nc, end_site, jumps, nxt

    def _first_disaster(self, rep, coords, a) -> np.ndarray:
        """First disaster time >= a at each row's site, in its replica's field; inf if none."""
        field = self.field_of[rep]
        return self.streams.first_from(site_keys_at(self.field_base[field], coords), field, a)

    def _settle(self) -> None:
        """Apply every event before each replica's checked time, in the heap loop's order,
        and set its spawn window.

        A replica stops at its first branch with alive - 1 + children >
        max_alive (capped), when nothing open is left (done), or when its
        work bound passes max_events (rerun on the heap loop).
        """
        pool, n = self.pool, self.n
        rep, time, is_open = pool["rep"], pool["time"], pool["open"]
        checked = np.full(n, np.inf)
        np.minimum.at(checked, rep[is_open], time[is_open])
        due = time < checked[rep]
        idx = np.flatnonzero(due)
        tripped = np.zeros(n, dtype=bool)
        if len(idx):
            idx = idx[np.lexsort((pool["rank"][idx], time[idx], rep[idx]))]
            ev, nc = rep[idx], pool["nc"][idx]
            branch = pool["rank"][idx] == _BRANCH
            delta = np.where(branch, nc - 1, -1)
            before = np.add.accumulate(delta) - delta
            first = np.flatnonzero(np.r_[True, ev[1:] != ev[:-1]])
            before -= np.repeat(before[first], np.diff(np.r_[first, len(ev)]))
            trip = branch & (self.alive[ev] + before - 1 + nc > self.caps.max_alive)
            tripped[ev[trip]] = True
            self.alive += np.bincount(ev, weights=delta, minlength=n).astype(np.int64)
        running = self.state == 1
        rerun = running & ~tripped & (self.work > self.caps.max_events)
        done = running & ~tripped & ~rerun & (checked == np.inf)
        self.capped |= tripped
        self.rerun |= rerun
        self.state[tripped | rerun | done] = 2
        alive = np.maximum(self.alive, 1)
        room = np.clip((self.caps.max_alive - alive) / alive, 1 / 64, 1.0)
        self.limit = np.where(running, checked + self.lookahead * room, self.limit)
        keep = ~due & (self.state[rep] != 2)
        self.pool = {name: col[keep] for name, col in pool.items()}
        # a field's streams go once none of its replicas waits or runs
        self.streams.drop(np.bincount(self.field_of, weights=self.state != 2,
                                      minlength=len(self.field_base)) == 0)


# ---------------------------------------------------------------------------
# replica-level estimators
# ---------------------------------------------------------------------------

def survival_frequency(params: BRWParams, horizon: float, n_reps: int, seed: int,
                       *, caps: Caps = Caps(max_alive=10_000, max_events=5_000_000)) -> SurvivalEstimate:
    """Fraction of independent (environment, tree) replicas alive at `horizon`.

    Each replica starts from one particle at the origin.  The replicas run
    on the batch engine (survive_replicas), which gives simulate's answers
    without its heap loop.  A replica that trips the population cap is
    counted as surviving: it held `max_alive` particles at the trip time, and
    dying out from there has probability at most (single-particle
    extinction)^max_alive.  The cap fraction is reported so callers can judge
    that reading.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    seeds = [derive_seeds(n_reps, seed, label) for label in ("bsurv-env", "bsurv-tree")]
    out = survive_replicas(params, {(0,) * params.dimension: 1}, *seeds, horizon, caps=caps)
    survived = int(np.count_nonzero(out.alive))
    capped = int(np.count_nonzero(out.capped))
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


def moment_identity_check(params: BRWParams, fields, t: float, n_reps: int, seeds,
                          *, caps: Caps = Caps(max_alive=100_000, max_events=10_000_000)) -> list[Comparison]:
    """Compare mean population at t against growth-factor-scaled survival, per field.

    In a fixed environment, the expected number of alive particles at time t
    equals exp(birth_rate*(mean-1)*t) times the single-particle survival
    probability, so the two Monte Carlo estimates target one number.
    fields[i] gets n_reps trees and n_reps walkers seeded from seeds[i].
    The trees of all fields run as one batch on the batch engine
    (replicas_in_fields), so the fields must be DisasterFields of params'
    rate and dimension; the walkers run per field.  Raises CapTripped when a
    tree trips `caps`: a capped size would bias lhs.
    """
    if t == 0.0:
        return [Comparison(lhs=1.0, lhs_se=0.0, rhs=1.0, rhs_se=0.0) for _ in fields]
    outs = replicas_in_fields(params, fields, [derive_seeds(n_reps, s, "moment-tree") for s in seeds],
                              0.0, t, caps)
    factor = math.exp(params.birth_rate * (params.offspring_mean - 1.0) * t)
    checks = []
    for field, seed, out in zip(fields, seeds, outs):
        sizes = out.final_count.astype(np.float64)
        lhs_se = float(sizes.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
        surv = estimate_survival(field, params.jump_rate, t, n_reps, False,
                                 derive_seed(seed, "moment-walk"))
        checks.append(Comparison(lhs=float(sizes.mean()), lhs_se=lhs_se, rhs=factor * surv.value,
                                 rhs_se=factor * surv.std_err))
    return checks


@dataclass(frozen=True)
class GrowthEstimate:
    slope: float
    std_err: float
    n_survivors: int
    cap_fraction: float


def growth_rate(params: BRWParams, horizon: float, n_reps: int, seed: int,
                *, caps: Caps = Caps(max_alive=10_000, max_events=5_000_000)) -> GrowthEstimate | None:
    """Mean least-squares slope of log population over each survivor's tail window.

    The window is the last half of the replica's observed span
    (capped runs end at the cap time).  Returns None when no replica survives.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
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
        lo = t_end * 0.5
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

