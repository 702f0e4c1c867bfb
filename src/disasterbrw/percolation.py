"""Oriented site percolation comparison for the branching system.

A point (k, l) of the staircase lattice {(k, l): l <= k} is occupied when
the branching process fully re-occupies a shifted block (every site of
x + {-n..n}^d holding at least S^2 particles) somewhere inside the (k, l)
space-time box; it is open when an oriented path of occupied points leads
there from (0, 0).  An independent reference percolation with the same
geometry provides survival curves, and a truncated per-bit construction
probes the dependence range of the induced occupancy field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .brw import BRWParams, Box, Caps, CapTripped, Event, block_config, cube_sites, simulate
from .env import DisasterField
from .rng import as_generator, derive_seed
from .walk import Estimate

Site = tuple[int, ...]


# ---------------------------------------------------------------------------
# lattice container
# ---------------------------------------------------------------------------

@dataclass
class PercLattice:
    """Occupancy and open bits over rows 0..rows of the staircase lattice."""

    rows: int
    occupied: np.ndarray  # (rows+1, rows+1) bool, entry (k, l) valid for l <= k
    flagged_rows: tuple[int, ...] = ()

    def __post_init__(self):
        if self.occupied.shape != (self.rows + 1, self.rows + 1):
            raise ValueError("occupancy grid shape mismatch")

    def open_bits(self) -> np.ndarray:
        return oriented_closure(self.occupied)

    def survives_to_row(self, row: int) -> bool:
        return bool(self.open_bits()[row, : row + 1].any())

    def dump_lines(self) -> Iterable[str]:
        op = self.open_bits()
        for k in range(self.rows + 1):
            for l in range(k + 1):
                yield f"{k} {l} {int(self.occupied[k, l])} {int(op[k, l])}"


def oriented_closure(occupied: np.ndarray) -> np.ndarray:
    """Open bits: reachable from (0,0) along steps (k,l) -> (k+1, l or l+1).

    The origin is open unconditionally; every later point on a path must be
    occupied.  Monotone in the occupancy field.  Leading axes index a stack
    of lattices, each closed on its own.
    """
    rows = occupied.shape[-1] - 1
    open_ = np.zeros_like(occupied, dtype=bool)
    open_[..., 0, 0] = True
    for k in range(1, rows + 1):
        reach = open_[..., k - 1, :].copy()
        reach[..., 1 : k + 1] |= open_[..., k - 1, 0:k]
        open_[..., k, : k + 1] = occupied[..., k, : k + 1] & reach[..., : k + 1]
    return open_


# ---------------------------------------------------------------------------
# copy detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeWindow:
    t_lo: float
    t_hi: float
    x_lo: tuple[int, ...]
    x_hi: tuple[int, ...]

    def __post_init__(self):
        if self.t_lo > self.t_hi or any(a > b for a, b in zip(self.x_lo, self.x_hi)):
            raise ValueError("empty window")


def detect_occupied_copy(events: Iterable[Event], block_radius: int, copies_root: int,
                         windows: Sequence[SpaceTimeWindow], dimension: int) -> list:
    """Earliest (t, x) in each window where every site of x + block holds >= copies_root^2 particles.

    One entry per window, (t, x) or None, all from one pass over the log.
    Counts only change at events, so the exact set of full anchors is read
    only after a whole batch of events sharing a timestamp (states inside one
    instant are not real states): in full when a window opens, after every
    event at or before t_lo, then after each batch up to t_hi against the
    anchors that filled in that batch.  Anchors filling at one instant
    resolve in lexicographic order.
    """
    wins = list(windows)
    need = copies_root * copies_root
    offsets = cube_sites(block_radius, dimension)
    counts: dict[Site, int] = {}
    saturated: set[Site] = set()
    full: set[Site] = set()  # anchors whose whole block is saturated
    filled: set[Site] = set()  # anchors that joined `full` in the current batch
    pos: dict = {}
    hits = [None] * len(wins)
    to_open = sorted(range(len(wins)), key=lambda i: wins[i].t_lo, reverse=True)
    active: list[int] = []

    def first_in(i: int, anchors) -> Site | None:
        w = wins[i]
        return min((x for x in anchors if all(a <= c <= b for c, a, b in zip(x, w.x_lo, w.x_hi))),
                   default=None)

    def bump(site: Site, delta: int) -> None:
        counts[site] = c = counts.get(site, 0) + delta
        if (c >= need) == (site in saturated):
            return
        around = [tuple(s - o for s, o in zip(site, off)) for off in offsets]
        if c < need:
            saturated.discard(site)
            full.difference_update(around)
            return
        saturated.add(site)
        for x in around:
            if all(tuple(a + o for a, o in zip(x, off)) in saturated for off in offsets):
                full.add(x)
                filled.add(x)

    def open_before(t: float) -> None:
        while to_open and wins[to_open[-1]].t_lo < t:
            i = to_open.pop()
            x = first_in(i, full)
            if x is None:
                active.append(i)
            else:
                hits[i] = (wins[i].t_lo, x)

    for t, batch in groupby(events, key=attrgetter("time")):
        open_before(t)
        active[:] = [i for i in active if wins[i].t_hi >= t]
        if not (active or to_open):
            break
        for ev in batch:
            old = pos.pop(ev.pid, None)  # a jump, leave, branch or disaster empties the old site
            if old is not None:
                bump(old, -1)
            if ev.kind in ("birth", "jump"):
                pos[ev.pid] = ev.site
                bump(ev.site, +1)
        new = filled & full
        filled.clear()
        if new:
            for i in active[:]:
                x = first_in(i, new)
                if x is not None:
                    hits[i] = (t, x)
                    active.remove(i)
    open_before(math.inf)  # windows opening at or after the last event see the final state
    return hits


# ---------------------------------------------------------------------------
# lattice construction from the branching process
# ---------------------------------------------------------------------------

def staircase_window(k: int, l: int, half_width: int, period: float,
                     dimension: int) -> SpaceTimeWindow:
    """Space-time box of lattice point (k, l): times [5Tk, 5T(k+1)], first
    coordinate centered at L(4l - 2k) with half-width L, remaining
    coordinates in {-L..L}."""
    L = half_width
    c = L * (4 * l - 2 * k)
    lo = (c - L,) + (-L,) * (dimension - 1)
    hi = (c + L,) + (L,) * (dimension - 1)
    return SpaceTimeWindow(t_lo=5.0 * period * k, t_hi=5.0 * period * (k + 1), x_lo=lo, x_hi=hi)


def build_eta_from_brw(params: BRWParams, field, half_width: int, period: float,
                       block_radius: int, copies_root: int, rows: int, seed: int,
                       *, caps: Caps = Caps(max_alive=20_000, max_events=5_000_000)) -> PercLattice:
    """Occupancy lattice read off one branching run started from a full block.

    The run starts from copies_root^2 particles on every site of the centered
    block and is truncated to the spatial range spanned by all row boxes
    plus a margin; point (k, l) is occupied when the run fully re-occupies a
    shifted block inside its staircase window.  Cap trips flag every row from
    the trip time onward.
    """
    if rows > 10:
        raise ValueError("desk-scale lattice construction is limited to rows <= 10")
    d = params.dimension
    span = half_width * (2 * rows + 1) + block_radius + 2
    region = Box(lo=(-span,) * d, hi=(span,) * d)
    start = block_config(cube_sites(block_radius, d), copies_root * copies_root)
    horizon = 5.0 * period * (rows + 1)
    res = simulate(params, start, field, 0.0, horizon, seed, trunc=region, caps=caps)
    cells = [(k, l) for k in range(rows + 1) for l in range(k + 1)]
    wins = [staircase_window(k, l, half_width, period, d) for k, l in cells]
    hits = detect_occupied_copy(res.events, block_radius, copies_root, wins, d)
    occupied = np.zeros((rows + 1, rows + 1), dtype=bool)
    flagged = []
    for (k, l), win, hit in zip(cells, wins, hits):
        if res.capped and res.cap_time is not None and win.t_hi >= res.cap_time:
            flagged.append(k)
        occupied[k, l] = hit is not None
    occupied[0, 0] = True  # root; openness of (0,0) is unconditional anyway
    return PercLattice(rows=rows, occupied=occupied, flagged_rows=tuple(sorted(set(flagged))))


# ---------------------------------------------------------------------------
# independent reference percolation
# ---------------------------------------------------------------------------

def independent_perc(p: float, rows: int, n_reps: int, rng,
                     uniforms: np.ndarray | None = None) -> Estimate:
    """Survival frequency of independent oriented site percolation.

    Every point except the origin is occupied independently with probability
    p; survival means an open point in the last row.  Pass a shared
    `uniforms` array (n_reps, rows+1, rows+1) to couple estimates across p:
    occupancy is u < p, so open sets are nested in p, replica by replica.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    gen = as_generator(rng)
    if uniforms is None:
        uniforms = gen.random((n_reps, rows + 1, rows + 1))
    if uniforms.shape != (n_reps, rows + 1, rows + 1):
        raise ValueError("uniforms shape mismatch")
    hits = int(oriented_closure(uniforms < p)[:, rows].any(axis=1).sum())
    return Estimate.binomial(hits / n_reps, n_reps)


# ---------------------------------------------------------------------------
# dependence-range probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationEntry:
    left: int
    right: int
    distance: int
    corr: float
    std_err: float


def bit_correlations(bits: np.ndarray, min_distance: int) -> list[CorrelationEntry]:
    """Pearson correlations between bit columns at horizontal distance >= min_distance."""
    n_reps, n_bits = bits.shape
    out = []
    for i in range(n_bits):
        for j in range(i + min_distance, n_bits):
            a = bits[:, i].astype(np.float64)
            b = bits[:, j].astype(np.float64)
            sa, sb = a.std(), b.std()
            if sa == 0.0 or sb == 0.0:
                continue  # degenerate column: correlation undefined
            corr = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
            out.append(CorrelationEntry(left=i, right=j, distance=j - i, corr=corr,
                                        std_err=1.0 / math.sqrt(n_reps)))
    return out


def sample_occupancy_bits(params: BRWParams, half_width: int, period: float,
                          block_radius: int, copies_root: int, n_bits: int, n_reps: int,
                          seed: int,
                          *, caps: Caps = Caps(max_alive=20_000, max_events=2_000_000)) -> np.ndarray:
    """One lattice-row occupancy bit per start, n_bits starts sharing each environment.

    Bit l starts a full block at first coordinate 4*L*l and asks whether a
    copy re-forms one staircase step down-left within five periods.  Each
    start's particles are confined to its own +-5L slab, so bits at
    horizontal distance > 2 read disjoint sets of disaster streams and are
    exactly independent.  Raises CapTripped when a run trips `caps`: its
    event log stops at the trip, so its bit would be biased.
    """
    d = params.dimension
    L = half_width
    bits = np.zeros((n_reps, n_bits), dtype=bool)
    for i in range(n_reps):
        fld = DisasterField(derive_seed(seed, "probe-env", i), params.disaster_rate, d)
        for l in range(n_bits):
            center = 4 * L * l
            start = block_config([(center + s[0],) + s[1:] for s in cube_sites(block_radius, d)],
                                 copies_root * copies_root)
            region = Box(lo=(center - 5 * L,) + (-5 * L,) * (d - 1),
                         hi=(center + 5 * L,) + (5 * L,) * (d - 1))
            res = simulate(params, start, fld, 0.0, 6.0 * period,
                           derive_seed(seed, "probe-tree", i, l), trunc=region, caps=caps)
            if res.capped:
                raise CapTripped("population cap tripped while sampling occupancy bits")
            target_c = center - 2 * L
            win = SpaceTimeWindow(t_lo=5.0 * period, t_hi=6.0 * period,
                                  x_lo=(target_c - L,) + (-L,) * (d - 1),
                                  x_hi=(target_c + L,) + (L,) * (d - 1))
            (hit,) = detect_occupied_copy(res.events, block_radius, copies_root, [win], d)
            bits[i, l] = hit is not None
    return bits
