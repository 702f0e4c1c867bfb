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
from typing import Iterable

import numpy as np

from .brw import BRWParams, Box, Caps, CapTripped, Event, block_config, cube_sites, simulate
from .env import DisasterField
from .rng import as_generator, derive_seed
from .walk import SurvivalEstimate

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
    occupied.  Monotone in the occupancy field.
    """
    rows = occupied.shape[0] - 1
    open_ = np.zeros_like(occupied, dtype=bool)
    open_[0, 0] = True
    for k in range(1, rows + 1):
        reach = open_[k - 1].copy()
        reach[1 : k + 1] |= open_[k - 1, 0:k]
        open_[k, : k + 1] = occupied[k, : k + 1] & reach[: k + 1]
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
                         window: SpaceTimeWindow, dimension: int):
    """Earliest (t, x) in `window` where every site of x + block holds >= copies_root^2 particles.

    Scans the event log: counts only change at events, so the predicate is
    evaluated at the window opening and after each batch of events sharing a
    timestamp (states inside one instant are transient, not real states).
    Anchors filling at one instant resolve in lexicographic order.  Returns
    None when no placement fills up within the window.
    """
    need = copies_root * copies_root
    offsets = cube_sites(block_radius, dimension)
    lo, hi = window.x_lo, window.x_hi

    counts: dict[Site, int] = {}
    saturated: set[Site] = set()
    pending: set[Site] = set()
    pos: dict = {}

    def anchors_of(site: Site):
        for off in offsets:
            x = tuple(s - o for s, o in zip(site, off))
            if all(a <= c <= b for c, a, b in zip(x, lo, hi)):
                yield x

    def block_full(x: Site) -> bool:
        return all(tuple(x[i] + o[i] for i in range(dimension)) in saturated for o in offsets)

    def bump(site: Site, delta: int) -> None:
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

    def first_full(cands) -> Site | None:
        for x in sorted(cands):
            if block_full(x):
                return x
        return None

    def scan_all() -> Site | None:
        from itertools import product

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
    occupied = np.zeros((rows + 1, rows + 1), dtype=bool)
    flagged = []
    for k in range(rows + 1):
        for l in range(k + 1):
            win = staircase_window(k, l, half_width, period, d)
            if res.capped and res.cap_time is not None and win.t_hi >= res.cap_time:
                flagged.append(k)
            hit = detect_occupied_copy(res.events, block_radius, copies_root, win, d)
            occupied[k, l] = hit is not None
    occupied[0, 0] = True  # root; openness of (0,0) is unconditional anyway
    return PercLattice(rows=rows, occupied=occupied, flagged_rows=tuple(sorted(set(flagged))))


# ---------------------------------------------------------------------------
# independent reference percolation
# ---------------------------------------------------------------------------

def independent_perc(p: float, rows: int, n_reps: int, rng,
                     uniforms: np.ndarray | None = None) -> SurvivalEstimate:
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
    hits = 0
    for i in range(n_reps):
        occ = uniforms[i] < p
        open_row = np.zeros(rows + 2, dtype=bool)
        open_row[0] = True
        for k in range(1, rows + 1):
            reach = open_row.copy()
            reach[1:] |= open_row[:-1]
            nxt = np.zeros_like(open_row)
            nxt[: k + 1] = occ[k, : k + 1] & reach[: k + 1]
            open_row = nxt
        hits += bool(open_row.any())
    return SurvivalEstimate.binomial(hits / n_reps, n_reps)


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
                          seed: int, *, truncated: bool = True,
                          caps: Caps = Caps(max_alive=20_000, max_events=2_000_000)) -> np.ndarray:
    """One lattice-row occupancy bit per start, n_bits starts sharing each environment.

    Bit l starts a full block at first coordinate 4*L*l and asks whether a
    copy re-forms one staircase step down-left within five periods.  With
    `truncated`, each start's particles are confined to its own +-5L slab,
    so bits at horizontal distance > 2 read disjoint sets of disaster
    streams and are exactly independent; without truncation particles from
    different starts may overlap and correlate.  Raises CapTripped when a run
    trips `caps`: its event log stops at the trip, so its bit would be biased.
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
            if truncated:
                lo = (center - 5 * L,) + (-5 * L,) * (d - 1)
                hi = (center + 5 * L,) + (5 * L,) * (d - 1)
                region = Box(lo=lo, hi=hi)
            else:
                region = None
            res = simulate(params, start, fld, 0.0, 6.0 * period,
                           derive_seed(seed, "probe-tree", i, l), trunc=region, caps=caps)
            if res.capped:
                raise CapTripped("population cap tripped while sampling occupancy bits")
            target_c = center - 2 * L
            win = SpaceTimeWindow(t_lo=5.0 * period, t_hi=6.0 * period,
                                  x_lo=(target_c - L,) + (-L,) * (d - 1),
                                  x_hi=(target_c + L,) + (L,) * (d - 1))
            bits[i, l] = detect_occupied_copy(res.events, block_radius, copies_root, win, d) is not None
    return bits
