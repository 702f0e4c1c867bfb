"""Space-time boxes, orthant exit counters, and correlation checks.

A box is [0, T] x {-L..L}^d, based at the origin.  Its boundary is the top
slice at time T plus the 2d faces where one coordinate equals +-L; the
bottom slice is not boundary.  The top splits into 2^d orthants (sign of
the first coordinate, then signs of the rest) and each face into 2^(d-1)
orthants, with sign(0) = +1 throughout.

Exit counters follow first-hit semantics on the particle tree: a particle's
trajectory includes its ancestors' path, so a lineage contributes at most
one face hit, and only particles whose whole ancestral path avoided the
boundary before T are counted on the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .brw import BRWParams, Box, Caps, CapTripped, Event, simulate
from .env import DisasterField
from .rng import derive_seed

Site = tuple[int, ...]


def sign_of(v: int) -> int:
    """Sign with sign(0) = +1."""
    return 1 if v >= 0 else -1


@dataclass(frozen=True)
class SpaceTimeBox:
    half_width: int
    height: float
    dimension: int

    def __post_init__(self):
        if self.half_width < 1 or self.height <= 0.0 or self.dimension < 1:
            raise ValueError("need half_width >= 1, height > 0, dimension >= 1")

    @property
    def t_end(self) -> float:
        return self.height

    def interior_region(self) -> Box:
        """Sites strictly inside (never on a face); leaving it means hitting a face."""
        w = self.half_width - 1
        return Box(lo=(-w,) * self.dimension, hi=(w,) * self.dimension)


@dataclass(frozen=True)
class ExitRegion:
    kind: str  # "top" or "face"
    axis: int  # 0 for top; face normal axis otherwise
    sign: int  # sign of the distinguished coordinate
    theta: tuple[int, ...]  # orthant signs of the remaining d-1 coordinates

    def __post_init__(self):
        if self.kind not in ("top", "face"):
            raise ValueError("kind must be 'top' or 'face'")
        if self.kind == "top" and self.axis != 0:
            raise ValueError("top regions are signed along the first axis")
        if self.sign not in (-1, 1) or any(t not in (-1, 1) for t in self.theta):
            raise ValueError("signs must be +-1")


class _Regions(NamedTuple):
    top: tuple[ExitRegion, ...]
    face: tuple[ExitRegion, ...]
    top_at: dict  # signs of the site -> its top region
    face_at: dict  # (axis, *signs) -> the region of the face normal to axis


@lru_cache(maxsize=None)
def _regions(dimension: int) -> _Regions:
    """Every exit region of a dimension, built and validated once."""
    thetas = list(iter_product((1, -1), repeat=dimension - 1))
    top = tuple(ExitRegion("top", 0, s, th) for s in (1, -1) for th in thetas)
    face = tuple(ExitRegion("face", ax, s, th) for ax in range(dimension) for s in (1, -1)
                 for th in thetas)
    top_at = {(r.sign, *r.theta): r for r in top}
    face_at = {(r.axis, *r.theta[:r.axis], r.sign, *r.theta[r.axis:]): r for r in face}
    return _Regions(top, face, top_at, face_at)


def top_regions(dimension: int) -> list[ExitRegion]:
    return list(_regions(dimension).top)


def face_regions(dimension: int) -> list[ExitRegion]:
    return list(_regions(dimension).face)


def _signs(site: Site) -> tuple[int, ...]:
    return tuple([sign_of(c) for c in site])


def _face_of(regions: _Regions, site: Site, L: int) -> ExitRegion:
    """Face region of a site on the shell; the smallest axis wins at edges."""
    for ax, c in enumerate(site):
        if abs(c) == L:
            return regions.face_at[(ax, *_signs(site))]
    raise ValueError("point is interior, not on the boundary")


def classify_exit(box: SpaceTimeBox, t: float, site: Site) -> ExitRegion:
    """Unique boundary region containing (t, site).

    Precondition: the point lies on the boundary (t == t_end with the site
    inside the closed box, or t in [0, t_end) with sup-norm distance exactly
    half_width).  At edges shared by several faces the smallest axis wins,
    and the top takes precedence at t == t_end; both ties are unreachable by
    first hits of lattice paths.
    """
    L = box.half_width
    if any(abs(c) > L for c in site):
        raise ValueError("site outside the box")
    if t == box.t_end:
        return _regions(box.dimension).top_at[_signs(site)]
    if not (0.0 <= t < box.t_end):
        raise ValueError("time outside the box")
    return _face_of(_regions(box.dimension), site, L)


@dataclass
class ExitCounts:
    box: SpaceTimeBox
    top: dict
    face: dict

    def top_vector(self) -> np.ndarray:
        return np.array([self.top[r] for r in _regions(self.box.dimension).top], dtype=np.int64)

    def face_vector(self) -> np.ndarray:
        return np.array([self.face[r] for r in _regions(self.box.dimension).face], dtype=np.int64)


def exit_counts(events: Iterable[Event], box: SpaceTimeBox,
                log_horizon: float | None = None) -> ExitCounts:
    """First-hit face counts and untouched-survivor top counts from a log.

    The log must cover [0, box.t_end]; pass the simulation horizon as
    `log_horizon` to have that verified.  Children inherit the ancestral
    first-touch, so a lineage that touched the boundary contributes nothing
    afterwards; a shell landing exactly at t_end is not a strict-past touch
    and the particle counts on the top.
    """
    if log_horizon is not None and log_horizon < box.t_end:
        raise ValueError("event log ends before the box does")
    L, t_end = box.half_width, box.t_end
    regions = _regions(box.dimension)
    tops = dict.fromkeys(regions.top, 0)
    faces = dict.fromkeys(regions.face, 0)
    pos: dict = {}
    touched: set = set()  # particles whose ancestral path has met the boundary

    for time, kind, pid, site in events:
        if time > t_end:
            break
        if kind == "birth":
            pos[pid] = site
            if len(pid) > 1 and pid[:-1] in touched:
                touched.add(pid)
        elif kind == "jump" or kind == "leave":
            pos[pid] = site
        else:  # branch, disaster
            pos.pop(pid, None)
            continue
        if time < t_end and pid not in touched:
            d = max(map(abs, site))
            if d == L:
                faces[_face_of(regions, site, L)] += 1
            if d >= L:  # a first arrival on the shell or beyond it
                touched.add(pid)
        if kind == "leave":
            del pos[pid]
    for pid, site in pos.items():
        if pid not in touched and max(map(abs, site)) <= L:
            tops[regions.top_at[_signs(site)]] += 1
    return ExitCounts(box=box, top=tops, face=faces)


# ---------------------------------------------------------------------------
# positive-correlation (FKG) test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceEstimate:
    cov: float
    std_err: float
    mean_f: float
    mean_g: float
    n_reps: int


def fkg_test(params: BRWParams, eta1: Mapping[Site, int], eta2: Mapping[Site, int],
             box: SpaceTimeBox, f: Callable, g: Callable, n_reps: int, seed: int,
             *, caps: Caps = Caps(max_alive=50_000, max_events=5_000_000)) -> CovarianceEstimate:
    """Covariance of monotone exit functionals of two trees sharing environments.

    Per replica one environment is drawn; two independent trees start from
    eta1 and eta2 in it, and f, g (nonnegative, coordinate-wise nondecreasing
    in the exit-count vectors; not checked) are evaluated on their counters.
    Shared disasters are the only coupling, and they hurt both trees, so the
    covariance target is nonnegative.  Both trees run truncated to the box
    interior, which leaves exit counts untouched: a lineage is dead to the
    counters once it hits the shell.
    """
    for eta in (eta1, eta2):
        for site, cnt in eta.items():
            if cnt > 0 and max(abs(c) for c in site) >= box.half_width:
                raise ValueError("initial configurations must start strictly inside the box")
    region = box.interior_region()
    fs = np.empty(n_reps)
    gs = np.empty(n_reps)
    for i in range(n_reps):
        fld = DisasterField(derive_seed(seed, "fkg-env", i), params.disaster_rate, params.dimension)
        out = []
        for label, eta in (("a", eta1), ("b", eta2)):
            res = simulate(params, eta, fld, 0.0, box.t_end,
                           derive_seed(seed, "fkg-tree", label, i), trunc=region, caps=caps)
            if res.capped:
                raise CapTripped("cap tripped inside fkg_test; shrink the box or rates")
            out.append(exit_counts(res.events, box))
        fs[i] = f(out[0].top_vector(), out[0].face_vector())
        gs[i] = g(out[1].top_vector(), out[1].face_vector())
    h = (fs - fs.mean()) * (gs - gs.mean())
    cov = float(h.sum() / (n_reps - 1)) if n_reps > 1 else 0.0
    se = float(h.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
    return CovarianceEstimate(cov=cov, std_err=se, mean_f=float(fs.mean()),
                              mean_g=float(gs.mean()), n_reps=n_reps)


# ---------------------------------------------------------------------------
# product bound for zero patterns
# ---------------------------------------------------------------------------

def zero_pattern_product_bound(joint, copies: int):
    """Check prod_i P(X_i = 0)^S <= P(all zero) + (m/(m+1))^((m+1)S).

    `joint` maps {0,1}^(m+1) patterns (tuples, or an array indexed by bit
    code) to probabilities; S = copies.  Works in exact arithmetic when fed
    Fractions.  Returns (holds, slack) with slack = rhs - lhs.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if isinstance(joint, Mapping):
        items = list(joint.items())
        width = len(items[0][0])
        probs = {tuple(int(b) for b in k): v for k, v in items}
    else:
        arr = list(joint)
        width = int(math.log2(len(arr)))
        if 2**width != len(arr):
            raise ValueError("array joint must have 2^(m+1) entries")
        probs = {tuple((i >> b) & 1 for b in range(width)): v for i, v in enumerate(arr)}
    if width < 2:
        raise ValueError("need m >= 1, i.e. at least two variables")
    total = sum(probs.values())
    exact = isinstance(total, Fraction)
    if (exact and total != 1) or (not exact and abs(total - 1.0) > 1e-9):
        raise ValueError("joint pmf must sum to 1")
    if any(v < 0 for v in probs.values()):
        raise ValueError("joint pmf must be nonnegative")
    m = width - 1
    one = Fraction(1) if exact else 1.0
    lhs = one
    for i in range(width):
        pi0 = sum(v for k, v in probs.items() if k[i] == 0)
        lhs *= pi0**copies
    all_zero = probs.get((0,) * width, 0 * one)
    extra = (Fraction(m, m + 1) if exact else m / (m + 1)) ** ((m + 1) * copies)
    rhs = all_zero + extra
    slack = rhs - lhs
    holds = lhs <= rhs if exact else lhs <= rhs + 1e-12
    return holds, slack
