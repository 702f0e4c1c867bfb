"""Space-time boxes, orthant exit counters, and correlation checks.

A box is [0, T] x {-L..L}^d, based at the origin.  Its boundary is the top
slice at time T plus the 2d faces where one coordinate equals +-L; the
bottom slice is not boundary.

Exit counts are two int64 vectors indexed by orthant codes.  The orthant
code of a coordinate tuple has one bit per coordinate, set when that
coordinate is negative (so sign(0) = +1), the first coordinate highest.
- top, 2^d entries: entry code(site) counts particles alive at T on `site`.
- face, d 2^d entries: entry axis * 2^d + code((site[axis], *the other
  coordinates)) counts first hits of `site` on the face normal to `axis`;
  the smallest axis wins at edges.

Exit counters follow first-hit semantics on the particle tree: a particle's
trajectory includes its ancestors' path, so a lineage contributes at most
one face hit, and only particles whose whole ancestral path avoided the
boundary before T are counted on the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .brw import BRWParams, Box, Caps, CapTripped, Event, simulate
from .env import DisasterField
from .rng import derive_seeds

Site = tuple[int, ...]


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


class ExitCounts(NamedTuple):
    top: np.ndarray  # 2^d counts, by orthant code of the site
    face: np.ndarray  # d 2^d counts, by axis * 2^d + orthant code of (site[axis], *the others)


def _code(coords) -> int:
    """Orthant code: one bit per coordinate, set when it is negative, the first highest."""
    code = 0
    for c in coords:
        code = 2 * code + (c < 0)
    return code


def exit_counts(events: Iterable[Event], box: SpaceTimeBox) -> ExitCounts:
    """First-hit face counts and untouched-survivor top counts from a log.

    The log must cover [0, box.t_end].  Children inherit the ancestral
    first-touch, so a lineage that touched the boundary contributes nothing
    afterwards; a shell landing exactly at t_end is not a strict-past touch
    and the particle counts on the top.
    """
    L, t_end, d = box.half_width, box.t_end, box.dimension
    tops = [0] * 2**d
    faces = [0] * (d * 2**d)
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
            reach = max(map(abs, site))
            if reach == L:
                ax = [abs(c) for c in site].index(L)
                faces[ax * 2**d + _code((site[ax], *site[:ax], *site[ax + 1:]))] += 1
            if reach >= L:  # a first arrival on the shell or beyond it
                touched.add(pid)
        if kind == "leave":
            del pos[pid]
    for pid, site in pos.items():
        if pid not in touched and max(map(abs, site)) <= L:
            tops[_code(site)] += 1
    return ExitCounts(np.array(tops, dtype=np.int64), np.array(faces, dtype=np.int64))


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
    in the exit-count vectors; not checked) are evaluated on their counters,
    f(top, face) as exit_counts returns them.
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
    env_seeds = derive_seeds(n_reps, seed, "fkg-env").tolist()
    tree_seeds = {label: derive_seeds(n_reps, seed, "fkg-tree", label).tolist() for label in "ab"}
    for i in range(n_reps):
        fld = DisasterField(env_seeds[i], params.disaster_rate, params.dimension)
        out = []
        for label, eta in (("a", eta1), ("b", eta2)):
            res = simulate(params, eta, fld, 0.0, box.t_end, tree_seeds[label][i], trunc=region,
                           caps=caps)
            if res.capped:
                raise CapTripped("cap tripped inside fkg_test; shrink the box or rates")
            out.append(exit_counts(res.events, box))
        fs[i] = f(*out[0])
        gs[i] = g(*out[1])
    h = (fs - fs.mean()) * (gs - gs.mean())
    cov = float(h.sum() / (n_reps - 1)) if n_reps > 1 else 0.0
    se = float(h.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
    return CovarianceEstimate(cov=cov, std_err=se, mean_f=float(fs.mean()),
                              mean_g=float(gs.mean()), n_reps=n_reps)


# ---------------------------------------------------------------------------
# product bound for zero patterns
# ---------------------------------------------------------------------------

def zero_pattern_product_bound(joint: Mapping, copies: int):
    """Check prod_i P(X_i = 0)^S <= P(all zero) + (m/(m+1))^((m+1)S).

    `joint` maps {0,1}^(m+1) patterns (tuples) to probabilities; S = copies.
    Works in exact arithmetic when fed Fractions.  Returns (holds, slack)
    with slack = rhs - lhs.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    probs = {tuple(int(b) for b in k): v for k, v in joint.items()}
    width = len(next(iter(probs), ()))
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
