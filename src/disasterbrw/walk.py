"""Single-particle model: continuous-time simple random walk among disasters.

Provides quenched and annealed survival estimators on a vectorized
walk-segment kernel, an exact solver for the quenched survival probability
in dimension 1, the Lyapunov-exponent estimator for the decay rate of the
quenched survival probability, and an environment-to-environment
concentration profile of log-survival.

Conventions
-----------
* Paths are cadlag; at a jump instant the particle already sits on the new
  site, so a disaster coinciding exactly with a jump strikes the post-jump
  site.
* "Survives to t" means no disaster along the path strictly before t; a
  disaster exactly at the horizon still counts as surviving the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env import DisasterField
from .rng import as_generator, derive_seed


@dataclass(frozen=True)
class SurvivalEstimate:
    """A survival frequency over n_samples replicas; cap_fraction of them tripped a cap."""

    value: float
    n_samples: int
    std_err: float
    cap_fraction: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("survival estimate outside [0, 1]")
        if self.std_err < 0.0:
            raise ValueError("negative standard error")

    @classmethod
    def binomial(cls, value: float, n: int, cap_fraction: float = 0.0) -> "SurvivalEstimate":
        """Frequency `value` of n independent trials, with its binomial standard error."""
        return cls(value=value, n_samples=n, std_err=_binom_se(value, n), cap_fraction=cap_fraction)


@dataclass(frozen=True)
class LyapunovEstimate:
    p_hat: float
    std_err: float
    censor_fraction: float


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _check_horizon(t: float, positive: bool = False) -> None:
    """Reject a horizon that is negative, NaN or infinite (or 0 when `positive`)."""
    if not 0.0 <= t < math.inf or (positive and t == 0.0):
        raise ValueError(f"t must be finite and {'>' if positive else '>='} 0, got {t!r}")


# ---------------------------------------------------------------------------
# vectorized batch engine
# ---------------------------------------------------------------------------

_CHUNK_CELLS = 4_000_000


def _chunked(n: int, width: int):
    rows = max(1, _CHUNK_CELLS // max(width, 1))
    for lo in range(0, n, rows):
        yield lo, min(n, lo + rows)


def _jump_windows(gen: np.random.Generator, jump_rate: float, t: float, n: int, per_chunk) -> None:
    """Sorted jump times of n independent rate-`jump_rate` walks on [0, t], a chunk at a time.

    Draws the Poisson jump counts of all n walks, then splits the walkers
    into chunks of about _CHUNK_CELLS jump cells (_chunked) and calls
    per_chunk(lo, hi, times, pad) for walkers lo..hi-1 in turn.  times[i]
    holds the sorted jump times of walker lo+i in a C-contiguous (m, kmax)
    float64 array, padded with t past its last jump, and pad[i, j] marks
    column j as such a pad.  Walker lo+i thus sits out its j-th holding
    interval on [edge j, edge j+1), where edge 0 is 0, edge j is times[i,
    j-1] and edge kmax+1 is t; the intervals past the last jump are empty,
    at t.

    The chunk's uniforms are drawn only when the chunk is reached, so
    per_chunk's own draws interleave in a fixed order; and since a chunk's
    uniform matrix has the chunk's shape, _CHUNK_CELLS is part of the draw
    layout: changing it changes outputs.  Only one chunk's arrays are alive
    at a time: per_chunk gets them as arguments, so they go when it returns,
    before the next chunk is drawn.
    """
    counts = gen.poisson(jump_rate * t, n) if jump_rate > 0.0 else np.zeros(n, dtype=np.int64)
    for lo, hi in _chunked(n, int(counts.max(initial=0)) + 1):
        per_chunk(lo, hi, *_jump_times(gen, counts[lo:hi], t))


def _jump_times(gen: np.random.Generator, k: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(times, pad) of one chunk whose walkers make k jumps each; see _jump_windows.

    The uniform order statistics are drawn, scaled, padded and sorted where
    they lie.  A pad of t sorts where an inf pad would and equals it clipped
    to t, and U*t <= t, so this is the clipped sort of inf-padded times.
    """
    kmax = int(k.max(initial=0))
    times = np.empty((len(k), kmax))
    pad = np.arange(kmax)[None, :] >= k[:, None]
    if kmax:
        gen.random(out=times)
        times *= t
        times[pad] = t
        times.sort(axis=1)
    return times, pad


# Segments (walker x holding interval) checked per block; see _survival_batch.
_BLOCK_CELLS = 1 << 16


def _survival_batch(field, jump_rate: float, t: float, n_walkers: int, gen: np.random.Generator,
                    namespaces: np.ndarray | None = None):
    """Simulate n_walkers independent walks in `field` up to time t.

    Returns (survived bool[n], at_origin bool[n]).  With `namespaces`, walker
    w reads site streams at (namespaces[w], x...) so each namespace is an
    independent environment inside one (d+1)-dimensional field.

    The walkers run in the chunks of _jump_windows, one chunk's arrays alive
    at a time: the sorted jump times (padded with t), then the int8 signs,
    drawn and made -1/+1 in place with 0 past each walker's last jump, and
    for d > 1 the int8 axes.  _CHUNK_CELLS fixes the shape of those draws,
    so changing it changes outputs.

    Within a chunk the holding intervals are checked against the disasters
    in time order, a block of jump columns at a time, and only for walkers
    that no disaster has hit yet.  A block holds about _BLOCK_CELLS segments
    of the walkers still alive, so a batch that small runs as one block, and
    the cost scales with the walker-time spent alive rather than with
    n_walkers * jump_rate * t.  _hits answers every segment of a block from
    one bucket table of the block's disasters: a segment reads its site's
    first disaster at or after its start in one table read and a few steps
    on.  Which walkers survive does not depend on the blocks, and the
    draws (hence the generator's final state) do not either.
    """
    d = field.dimension - (1 if namespaces is not None else 0)
    survived = np.ones(n_walkers, dtype=bool)
    at_origin = np.zeros(n_walkers, dtype=bool)

    def per_chunk(lo, hi, times, pad):
        m, kmax = times.shape
        steps = gen.integers(0, 2, (m, kmax), dtype=np.int8)
        steps *= 2
        steps -= 1
        steps[pad] = 0
        if d == 1:
            at_origin[lo:hi] = steps.sum(axis=1) == 0
        else:
            axes = gen.integers(0, d, (m, kmax), dtype=np.int8)
            at_origin[lo:hi] = np.all([np.where(axes == c, steps, 0).sum(axis=1) == 0
                                       for c in range(d)], axis=0)

        rows = np.arange(m)  # walkers of this chunk not hit so far
        here = np.zeros((m, d), dtype=np.int64)  # their sites before the moves of column j0
        j0 = 0
        while j0 <= kmax and len(rows):
            j1 = min(kmax + 1, j0 + max(1, _BLOCK_CELLS // len(rows)))
            # edges j0..j1: edge 0 is 0, edge j is jump time j-1, edge kmax+1 is t
            first, last = max(j0, 1), min(j1, kmax)
            edges = np.empty((len(rows), j1 - j0 + 1))
            edges[:, 0] = 0.0
            edges[:, -1] = t
            edges[:, first - j0:last - j0 + 1] = times[rows, first - 1:last]
            # pos[:, j] is the site during segment j0+j, after the step of jump j0+j-1
            pos = np.empty((len(rows), j1 - j0, d), dtype=np.int64)
            pos[:] = here[:, None, :]
            # np.add.accumulate, not np.cumsum: numpy 2.4's cumsum keeps a small
            # object alive per call; int64 because add.accumulate keeps int8
            moved = steps[rows, first - 1:j1 - 1]
            if d == 1:
                pos[:, first - j0:, 0] += np.add.accumulate(moved, axis=1, dtype=np.int64)
            else:
                turned = axes[rows, first - 1:j1 - 1]
                for c in range(d):
                    pos[:, first - j0:, c] += np.add.accumulate(np.where(turned == c, moved, 0),
                                                                axis=1, dtype=np.int64)
            hit = _hits(field, t, edges[:, :-1], edges[:, 1:], pos,
                        None if namespaces is None else namespaces[lo + rows])
            survived[lo + rows[hit]] = False
            rows, here = rows[~hit], pos[~hit, -1]
            j0 = j1

    _jump_windows(gen, jump_rate, t, n_walkers, per_chunk)
    return survived, at_origin


def _hits(field, t: float, a: np.ndarray, b: np.ndarray, pos: np.ndarray,
          namespaces: np.ndarray | None) -> np.ndarray:
    """Which rows meet a disaster: row r sits at pos[r, j] during [a[r, j], b[r, j]).

    Each site of the block gets an index g, and its disaster times s < t,
    closed by an inf, are laid out by (g, s) in one array.  Each site's
    window [0, t) is cut into `bins` buckets, bin(x) = min(int(x * bins /
    t), bins - 1), and start[g * bins + k] is the index of site g's first
    entry whose bin is >= k (its inf sits in its last bucket).  A segment
    [a, b) at site g reads start[g * bins + bin(a)] and steps on while that
    entry is before a; it stops at the site's inf at the latest, and the
    segment is hit iff the entry it stops at is before b.  bin is monotone,
    so bin(s) < bin(a) implies s < a: no disaster the table skips is at or
    after a, and the lookup is exact for any number of buckets; about four
    buckets a disaster keep the steps few.  An empty segment (a == b, past a
    walker's last jump) is never hit, and neither is one that reaches its
    site's inf.  Every b is at most t, so the times >= t are dropped.

    In one dimension g is the coordinate minus the block's smallest one.
    Every site between the origin and a walker was visited by it while it
    was alive, so the sites of that range are the ones the block's segments
    and the earlier blocks visit, and no stream is materialized that a
    lookup of the visited sites alone would not.
    """
    m, w = a.shape
    if namespaces is not None:
        ns = np.broadcast_to(namespaces[:, None, None], (m, w, 1))
        pos = np.concatenate([ns, pos], axis=2)
    sites = pos.reshape(m * w, pos.shape[2])
    if sites.shape[1] == 1:
        lo = int(sites.min())
        g = sites[:, 0] - lo
        coords = np.arange(lo, int(sites.max()) + 1)[:, None]
    else:
        _, first, g = np.unique(field.site_keys(sites), return_index=True, return_inverse=True)
        coords = sites[first]
    streams = field.streams_for_coords(coords, t)
    n = len(streams)
    times = np.concatenate(streams)
    owner = np.repeat(np.arange(n), [len(s) for s in streams])
    keep = times < t
    times, owner = times[keep], owner[keep]
    k = len(times)
    if not k:
        return np.zeros(m, dtype=bool)
    bins = 4 * k // n + 1
    scale = bins / t
    cells = np.bincount(owner * bins + np.minimum((times * scale).astype(np.int64), bins - 1),
                        minlength=n * bins)
    cells[bins - 1::bins] += 1  # each site's inf
    start = np.add.accumulate(cells) - cells
    laid = np.full(k + n, np.inf)
    laid[np.arange(k) + owner] = times  # site g's times shift past the g infs before them
    a = a.ravel()
    cell = np.minimum((a * scale).astype(np.int64), bins - 1)
    cell += g * bins
    idx = start[cell]
    found = laid[idx]
    on = np.flatnonzero(found < a)
    while len(on):
        i = idx[on] + 1
        after = laid[i]
        idx[on], found[on] = i, after
        on = on[after < a[on]]
    return (found < b.ravel()).reshape(m, w).any(axis=1)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_survival(field, jump_rate: float, t: float, n_walkers: int,
                      pin_to_origin: bool, rng) -> SurvivalEstimate:
    """Fraction of independent walks in `field` surviving to t.

    With pin_to_origin, additionally requires the walk to sit at the origin
    at time t.  Passing the same integer seed twice yields the same walker
    set, so pinned <= unpinned holds path-wise.
    """
    _check_horizon(t)
    if n_walkers < 1:
        raise ValueError("n_walkers must be >= 1")
    if not 0.0 <= jump_rate < math.inf:
        raise ValueError("jump_rate must be finite and >= 0")
    gen = as_generator(rng)
    survived, at_origin = _survival_batch(field, jump_rate, t, n_walkers, gen)
    ok = survived & at_origin if pin_to_origin else survived
    return SurvivalEstimate.binomial(float(ok.mean()), n_walkers)


def annealed_survival(jump_rate: float, disaster_rate: float, t: float,
                      n_samples: int, rng, dimension: int = 1) -> SurvivalEstimate:
    """Survival frequency when every walker gets a fresh environment.

    Each walker's occupancy windows partition [0, t] and are disjoint, so the
    number of lethal disasters in a window is an independent
    Poisson(rate * length) draw; sampling those counts is an exact simulation
    of a fresh environment restricted to the walker's trajectory.  The
    expectation is exp(-disaster_rate * t) for every jump rate and dimension.
    """
    _check_horizon(t)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (0.0 <= jump_rate < math.inf and 0.0 <= disaster_rate < math.inf):
        raise ValueError("rates must be finite and >= 0")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    gen = as_generator(rng)
    if disaster_rate == 0.0 or t == 0.0:
        return SurvivalEstimate.binomial(1.0, n_samples)
    survived = np.ones(n_samples, dtype=bool)

    def per_chunk(lo, hi, times, _pad):
        # the holding intervals' lengths, then in place their hit probabilities
        length = np.empty((hi - lo, times.shape[1] + 1))
        length[:, :-1] = times
        length[:, -1] = t
        length[:, 1:] -= times
        length *= -disaster_rate
        p_hit = np.negative(np.expm1(length, out=length), out=length)
        survived[lo:hi] = ~(gen.random(p_hit.shape) < p_hit).any(axis=1)

    _jump_windows(gen, jump_rate, t, n_samples, per_chunk)
    return SurvivalEstimate.binomial(float(survived.mean()), n_samples)


# Truncation error allowed next to the survival probability returned.
_LOG_NEGLIGIBLE = math.log(1e-10)


def _reach(mean_jumps, sigmas: float):
    """Half-width beyond which a walk with `mean_jumps` expected jumps lies
    only with probability of order exp(-sigmas**2 / 2); elementwise."""
    return (sigmas * (np.sqrt(mean_jumps) + 1.0)).astype(np.int64)


def _walk_kernel(mean_jumps: float, sigmas: float) -> tuple[np.ndarray, float]:
    """Displacement law exp(-x) I_k(x) on -w..w, and a bound on its mass beyond w.

    I_{k+1}(x) / I_k(x) < x / (2 (k + 1)), so the two tails are dominated by
    a geometric series started at I_{w+1}.
    """
    from scipy.special import ive

    w = int(_reach(mean_jumps, sigmas))
    half = ive(np.arange(w + 2), mean_jumps)
    ratio = mean_jumps / (2.0 * (w + 2))
    tail = 2.0 * half[w + 1] / (1.0 - ratio) if ratio < 1.0 else 1.0
    return np.concatenate([half[w:0:-1], half[: w + 1]]), tail


def _exact_survival_in_box(field, jump_rate: float, t: float, pin: bool,
                           sigmas: float) -> tuple[float, float]:
    """(log S, log B) on the box |x| <= _reach(jump_rate * s, sigmas) at time s."""
    r_max = int(_reach(jump_rate * t, sigmas))
    sites = np.arange(-r_max, r_max + 1)
    streams = field.streams_for_coords(sites[:, None], t)
    times = np.concatenate(streams)
    where = np.repeat(sites, [len(ss) for ss in streams])
    keep = (times < t) & (np.abs(where) <= _reach(jump_rate * times, sigmas))
    order = np.argsort(times[keep], kind="stable")
    times, where = times[keep][order], where[keep][order]

    # p is the surviving law divided by its mass exp(log_s), on sites -r..r
    p = np.ones(1)
    r = 0
    s_prev = 0.0
    log_s = 0.0
    log_b = -math.inf
    for s, x in zip(times.tolist(), where.tolist()):
        kern, lost = _walk_kernel(jump_rate * (s - s_prev), sigmas)
        out = np.convolve(p, kern)
        r_new = int(_reach(jump_rate * s, sigmas))
        ext = r + len(kern) // 2
        if ext > r_new:
            cut = ext - r_new
            lost += float(out[:cut].sum() + out[-cut:].sum())
            out = out[cut:-cut]
        elif ext < r_new:
            out = np.pad(out, r_new - ext)
        if lost > 0.0:
            log_b = float(np.logaddexp(log_b, log_s + math.log(lost)))
        out[x + r_new] = 0.0
        mass = float(out.sum())
        if mass == 0.0:
            return -math.inf, log_b
        log_s += math.log(mass)
        p = out / mass
        r, s_prev = r_new, s
    if pin:
        from scipy.special import ive

        at_origin = float(p @ ive(np.abs(np.arange(-r, r + 1)), jump_rate * (t - s_prev)))
        log_s = log_s + math.log(at_origin) if at_origin > 0.0 else -math.inf
    return log_s, log_b


def exact_survival(field, jump_rate: float, t: float, pin: bool = False,
                   sigmas: float | None = None) -> tuple[float, float]:
    """Quenched survival probability of a walk in a one-dimensional field, solved exactly.

    Returns (log S, log B) where S is P(survive to t) in `field`, or
    P(survive to t and sit at the origin) with `pin`, and B bounds the
    truncation error: the true value lies in [S, S + B].  S is 0 (log S =
    -inf) only when no mass survives.

    Method (Feynman-Kac): the surviving sub-probability vector is carried
    between consecutive disaster times by the walk kernel exp(-kappa h)
    I_k(kappa h), and at a disaster (s, x) its entry at x is set to zero.
    The vector lives on the box |x| <= R(s) = sigmas*(sqrt(kappa s) + 1),
    which grows with time; disasters outside R(s) are ignored and the
    kernel is cut at the same reach of its own time step.  Every
    truncation only removes mass, so S is a lower bound, and the mass
    removed (kernel tails bounded through the Bessel ratio, plus what
    leaves the box) is summed into B, an upper bound on the error.  A
    priori B is a Poisson/Gaussian tail of order exp(-sigmas**2 / 2); the
    default sigmas = sqrt(2 (2 alpha t + 28)) puts it far below exp(-2
    alpha t).  The method checks B <= 1e-10 S and doubles sigmas when the
    check fails, up to three times before it raises RuntimeError.
    """
    _check_horizon(t)
    if field.dimension != 1:
        raise ValueError("exact survival is implemented for dimension 1 only")
    if sigmas is None:
        sigmas = math.sqrt(2.0 * (2.0 * field.rate * t + 28.0))
    for _ in range(4):
        log_s, log_b = _exact_survival_in_box(field, jump_rate, t, pin, sigmas)
        if log_b <= log_s + _LOG_NEGLIGIBLE:
            return log_s, log_b
        sigmas *= 2.0
    raise RuntimeError(f"truncation bound exp({log_b:.3g}) is not negligible next to "
                       f"S = exp({log_s:.3g})")


def estimate_lyapunov(jump_rate: float, disaster_rate: float, t: float, n_env: int,
                      n_walkers: int, pin: bool, seed: int, dimension: int = 1,
                      method: str = "direct") -> LyapunovEstimate:
    """Average of (1/t) log S(t) over fresh environments.

    method="direct" estimates S(t) in each environment by the surviving
    fraction of n_walkers simulated walks.  It resolves S only down to about
    1/n_walkers: an environment with no survivor is floored at
    1/(2 n_walkers) and counted in censor_fraction.  Where survival is far
    below that (S ~ exp(-20) at t = 20), the floor biases log S upward, so
    a censored estimate is no bound on p(kappa) in either direction.  A
    heavily censored estimate (e.g. jump rate ~ 0 with disasters on) is
    flagged by censor_fraction, not fatal.  Its cost per environment scales
    with the walker-time spent alive, about n_walkers * jump_rate times the
    mean survival time, not with n_walkers * jump_rate * t: the jumps a
    walker makes after a disaster has hit it are not looked up.

    method="exact" computes S(t) in each environment with exact_survival
    (dimension 1 only) and ignores n_walkers except for the same floor,
    which it applies only where S is exactly 0.  Environment i is the same
    field under both methods.
    """
    if method not in ("direct", "exact"):
        raise ValueError(f"unknown method {method!r}")
    _check_horizon(t, positive=True)
    if n_env < 1 or n_walkers < 1:
        raise ValueError("n_env and n_walkers must be >= 1")
    floor = 1.0 / (2.0 * n_walkers)
    logs = np.empty(n_env)
    censored = 0
    for i in range(n_env):
        fld = DisasterField(derive_seed(seed, "lyapunov-env", i), disaster_rate, dimension)
        if method == "exact":
            log_s, _ = exact_survival(fld, jump_rate, t, pin)
        else:
            s_hat = estimate_survival(fld, jump_rate, t, n_walkers, pin,
                                      derive_seed(seed, "lyapunov-walk", i)).value
            log_s = math.log(s_hat) if s_hat > 0.0 else -math.inf
        if log_s == -math.inf:
            log_s = math.log(floor)
            censored += 1
        logs[i] = log_s / t
    p_hat = float(logs.mean())
    se = float(logs.std(ddof=1) / math.sqrt(n_env)) if n_env > 1 else 0.0
    return LyapunovEstimate(p_hat=p_hat, std_err=se, censor_fraction=censored / n_env)


@dataclass(frozen=True)
class ConcentrationRow:
    t: float
    mean_log: float
    std_log: float | None  # None for a single environment


def concentration_profile(jump_rate: float, disaster_rate: float, t_list: Sequence[float],
                          n_env: int, n_walkers: int, seed: int,
                          dimension: int = 1) -> list[ConcentrationRow]:
    """Mean and std of log S_hat(t) across environments, per requested t."""
    for t in t_list:
        _check_horizon(t, positive=True)
    if n_env < 1 or n_walkers < 1:
        raise ValueError("n_env and n_walkers must be >= 1")
    floor = 1.0 / (2.0 * n_walkers)
    rows = []
    for j, t in enumerate(t_list):
        logs = np.empty(n_env)
        for i in range(n_env):
            fld = DisasterField(derive_seed(seed, "conc-env", j, i), disaster_rate, dimension)
            s_hat = estimate_survival(fld, jump_rate, t, n_walkers, False,
                                      derive_seed(seed, "conc-walk", j, i)).value
            logs[i] = math.log(s_hat if s_hat > 0.0 else floor)
        std_log = float(logs.std(ddof=1)) if n_env > 1 else None
        rows.append(ConcentrationRow(t=float(t), mean_log=float(logs.mean()), std_log=std_log))
    return rows
