"""Parity configurations of multinomial occupancies and stochastic orders.

The objects here are exact: the law of the per-bin parity vector when k
balls fall into bins with given weights, the prefix partial order on even
bit vectors, a monotone two-ball coupling between consecutive even ball
counts, and likelihood-ratio / ratio bounds for conditioned jump counts of
simple random walks.

Everything quantifies over small state spaces and is checked against
enumeration oracles in the tests; probability arithmetic for the walk
bounds runs in log space or exact rationals to dodge underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rng import as_generator

MAX_EXACT_BINS = 13  # bins = N+1; exact parity law is O(2^bins)


class PrecisionError(ValueError):
    """Truncated computation cannot meet the requested tail mass."""


# ---------------------------------------------------------------------------
# weights and parity configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Nonnegative bin weights summing to 1, stored sorted ascending.

    Sorting is enforced here because the monotonicity results below are
    stated for ascending weights; passing a raw sequence elsewhere keeps
    the caller's order.
    """

    probs: tuple[float, ...]

    def __init__(self, probs: Sequence[float]):
        p = tuple(sorted(float(x) for x in probs))
        if any(x < 0 for x in p):
            raise ValueError("weights must be nonnegative")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return len(self.probs)


def prefix_leq(lhs: Sequence[int], rhs: Sequence[int]) -> bool:
    """Partial order: every prefix sum of lhs is <= that of rhs."""
    if len(lhs) != len(rhs):
        raise ValueError("configurations must have equal length")
    acc = 0
    for a, b in zip(lhs, rhs):
        acc += int(a) - int(b)
        if acc > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# exact parity law
# ---------------------------------------------------------------------------

def binom_parity_even(n: int, p: float) -> float:
    """P(Binomial(n, p) is even) = (1 + (1-2p)^n) / 2."""
    if n < 0 or not (0.0 <= p <= 1.0):
        raise ValueError("need n >= 0 and p in [0, 1]")
    return 0.5 * (1.0 + (1.0 - 2.0 * p) ** n)


def _fwht(v: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform."""
    v = v.copy()
    h = 1
    n = len(v)
    while h < n:
        for lo in range(0, n, h * 2):
            a = v[lo : lo + h].copy()
            b = v[lo + h : lo + 2 * h].copy()
            v[lo : lo + h] = a + b
            v[lo + h : lo + 2 * h] = a - b
        h *= 2
    return v


@dataclass(frozen=True)
class DistOnSigma:
    """Distribution on the even-parity bit vectors of a fixed length."""

    n_bits: int
    patterns: np.ndarray  # (2^(n_bits-1), n_bits) uint8, ascending integer order
    probs: np.ndarray

    def __post_init__(self):
        if (self.probs < -1e-12).any() or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")


def parity_dist(weights, k: int) -> DistOnSigma:
    """Exact law of per-bin parities when k balls fall with the given weights.

    Accepts a WeightVector (sorted) or a raw sequence used in the caller's
    order.  Requires k even (otherwise the law would live on odd-parity
    vectors) and at most MAX_EXACT_BINS bins; uses the character transform
    over the parity group, which is exact up to float rounding.
    """
    p = np.asarray(weights.probs if isinstance(weights, WeightVector) else weights, dtype=np.float64)
    n_bits = len(p)
    if n_bits < 1 or n_bits > MAX_EXACT_BINS:
        raise ValueError(f"need 1..{MAX_EXACT_BINS} bins")
    if abs(p.sum() - 1.0) > 1e-12 or (p < 0).any():
        raise ValueError("weights must be a probability vector")
    if k < 0 or k % 2 == 1:
        raise ValueError("ball count must be even: odd counts put all mass outside the even-parity set")
    if k > 64:
        raise ValueError("exact regime is limited to k <= 64")
    size = 1 << n_bits
    # character values: c[s] = sum_j (+-1)^{s_j} p_j
    c = np.zeros(size)
    for j in range(n_bits):
        sign = 1.0 - 2.0 * ((np.arange(size) >> j) & 1)
        c += sign * p[j]
    probs_all = _fwht(c**k) / size
    bits = ((np.arange(size)[:, None] >> np.arange(n_bits)[None, :]) & 1).astype(np.uint8)
    even = bits.sum(axis=1) % 2 == 0
    odd_mass = probs_all[~even].sum()
    if abs(odd_mass) > 1e-10:
        raise AssertionError("even ball count leaked mass to odd parities")
    probs = np.clip(probs_all[even], 0.0, None)
    probs /= probs.sum()
    return DistOnSigma(n_bits=n_bits, patterns=bits[even], probs=probs)


# ---------------------------------------------------------------------------
# monotonicity of the parity law and the two-ball coupling
# ---------------------------------------------------------------------------

def parity_monotonicity_violations(weights, half_count: int) -> list:
    """Pairs (I, J, P(I), P(J)) with I prefix-below J but P(I) < P(J).

    With ascending weights and an even ball count 2*half_count the exact
    parity law is decreasing along the prefix order, so the returned list is
    expected empty; raw (unsorted) weight sequences may genuinely violate.
    """
    dist = parity_dist(weights, 2 * half_count)
    pats = [tuple(int(b) for b in row) for row in dist.patterns]
    out = []
    for i, pi in enumerate(pats):
        for j, pj in enumerate(pats):
            if i == j:
                continue
            if prefix_leq(pi, pj) and dist.probs[i] < dist.probs[j] - 1e-12:
                out.append((pi, pj, float(dist.probs[i]), float(dist.probs[j])))
    return out


def couple_parity_batch(weights: WeightVector, half_count: int, n_samples: int, rng):
    """Sample the coupled pair (I_{2k}, I_{2k+2}) for k = half_count, vectorized.

    Construction: throw 2k balls, then two extra balls into bins (B, A) with
    B <= A; off {A, B} both configurations share the base parities, while at
    B one uniform decides both (the extra ball flips B's parity class), and
    the A-coordinate is forced by the total count's parity.  Ascending
    weights make the B-flip monotone, so the first component is always
    prefix-below the second while each marginal stays exact.
    """
    gen = as_generator(rng)
    p = np.asarray(weights.probs)
    n_bits = len(p)
    k2 = 2 * half_count
    base = gen.multinomial(k2, p, size=n_samples)
    cum = p.cumsum()
    c1 = np.searchsorted(cum, gen.random(n_samples), side="right")
    c2 = np.searchsorted(cum, gen.random(n_samples), side="right")
    np.clip(c1, 0, n_bits - 1, out=c1)
    np.clip(c2, 0, n_bits - 1, out=c2)
    bin_b = np.minimum(c1, c2)
    bin_a = np.maximum(c1, c2)
    lo = (base & 1).astype(np.uint8)
    hi = lo.copy()
    rows = np.flatnonzero(bin_b != bin_a)
    if len(rows):
        bb, aa = bin_b[rows], bin_a[rows]
        r = base[rows, bb] + base[rows, aa]
        ratio = p[bb] / (p[bb] + p[aa])
        even_prob = 0.5 * (1.0 + (1.0 - 2.0 * ratio) ** r)
        u = gen.random(len(rows))
        lo_b = (u <= 1.0 - even_prob).astype(np.uint8)
        hi_b = (u <= even_prob).astype(np.uint8)
        lo[rows, bb] = lo_b
        hi[rows, bb] = hi_b
        lo[rows, aa] = ((r - lo_b) % 2).astype(np.uint8)
        hi[rows, aa] = ((r - hi_b) % 2).astype(np.uint8)
    return lo, hi


# ---------------------------------------------------------------------------
# conditioned jump-count laws of simple random walks
# ---------------------------------------------------------------------------

def srw_point_ratio_bounded(k: int, l: int, x1: int) -> bool:
    """Check P(Z_k = x1) <= 2^(l-k) P(Z_l = x1) for the discrete simple walk.

    Exact rational arithmetic; requires k <= l, all of k, l, x1 with one
    parity, and |x1| <= k.
    """
    if k > l:
        raise ValueError("need k <= l")
    if (k - x1) % 2 or (l - x1) % 2:
        raise ValueError("k, l and x1 must share a parity")
    if abs(x1) > k:
        raise ValueError("need |x1| <= k")
    pk = Fraction(math.comb(k, (k + x1) // 2), 2**k)
    pl = Fraction(math.comb(l, (l + x1) // 2), 2**l)
    return pk <= Fraction(2) ** (l - k) * pl


def srw_ratio_bound_exhaustive(max_l: int) -> bool:
    """Ratio bound over every valid (k, l, x1) with l <= max_l."""
    for l in range(max_l + 1):
        for k in range(l + 1):
            for x1 in range(-k, k + 1):
                if (k - x1) % 2 or (l - x1) % 2:
                    continue
                if not srw_point_ratio_bounded(k, l, x1):
                    return False
    return True


def conditioned_jump_log_laws(rate: float, x1: int, n_max: int):
    """Log pmfs of jump counts conditioned on the endpoint, truncated at n_max.

    First law: rate-`rate` walk's jump count given it ends exactly at x1.
    Second: rate/2 walk's count given the endpoint has x1's parity (which
    pins the count's parity).  Returns (support, log_p_fast, log_p_slow),
    normalized over the truncation range; raises PrecisionError when the
    discarded Poisson tail exceeds 1e-12 relative to the kept mass.
    """
    if rate <= 0.0:
        raise ValueError("rate must be > 0")
    from scipy import special, stats

    x = abs(int(x1))
    # smallest count reaching x1 is |x1| itself, stepping by 2 keeps the parity
    support = np.arange(x, n_max + 1, 2)
    if not len(support):
        raise ValueError("empty support; raise n_max")

    def log_poisson(lam: float, j: np.ndarray) -> np.ndarray:
        return -lam + j * math.log(lam) - special.gammaln(j + 1)

    lp_fast = log_poisson(rate, support) + np.array(
        [math.log(math.comb(int(j), (int(j) + x) // 2)) - int(j) * math.log(2.0) for j in support]
    )
    lp_slow = log_poisson(rate / 2.0, support)
    for name, lp, lam in (("fast", lp_fast, rate), ("slow", lp_slow, rate / 2.0)):
        kept = np.exp(lp - lp.max()).sum() * math.exp(lp.max())
        tail = stats.poisson.sf(n_max, lam)
        if tail > 1e-12 * kept:
            raise PrecisionError(f"{name} law: Poisson tail beyond n_max too heavy; raise n_max")
    lp_fast -= _logsumexp(lp_fast)
    lp_slow -= _logsumexp(lp_slow)
    return support, lp_fast, lp_slow


def _logsumexp(v: np.ndarray) -> float:
    m = float(v.max())
    return m + math.log(np.exp(v - m).sum())


def jump_count_lr_dominates(rate: float, x1: int, n_max: int) -> bool:
    """Likelihood-ratio domination of the conditioned jump counts.

    The endpoint-pinned rate-`rate` count dominates the parity-pinned
    rate/2 count: cross products P_fast(k) P_slow(l) <= P_fast(l) P_slow(k)
    for all valid k <= l.  `rate` is the first-coordinate jump rate; for a
    d-dimensional walk of total rate R pass rate = R/d (the per-coordinate
    reading) or R directly, whichever normalization is under study.
    A zero rate is degenerate (both laws collapse to the minimum count).
    """
    if rate == 0.0:
        return True
    _support, lp_fast, lp_slow = conditioned_jump_log_laws(rate, x1, n_max)
    # cross-product inequality in log space, all pairs k < l
    n = len(lp_fast)
    for i in range(n - 1):
        lhs = lp_fast[i] + lp_slow[i + 1 :]
        rhs = lp_fast[i + 1 :] + lp_slow[i]
        if (lhs > rhs + 1e-9).any():
            return False
    return True
