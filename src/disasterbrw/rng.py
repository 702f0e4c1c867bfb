"""Counter-based random primitives.

All stochastic state in this package derives from 64-bit keys mixed with
splitmix64.  A value is a pure function of (key, counter), so any stream can
be regenerated from scratch, in any block size, on any worker, and always
yields the same bits.  That property is what makes lazily materialized
disaster streams and per-particle randomness reproducible.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_STR_SALT = 0x8EBC6AF09C88C6E3

_U_GOLDEN = np.uint64(GOLDEN)
_U_MIX_A = np.uint64(_MIX_A)
_U_MIX_B = np.uint64(_MIX_B)
# 2**-53; uniforms live in (0, 1] so logs stay finite
_INV53 = 2.0 ** -53


def mix64_int(x: int) -> int:
    """splitmix64 finalizer on a python int (mod 2**64)."""
    x &= _M64
    x = ((x ^ (x >> 30)) * _MIX_A) & _M64
    x = ((x ^ (x >> 27)) * _MIX_B) & _M64
    return x ^ (x >> 31)


def mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    x = (x ^ (x >> np.uint64(30))) * _U_MIX_A
    x = (x ^ (x >> np.uint64(27))) * _U_MIX_B
    return x ^ (x >> np.uint64(31))


def counter_uniform(key, counters) -> np.ndarray:
    """Uniforms in (0, 1] indexed by counter; block-size independent.

    `key` is one int, or a uint64 array of keys broadcast against `counters`
    (one particle per row, say).  Element for element the draws of
    ParticleStream.uniform.
    """
    k = np.uint64(key & _M64) if isinstance(key, int) else np.asarray(key, dtype=np.uint64)
    bits = mix64(k + np.asarray(counters).astype(np.uint64, copy=False) * _U_GOLDEN)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53


def counter_exponential(key, counters, rate: float) -> np.ndarray:
    """ParticleStream.exponential's draws at `counters`: inf everywhere at rate 0."""
    u = counter_uniform(key, counters)
    if rate <= 0.0:
        return np.full(u.shape, np.inf)
    return -np.log(u) / rate


def zigzag_int(n: int) -> int:
    """Map a signed int to an unsigned one (order-preserving around 0)."""
    return ((n << 1) ^ (n >> 63)) & _M64 if n < 0 else (n << 1) & _M64


def zigzag(a: np.ndarray) -> np.ndarray:
    s = np.ascontiguousarray(a, dtype=np.int64)
    return ((s << np.int64(1)) ^ (s >> np.int64(63))).view(np.uint64)


def fold(h: int, v: int) -> int:
    """Absorb one unsigned word into a running key."""
    return mix64_int((h ^ ((v + GOLDEN) & _M64)) & _M64)


def derive_seed(seed: int, *parts: int | str) -> int:
    """Stable sub-seed from a master seed and a label/index path.

    Used so that replica i's randomness never depends on how many replicas
    run, or in which order.
    """
    h = mix64_int(seed & _M64)
    for p in parts:
        if isinstance(p, str):
            h = _fold_label(h, p)
        else:
            h = fold(h, zigzag_int(int(p)))
    return h


def derive_seeds(n: int, seed: int, *parts: int | str) -> np.ndarray:
    """derive_seed(seed, *parts, i) for i in range(n), as a uint64 array."""
    h = np.uint64(derive_seed(seed, *parts))
    return mix64(h ^ (zigzag(np.arange(n)) + _U_GOLDEN))


def _fold_label(h: int, label: str) -> int:
    """Absorb a string label into a running key: a salt word, then its UTF-8 bytes."""
    h = fold(h, _STR_SALT)
    for b in label.encode("utf-8"):
        h = fold(h, b)
    return h


class ParticleStream:
    """Sequential draws for a single particle, keyed by its tree identity.

    Draw order per particle is fixed, so pruning one particle (truncation,
    earlier death under a denser environment) never perturbs any other
    particle's randomness.  This is what makes the path-wise couplings in the
    test suite exact.
    """

    __slots__ = ("key", "ctr")

    def __init__(self, key: int):
        self.key = key & _M64
        self.ctr = 0

    def child_key(self, index: int) -> int:
        """fold(key, index), inlined like the draws below: the tree engine keys every child."""
        x = self.key ^ ((index + GOLDEN) & _M64)
        x = ((x ^ (x >> 30)) * _MIX_A) & _M64
        x = ((x ^ (x >> 27)) * _MIX_B) & _M64
        return x ^ (x >> 31)

    # uniform and exponential equal counter_uniform(key, ctr); they inline
    # mix64_int because the tree engine calls them once per event.  Both return
    # python floats (float() of np.log's result keeps its bits), so the engine's
    # time sums and heap comparisons never run on numpy scalars.

    def uniform(self) -> float:
        x = (self.key + self.ctr * GOLDEN) & _M64
        self.ctr += 1
        x = ((x ^ (x >> 30)) * _MIX_A) & _M64
        x = ((x ^ (x >> 27)) * _MIX_B) & _M64
        return (((x ^ (x >> 31)) >> 11) + 1) * _INV53

    def exponential(self, rate: float) -> float:
        ctr = self.ctr
        self.ctr = ctr + 1
        if rate <= 0.0:
            return float("inf")  # the draw is still spent: alignment is rate-independent
        x = (self.key + ctr * GOLDEN) & _M64
        x = ((x ^ (x >> 30)) * _MIX_A) & _M64
        x = ((x ^ (x >> 27)) * _MIX_B) & _M64
        return -float(np.log((((x ^ (x >> 31)) >> 11) + 1) * _INV53)) / rate

    def index(self, n: int) -> int:
        """Uniform draw from range(n)."""
        i = int(self.uniform() * n)
        return n - 1 if i >= n else i


def as_generator(rng) -> np.random.Generator:
    """Accept either an integer seed or a ready numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(int(rng))

