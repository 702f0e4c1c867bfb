"""Embedded branching process of origin-returning particles.

Cutting the branching system at period boundaries and keeping only particles
that sit at the origin at each multiple of the period T yields a branching
process whose offspring law in period k is the quenched law of "particles at
the origin at kT descending from one particle at the origin at (k-1)T".
Disjoint periods read disjoint slices of the environment, so those laws form
an i.i.d. sequence over periods, and the mean of the first one ties to the
pinned single-particle survival via the growth factor exp(birth_rate*(m-1)T).

Each period's law is sampled from independent trees in one field.  The
checks take a sequence of fields, and the trees of all of them run together
on the replica-batch engine (brw.replicas_in_fields): one array pass for
every tree of every field, not one heap loop per tree.  The pinned walker
estimates run per field.

The phase classifier combines the Lyapunov estimate with the branching
growth rate: sign of birth_rate*(m-1) + p_hat decides survival vs extinction,
with a 3-sigma dead band reported as "critical-band".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brw import BRWParams, Caps, Comparison, replicas_in_fields
from .rng import derive_seed, derive_seeds
from .walk import estimate_lyapunov, estimate_survival


@dataclass(frozen=True)
class OffspringSample:
    pmf: tuple[float, ...]
    n_reps: int
    mean: float

    def __post_init__(self):
        if abs(sum(self.pmf) - 1.0) > 1e-12:
            raise ValueError("empirical pmf must sum to 1")
        implied = sum(k * p for k, p in enumerate(self.pmf))
        if abs(implied - self.mean) > 1e-12:
            raise ValueError("mean inconsistent with pmf")

    @property
    def mean_std_err(self) -> float:
        var = sum(p * (k - self.mean) ** 2 for k, p in enumerate(self.pmf))
        return math.sqrt(var / self.n_reps)


def sample_offspring(fields, params: BRWParams, period: float, period_index: int,
                     n_reps: int, seeds,
                     *, caps: Caps = Caps(max_alive=100_000, max_events=10_000_000)) -> list[OffspringSample]:
    """Empirical law of origin occupancy after one period, in each of several fixed fields.

    Starts one particle at the origin at (period_index-1)*period and counts
    particles at the origin at period_index*period, over n_reps independent
    trees per field, seeded from seeds[i] in fields[i], a DisasterField of
    params' rate and dimension (ValueError otherwise).  All trees run as one
    batch.  Raises brw.CapTripped when a tree trips `caps`.
    """
    if period <= 0.0 or period_index < 1 or n_reps < 1:
        raise ValueError("need period > 0, period_index >= 1, n_reps >= 1")
    t0 = (period_index - 1) * period
    t1 = period_index * period
    trees = [derive_seeds(n_reps, seed, "offspring", period_index) for seed in seeds]
    samples = []
    for out in replicas_in_fields(params, fields, trees, t0, t1, caps):
        counts = out.home_count
        pmf = np.bincount(counts, minlength=int(counts.max(initial=0)) + 1) / n_reps
        samples.append(OffspringSample(pmf=tuple(float(x) for x in pmf),
                                       n_reps=n_reps, mean=float(counts.mean())))
    return samples


def offspring_mean_identity_check(fields, params: BRWParams, period: float, n_reps: int,
                                  seeds) -> list[Comparison]:
    """Per field: first-period offspring mean vs growth-factor-scaled pinned survival.

    Both Monte Carlo estimates target the same quenched number, so their
    difference should be noise.
    """
    if period == 0.0:
        return [Comparison(lhs=1.0, lhs_se=0.0, rhs=1.0, rhs_se=0.0) for _ in fields]
    samples = sample_offspring(fields, params, period, 1, n_reps,
                               [derive_seed(seed, "ident-trees") for seed in seeds])
    factor = math.exp(params.birth_rate * (params.offspring_mean - 1.0) * period)
    checks = []
    for field, seed, sample in zip(fields, seeds, samples):
        pinned = estimate_survival(field, params.jump_rate, period, n_reps, True,
                                   derive_seed(seed, "ident-walkers"))
        checks.append(Comparison(lhs=sample.mean, lhs_se=sample.mean_std_err,
                                 rhs=factor * pinned.value, rhs_se=factor * pinned.std_err))
    return checks


@dataclass(frozen=True)
class PhaseVerdict:
    criterion_value: float
    std_err: float
    verdict: str  # subcritical | critical-band | supercritical
    censor_fraction: float
    unreliable: bool

    def __post_init__(self):
        in_band = abs(self.criterion_value) <= 3.0 * self.std_err
        if in_band != (self.verdict == "critical-band"):
            raise ValueError("verdict inconsistent with dead band")


def phase_classify(params: BRWParams, t_lyap: float, n_env: int, n_walkers: int,
                   seed: int) -> PhaseVerdict:
    """Classify survival phase from birth_rate*(m-1) + p_hat(jump_rate).

    Positive beyond 3 sigma means the branching growth beats the quenched
    decay (survival with positive probability); negative beyond 3 sigma
    means extinction; in between, the estimate cannot distinguish, and a
    censor fraction above one half marks the verdict unreliable.
    """
    if t_lyap <= 0.0:
        raise ValueError("t_lyap must be > 0")
    lyap = estimate_lyapunov(params.jump_rate, params.disaster_rate, t_lyap, n_env,
                             n_walkers, False, seed, dimension=params.dimension)
    value = params.birth_rate * (params.offspring_mean - 1.0) + lyap.value
    if abs(value) <= 3.0 * lyap.std_err:
        verdict = "critical-band"
    elif value > 0:
        verdict = "supercritical"
    else:
        verdict = "subcritical"
    return PhaseVerdict(criterion_value=value, std_err=lyap.std_err, verdict=verdict,
                        censor_fraction=lyap.censor_fraction,
                        unreliable=lyap.censor_fraction > 0.5)
