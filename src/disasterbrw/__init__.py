"""Monte Carlo toolkit for a branching random walk among site disasters.

Submodules
----------
env          seeded lazy Poisson disaster environment
walk         single-particle survival and Lyapunov-exponent estimators
brw          event-driven branching particle system
gw_embed     origin-return offspring laws and the phase classifier
orders       parity order theory with exact checks
boxes        space-time box exit counters and correlation checks
percolation  oriented site percolation comparison
cli          batch experiment driver
"""

from .brw import BRWParams, Caps, offspring_pmf, simulate
from .env import DisasterField
from .gw_embed import phase_classify
from .walk import (
    LyapunovEstimate,
    SurvivalEstimate,
    annealed_survival,
    concentration_profile,
    estimate_lyapunov,
    estimate_survival,
)

__all__ = [
    "DisasterField",
    "SurvivalEstimate",
    "LyapunovEstimate",
    "estimate_survival",
    "annealed_survival",
    "estimate_lyapunov",
    "concentration_profile",
    "BRWParams",
    "Caps",
    "offspring_pmf",
    "simulate",
    "phase_classify",
]

__version__ = "0.1.0"
