"""Monte Carlo toolkit for a branching random walk among site disasters.

Submodules
----------
env          seeded lazy Poisson disaster environment
walk         single-particle survival and Lyapunov-exponent estimators, and
             Estimate, the package's one (value, std_err, n) result type
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
from .walk import Estimate, annealed_survival, estimate_lyapunov, estimate_survival

__all__ = [
    "DisasterField",
    "Estimate",
    "estimate_survival",
    "annealed_survival",
    "estimate_lyapunov",
    "BRWParams",
    "Caps",
    "offspring_pmf",
    "simulate",
    "phase_classify",
]

__version__ = "0.1.0"
