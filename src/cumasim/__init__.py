"""Performance analysis of CUMA multi-user networks.

Exact SIR statistics, asymptote-matched closed forms and a Monte Carlo
ground-truth simulator for interference-limited fluid-antenna receivers,
plus a sweep harness and CLI for reproducing figure-style studies.

The namespace holds the README quick start's names and the two error
types; every other public name is imported from its module.
"""

from .analytic import ChannelStats, QuadratureError, exact_er, exact_op
from .approx import approx_er, approx_op, beta_I
from .geometry import correlation_matrix, preset_grid
from .montecarlo import SeedSpec, SimConfig, mc_stderr, sir_samples
from .specfun import DomainError

__version__ = "0.1.0"
