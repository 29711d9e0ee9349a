"""Performance analysis of CUMA multi-user networks.

Exact SIR statistics, asymptote-matched closed forms and a Monte Carlo
ground-truth simulator for interference-limited fluid-antenna receivers,
plus a sweep harness and CLI for reproducing figure-style studies.

The namespace holds the README quick start's names and the two error
types; every other public name is imported from its module.
"""

import os

# OpenBLAS starts its worker threads when numpy loads, and an idle worker
# busy-waits 2^28 cycles (about 0.1 s) before it sleeps, at load and after
# every BLAS call: CPU that a cold run pays for no work. OpenBLAS reads this
# value once, as numpy loads it, so it must be set before the first import
# below; 2^24 cycles is a few ms. The thread count and the split of the work
# are unchanged, so every sample bit is too. A caller's own value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "24")

from .analytic import ChannelStats, QuadratureError, exact_er, exact_op
from .approx import approx_er, approx_op, beta_I
from .geometry import correlation_matrix, preset_grid
from .montecarlo import SeedSpec, SimConfig, mc_stderr, sir_samples
from .specfun import DomainError

__version__ = "0.1.0"
