"""Performance analysis of CUMA multi-user networks.

Exact SIR statistics, asymptote-matched closed forms and a Monte Carlo
ground-truth simulator for interference-limited fluid-antenna receivers,
plus a sweep harness and CLI for reproducing figure-style studies.
"""

from .analytic import (
    ChannelStats,
    ExactLaw,
    QuadratureError,
    cov_pair,
    exact_er,
    exact_op,
    exact_pdf_z,
    exact_pdf_zI,
    exact_sop,
    sigma_sums,
    sop_lower_numeric,
)
from .approx import (
    approx_cdf_z,
    approx_er,
    approx_op,
    approx_pdf_z,
    approx_pdf_zI,
    asymptote_a0,
    beta_I,
    sop_lower_closed,
)
from .geometry import (
    CorrelationMatrix,
    PortGrid,
    correlation_matrix,
    grid_from_aperture,
    offset_correlation,
    preset_grid,
    preset_names,
)
from .harness import ComparisonReport, KSReport, SweepSpec, compare_distributions, ks_statistic, run_sweep
from .montecarlo import SeedSpec, SimConfig, mc_estimate, select_ports, sir_sample, sir_samples
from .specfun import DomainError

__version__ = "0.1.0"
