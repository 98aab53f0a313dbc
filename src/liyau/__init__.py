"""Gradient-inequality verification toolkit for heat semigroups.

Model geometries reduce to weighted 1-D generators; the package solves
their Neumann heat flow, evaluates a catalog of closed-form gradient
bounds (gamma X <= a Y + c for X = |grad u|^2/u^2, Y = Lu/u), and
cross-checks the probabilistic right-hand sides by simulating the
reflected diffusion with its boundary local time.

Importing the package sets OPENBLAS_NUM_THREADS to 1, unless the caller
set it or numpy is already loaded, so numpy's OpenBLAS starts no thread
pool: the package calls BLAS only for its small quadrature rules.
"""

import os as _os
import sys as _sys

# OpenBLAS reads this once, when numpy loads it; its pool of threads costs
# CPU at every start-up and no call of this package is large enough to use it
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .geometry import (CdCheckReport, ModelManifold, cd_check,
                       laplacian_comparison, make_model_manifold,
                       manifold_from_dict, with_curvature)
from .heatflow import (HeatState, InitialDatum, exact_kernel,
                       gaussian_kernel_state, harnack_quantities,
                       initial_datum, solve_heat)
from .clocks import Clock, alpha_form_integral, clock_integrals, \
    gamma_integral, make_clock
from .bounds import (BoundForm, CheckResult, Margins, NonconvexData,
                     beta_t_alpha, bound_margins,
                     check_inequality, eval_bound, local_betas,
                     nonconvex_bound_rhs, nonconvex_constants, phi_bbg)
from .stochastic import (Estimate, cutoff_growth_check, estimate_functional,
                         expected_local_time, expected_value_at,
                         local_time_moment)
from .harness import ExperimentConfig, Report, emit_report, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
