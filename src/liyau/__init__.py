"""Gradient-inequality verification toolkit for heat semigroups.

Model geometries reduce to weighted 1-D generators; the package solves
their Neumann heat flow, evaluates a catalog of closed-form gradient
bounds (gamma X <= a Y + c for X = |grad u|^2/u^2, Y = Lu/u), and
cross-checks the probabilistic right-hand sides by simulating the
reflected diffusion with its boundary local time.

Importing the package sets OPENBLAS_NUM_THREADS to 1, unless the caller
set it or numpy is already loaded, so numpy's OpenBLAS starts no thread
pool: the package calls BLAS only for its small quadrature rules.

The MC layer (`clocks` and `stochastic`, and with them numpy.random) is
imported on the first access to one of its names here, and by `harness`
only for a config with mc rows, so a run without them never loads it.
`__all__` lists its names all the same.
"""

import importlib as _importlib
import os as _os
import sys as _sys

# OpenBLAS reads this once, when numpy loads it; its pool of threads costs
# CPU at every start-up and no call of this package is large enough to use it
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .geometry import ModelManifold, make_model_manifold, manifold_from_dict
from .heatflow import (HeatState, InitialDatum, exact_kernel, initial_datum,
                       solve_heat)
from .bounds import (BoundForm, CheckResult, Margins, NonconvexData,
                     beta_t_alpha, bound_margins,
                     check_inequality, eval_bound, local_betas,
                     nonconvex_bound_rhs, nonconvex_constants, phi_bbg)
from .harness import ExperimentConfig, Report, emit_report, run_experiment

# the MC layer's modules and the names taken from them, loaded on demand
_LAZY = {"clocks": ("Clock", "alpha_form_integral", "clock_integrals",
                    "gamma_integral", "make_clock"),
         "stochastic": ("Estimate", "cutoff_growth_check",
                        "estimate_functional", "expected_local_time",
                        "expected_value_at", "local_time_moment")}

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [*_LAZY, *(name for names in _LAZY.values()
                              for name in names)])


def __getattr__(name):
    """A name of the MC layer, imported on its first access."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = _importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
