"""Rigorous dimension-dependent upper bounds on the Hot Spots constant.

Library layout:

* specialfun — Bessel J_nu evaluation and log-gamma;
* zeros — first Bessel zeros j_{nu,1} and p-roots, squares proven by exact signs;
* ratio — the ratio upper bound r(d) in its four kinds;
* vfunction — Vogt / improved-Vogt exit-time prefactors, in log space;
* bound — the two-parameter bound, its minimization, and the finite-horizon
  four-parameter bound;
* asymptotic — the parameter family whose bound tends to sqrt(e);
* montecarlo — exit-time simulation and empirical V-bound validation;
* cli — the `hotspots` command-line front end.

`montecarlo`, and numpy with it, loads on first use: the first read of one of
its names here, or the first `verify-vbound` run.  The other commands never
load it.
"""

from .asymptotic import asymptotic_bound, feasible_threshold, sweep
from .bound import BoundResult, bound_value, finite_b_bound, optimal_a, optimize_bound
from .errors import (
    AccuracyError,
    FiniteHorizonConstraintError,
    HotspotsError,
    InfeasibleParameterError,
)
from .ratio import RatioKind, ratio_upper_bound
from .specialfun import bessel_j, log_gamma
from .vfunction import VKind, load_custom_table, log_v
from .zeros import BesselZeroRecord, RootFamily, first_bessel_zero, first_p_root

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "Ball",
    "BesselZeroRecord",
    "BoundResult",
    "Box",
    "FiniteHorizonConstraintError",
    "HotspotsError",
    "InfeasibleParameterError",
    "RatioKind",
    "RootFamily",
    "SimConfig",
    "SimDomain",
    "TailEstimate",
    "VBoundReport",
    "VKind",
    "__version__",
    "asymptotic_bound",
    "bessel_j",
    "bound_value",
    "check_vbound",
    "default_dt",
    "default_t_grid",
    "estimate_survival",
    "feasible_threshold",
    "finite_b_bound",
    "first_bessel_zero",
    "first_p_root",
    "load_custom_table",
    "log_gamma",
    "log_v",
    "optimal_a",
    "optimize_bound",
    "principal_eigenvalue",
    "ratio_upper_bound",
    "sample_exit_times",
    "sweep",
]

#: served by `__getattr__` from `hotspots.montecarlo`, which imports numpy
_MONTECARLO_NAMES = frozenset({
    "Ball",
    "Box",
    "SimConfig",
    "SimDomain",
    "TailEstimate",
    "VBoundReport",
    "check_vbound",
    "default_dt",
    "default_t_grid",
    "estimate_survival",
    "principal_eigenvalue",
    "sample_exit_times",
})


def __getattr__(name: str):
    """A Monte Carlo name of `__all__`, imported on first read (PEP 562)."""
    if name not in _MONTECARLO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import montecarlo

    return getattr(montecarlo, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MONTECARLO_NAMES)
