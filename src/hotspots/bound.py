"""Evaluate and minimize the Hot Spots upper bound over (epsilon, a).

For a ratio bound r = r(d) in (0, 1) and a V-function V, the Hot Spots
constant of any domain in the class satisfies

    C <= e^{r a} * (1 + r * V(eps, d) / (1 - eps - r) * e^{-(1-eps) a})

for every (eps, a) in A_d = (0, 1-r) x [0, inf).  The second term is always
assembled in log space: exp(r a + ln r + ln V - ln(1-eps-r) - (1-eps) a).

The minimization is reduced analytically in a: for fixed eps the objective is
convex in a with unique stationary point

    a*(eps) = ln V(eps, d) / (1 - eps),

where the objective equals V^{r/(1-eps)} * (1-eps)/(1-eps-r).  (The test
suite validates this reduction against brute-force grid minimization.)  A
golden-section search over eps finishes the job.  `_objective` is the one
copy of the objective's arithmetic: `bound_value` and each step of the
search call it.

The module also evaluates the finite-horizon four-parameter bound

    ( e^{ra} - V(delta,d) e^{-rho_delta b}
      + (r V(eps,d)/rho_eps) (e^{-rho_eps a} - e^{-rho_eps b}) )
    / ( 1 - V(delta,d) e^{-rho_delta b} ),        rho_x = 1 - x - r,

whose b -> infinity limit is exactly the two-parameter bound above.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import FiniteHorizonConstraintError, InfeasibleParameterError
from .vfunction import CustomTable, VKind, log_v, log_v_curve

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS_EDGE = 1e-6


class BoundResult(record("BoundResult",
                         "d r epsilon_star a_star bound evaluations vkind")):
    """Minimizer and value for one dimension."""

    __slots__ = ()

    def __new__(cls, d: int, r: float, epsilon_star: float, a_star: float,
                bound: float, evaluations: int, vkind: VKind):
        if not bound > 1.0:
            raise InfeasibleParameterError(f"bound must exceed 1, got {bound!r}")
        return super().__new__(cls, d, r, epsilon_star, a_star, bound,
                               evaluations, vkind)


def bound_value(d: int, r: float, vkind: VKind, epsilon: float, a: float,
                vtable: CustomTable | None = None) -> float:
    """The objective at one feasible point (epsilon, a) in A_d."""
    if not (0.0 < r < 1.0):
        raise InfeasibleParameterError(f"r must lie in (0, 1), got {r!r}")
    if not (0.0 < epsilon < 1.0 - r):
        raise InfeasibleParameterError(
            f"epsilon={epsilon!r} outside the feasible interval (0, {1.0 - r:g})"
        )
    if not a >= 0.0:
        raise InfeasibleParameterError(f"a must be >= 0, got {a!r}")
    return _objective(r, math.log(r), epsilon, a,
                      log_v(vkind, epsilon, d, table=vtable))


def _objective(r: float, log_r: float, epsilon: float, a: float,
               lv: float) -> float:
    """bound_value's arithmetic, given log_r = ln r and lv = ln V(epsilon, d)."""
    ra = r * a
    if ra > 700.0:
        raise InfeasibleParameterError("r*a too large; e^{ra} overflows")
    second = math.exp(
        ra + log_r + lv - math.log(1.0 - epsilon - r) - (1.0 - epsilon) * a
    )
    return math.exp(ra) + second


def optimal_a(epsilon: float, r: float, log_v_value: float) -> float:
    """Stationary point a*(eps) = ln V / (1 - eps) of the objective in a."""
    if not (0.0 < epsilon < 1.0 - r):
        raise InfeasibleParameterError(
            f"epsilon={epsilon!r} outside the feasible interval (0, {1.0 - r:g})"
        )
    if log_v_value < 0.0:
        raise InfeasibleParameterError(
            f"ln V must be >= 0, got {log_v_value!r}"
        )
    return log_v_value / (1.0 - epsilon)


def optimize_bound(d: int, r: float, vkind: VKind, tolerance: float = 1e-9,
                   vtable: CustomTable | None = None) -> BoundResult:
    """Minimize the bound over A_d: analytic inner a, golden-section on eps.

    Each step of the search is one call of the inner `point(eps)`: ln V from
    the curve built once per query (never below 0, as a table is checked
    when its curve is built), a*(eps) = ln V / (1 - eps), and `_objective`.
    The float operations and their order are those of `optimal_a` and
    `_objective`, so every result is the same to the bit as theirs.

    Examples
    --------
    >>> from .ratio import RatioKind, ratio_upper_bound
    >>> r = ratio_upper_bound(4, RatioKind.CLOSED_FORM)
    >>> optimize_bound(4, r, VKind.VOGT).bound > 1.0
    True
    """
    if not (0.0 < r < 1.0):
        raise InfeasibleParameterError("ratio bound must lie in (0, 1)")
    if not (1e-12 <= tolerance <= 1e-2):
        raise InfeasibleParameterError(
            f"tolerance must lie in [1e-12, 1e-2], got {tolerance!r}"
        )
    # what depends on d and r only: once per query, not once per step.  The
    # curve refuses a missing or invalid table, and checks a plain one once
    curve = log_v_curve(vkind, d, vtable)
    log_r = math.log(r)
    evals = 0

    def point(eps: float) -> tuple[float, float]:
        """(a*(eps), objective at (eps, a*(eps)))."""
        nonlocal evals
        evals += 1
        lv = curve(eps)  # eps lies in (0, 1 - r), as log_v would check
        a = lv / (1.0 - eps)  # optimal_a's arithmetic
        return a, _objective(r, log_r, eps, a, lv)

    lo = _EPS_EDGE
    hi = 1.0 - r - _EPS_EDGE
    custom = vkind is VKind.CUSTOM
    if custom:
        # log_v refuses to extrapolate a table, so search only its range;
        # float() gives the value the checked table stores
        lo = max(lo, float(vtable[0][0]))
        hi = min(hi, float(vtable[-1][0]))
    if hi <= lo:
        raise InfeasibleParameterError(
            f"feasible epsilon interval is empty for r={r:g}"
            + (" inside the V table's epsilon range" if custom else "")
        )
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = point(x1)[1], point(x2)[1]
    while hi - lo > tolerance:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = point(x1)[1]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = point(x2)[1]
    eps_star = 0.5 * (lo + hi)
    a_star, best = point(eps_star)
    return BoundResult(d=d, r=r, epsilon_star=eps_star, a_star=a_star,
                       bound=best, evaluations=evals, vkind=vkind)


def finite_b_bound(d: int, r: float, vkind: VKind, eps: float, delta: float,
                   a: float, b: float, vtable: CustomTable | None = None) -> float:
    """The finite-horizon four-parameter bound (see module docstring).

    Raises FiniteHorizonConstraintError when the denominator weight
    V(delta, d) e^{-(1-delta-r) b} is not below 1.
    """
    if not (0.0 < eps < 1.0):
        raise InfeasibleParameterError("epsilon must lie in (0, 1)")
    if not (0.0 < delta <= 1.0):
        raise InfeasibleParameterError("delta must lie in (0, 1]")
    if not (0.0 <= a <= b):
        raise InfeasibleParameterError("need 0 <= a <= b")
    if not (0.0 < r < 1.0):
        raise InfeasibleParameterError(f"r must lie in (0, 1), got {r!r}")
    if not eps < 1.0 - r:
        raise InfeasibleParameterError(
            f"epsilon={eps!r} outside the feasible interval (0, {1.0 - r:g})"
        )
    rho_eps = 1.0 - eps - r
    rho_delta = 1.0 - delta - r
    lv_eps = log_v(vkind, eps, d, table=vtable)
    lv_delta = log_v(vkind, delta, d, table=vtable)

    log_w = lv_delta - rho_delta * b
    if log_w >= 0.0:
        raise FiniteHorizonConstraintError(
            "denominator weight V(delta, d) * exp(-(1-delta-r) b) = "
            f"exp({log_w:.6g}) is not below 1; increase b or decrease delta"
        )
    w = math.exp(log_w)

    ra = r * a
    if ra > 700.0:
        raise InfeasibleParameterError("r*a too large; e^{ra} overflows")
    # r V(eps) / rho_eps * e^{-rho_eps a}  and the matching b term, in logs
    log_coeff = math.log(r) + lv_eps - math.log(rho_eps)
    term_a = math.exp(log_coeff - rho_eps * a)
    term_b = math.exp(log_coeff - rho_eps * b)
    numerator = math.exp(ra) - w + (term_a - term_b)
    return numerator / (1.0 - w)
