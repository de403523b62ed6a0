"""First Bessel zeros and p-roots with directed rounding.

Two root families feed the ratio bound r(d):

* ``j_{nu,1}`` — the first positive zero of J_nu;
* ``p_{d/2,1}`` — the first positive root of d/dx[x^{1-d/2} J_{d/2}(x)].

Using the derivative identity d/dx[x^{-nu} J_nu(x)] = -x^{-nu} J_{nu+1}(x)
with nu = d/2,

    d/dx[x^{1-d/2} J_{d/2}(x)] = x^{-d/2} (J_{d/2}(x) - x J_{d/2+1}(x)),

so the p-root is the first positive solution of the reduced equation
J_{d/2}(x) = x * J_{d/2+1}(x).  (The test suite re-verifies this reduction by
finite differences at every computed root.)

Roots are bracketed by an upward scan in steps of 0.25, bisected, polished by
secant, and finally rounded outward ("directed") so that the squared values
bracket the true square: value_squared_down <= value^2 <= value_squared_up.
Each value carries its evaluation error, so J is evaluated once per point.
The j-zero scan skips, without evaluating J, the lattice points below the
Qu-Wong lower bound j_{nu,1} > nu + 1.8557571 nu^{1/3}.  It stays on the
lattice that starts at sqrt(2nu+2), so it brackets the root within five
scan steps instead of up to 416 and finds, bit for bit, the root a scan
from sqrt(2nu+2) finds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .errors import AccuracyError, InfeasibleParameterError
from .specialfun import bessel_j

_EPS = 2.220446049250313e-16

_SCAN_STEP = 0.25
_BISECT_TOL = 1e-6
_SECANT_TOL = 1e-12


class RootFamily(enum.Enum):
    """Which defining equation a root satisfies."""

    J_ZERO = "jzero"
    P_ROOT = "proot"


@dataclass(frozen=True)
class BesselZeroRecord:
    """A computed root with directed-rounding companions.

    residual is the defining function evaluated at value (J_nu for J_ZERO,
    the reduced equation for P_ROOT).
    """

    nu: float
    family: RootFamily
    value: float
    value_squared_up: float
    value_squared_down: float
    residual: float

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise AccuracyError(f"root must be positive, got {self.value!r}")
        sq = self.value * self.value
        if not (self.value_squared_down <= sq <= self.value_squared_up):
            raise AccuracyError("directed square interval does not contain value^2")
        if abs(self.residual) > 1e-10:
            raise AccuracyError(
                f"residual {self.residual!r} exceeds the 1e-10 contract"
            )


def _find_root(
    f: Callable[[float], tuple[float, float]],
    x_start: float,
    x_cap: float,
    what: str,
) -> tuple[float, float, float]:
    """Scan upward for the first sign change of f, bisect, then secant-polish.

    f(x) returns (value, abs_error), is positive at x_start, and the result
    is (root, residual, error_estimate).  The error stored with the root
    widens the estimate so that regimes where f is cancellation-dominated
    (both Bessel terms deep under their turning points) stay honest.
    """
    x0 = x_start
    f0 = f(x0)
    if not f0[0] > 0.0:
        raise AccuracyError(
            f"{what}: defining function not positive at scan start x={x0:.6g}"
        )
    while True:
        x1 = x0 + _SCAN_STEP
        if x1 > x_cap:
            raise AccuracyError(f"{what}: no sign change up to x={x_cap:.6g}")
        f1 = f(x1)
        if f1[0] <= 0.0:
            break
        x0, f0 = x1, f1

    lo, flo, hi, fhi = x0, f0, x1, f1
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm[0] > 0.0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm

    # chord slope over the bisection bracket: the function values here sit
    # far above evaluation noise, unlike late secant steps
    slope_ref = (fhi[0] - flo[0]) / (hi - lo)

    # secant polish inside [lo, hi]; fa, fb and best_f are (value, error)
    xa, fa = lo, flo
    xb, fb = hi, fhi
    best_x, best_f = (xb, fb) if abs(fb[0]) < abs(fa[0]) else (xa, fa)
    for _ in range(80):
        denom = fb[0] - fa[0]
        if denom == 0.0:
            break
        x_new = xb - fb[0] * (xb - xa) / denom
        if not (lo <= x_new <= hi):
            x_new = 0.5 * (lo + hi)
        if x_new == xb:  # f(xb) is known and cannot improve best_f
            break
        f_new = fa if x_new == xa else f(x_new)  # a step can land back on xa
        if f_new[0] > 0.0:
            lo = max(lo, x_new)
        else:
            hi = min(hi, x_new)
        xa, fa = xb, fb
        xb, fb = x_new, f_new
        if abs(fb[0]) < abs(best_f[0]):
            best_x, best_f = xb, fb
        if abs(x_new - xa) <= _SECANT_TOL and abs(fb[0]) <= abs(fa[0]):
            break

    slope_mag = max(abs(slope_ref), 1e-300)
    residual, noise = best_f
    err = (abs(residual) + 2.0 * noise) / slope_mag + 4.0 * _EPS * best_x
    return best_x, residual, err


def _record(nu: float, family: RootFamily, root: float, residual: float,
            err: float) -> BesselZeroRecord:
    up_val = root + 2.0 * err
    down_val = max(root - 2.0 * err, 0.0)
    sq_up = math.nextafter(up_val * up_val, math.inf)
    sq_down = math.nextafter(down_val * down_val, 0.0)
    return BesselZeroRecord(
        nu=nu,
        family=family,
        value=root,
        value_squared_up=sq_up,
        value_squared_down=sq_down,
        residual=residual,
    )


def _jzero_scan_start(nu: float) -> float:
    """Where the j-zero scan starts: the last lattice point below Qu-Wong.

    Lorch: j^2 > d(d+8)/4 >= d with d = 2(nu+1), so sqrt(2nu+2) is below j.
    Qu and Wong (Trans. AMS 351 (1999) 2833-2859): j > nu + 1.8557571 nu^{1/3}
    for all nu > 0, so J_nu keeps its sign on every scan point below that.
    The start advances by the scan's own += _SCAN_STEP additions, so every
    point evaluated from there on is the float the full scan would evaluate
    and the bracket, and hence the root, stays bit-identical.
    """
    start = max(1.0, math.sqrt(2.0 * nu + 2.0))
    # constant rounded down; 1e-9 covers the rounding of **; the bound is 0 at nu = 0
    lower = nu + 1.855757 * nu ** (1.0 / 3.0) - 1e-9
    while start + _SCAN_STEP < lower:
        start += _SCAN_STEP
    return start


def first_bessel_zero(nu: float) -> BesselZeroRecord:
    """First positive zero j_{nu,1} of J_nu, for 0 <= nu <= 110.

    Examples
    --------
    >>> rec = first_bessel_zero(0.5)
    >>> abs(rec.value - math.pi) < 1e-10
    True
    """
    if math.isnan(nu) or nu < 0.0 or nu > 110.0:
        raise InfeasibleParameterError(
            f"first_bessel_zero supports 0 <= nu <= 110, got {nu!r}"
        )

    def f(x: float) -> tuple[float, float]:
        r = bessel_j(nu, x)
        return r.value, r.est_abs_error

    start = _jzero_scan_start(nu)
    cap = nu + 10.0 * max(1.0, nu) ** (1.0 / 3.0) + 6.0
    root, residual, err = _find_root(f, start, cap, f"j-zero nu={nu:g}")
    return _record(nu, RootFamily.J_ZERO, root, residual, err)


def first_p_root(d: int) -> BesselZeroRecord:
    """First positive root p_{d/2,1} of the reduced equation, 2 <= d <= 200.

    The reduced equation is J_{d/2}(x) - x*J_{d/2+1}(x) = 0; its first root is
    the first maximum of x^{1-d/2} J_{d/2}(x).
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise InfeasibleParameterError(f"first_p_root expects an integer d, got {d!r}")
    if d < 2 or d > 200:
        raise InfeasibleParameterError(f"first_p_root supports 2 <= d <= 200, got {d}")
    nu = 0.5 * d

    def g(x: float) -> tuple[float, float]:
        r1 = bessel_j(nu, x)
        r2 = bessel_j(nu + 1.0, x)
        return (r1.value - x * r2.value,
                r1.est_abs_error + x * r2.est_abs_error + _EPS * abs(x * r2.value))

    start = max(1.0, math.sqrt(float(d)))
    cap = math.sqrt(d + 2.0) + 1.0  # p^2 < d + 2 (Szego)
    root, residual, err = _find_root(g, start, cap, f"p-root d={d}")
    return _record(nu, RootFamily.P_ROOT, root, residual, err)
