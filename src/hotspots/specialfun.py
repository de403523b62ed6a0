"""Bessel functions of the first kind and log-gamma.

Evaluation of J_nu(x) for real order 0 <= nu <= 120 and 0 <= x <= MAX_ARG =
700 to the value contract |error| <= 1e-12 |J_nu(x)| + 3e-14, which the test
suite checks against mpmath and scipy.  |J_nu| <= 1, so the floor is
relative to the function's scale; near a zero, or where J_nu is tiny, the
relative error can be large.  Nothing certified rests on this contract: `zeros` proves its
bounds in exact arithmetic and uses these values only to find roots.

Two regimes are combined:

* an ascending power series (log-space prefactor, Kahan-compensated sum)
  wherever its own cancellation forecast meets the target accuracy --
  in particular everywhere well below the turning point x ~ nu;
* a Miller-type backward recurrence normalized by the generalized
  Neumann-series identity (x/2)^nu = sum_k (nu+2k) Gamma(nu+k)/k! J_{nu+2k}(x)
  for the oscillatory / turning-point regime, where the series cancels
  catastrophically.  The recurrence ladder is sized adaptively so both the
  seed decay and the truncated normalization tail are below 1e-17 relative.
  The tail's size is the first rung of a fixed ladder of orders whose
  Neumann term is below e^-40.  Those rungs form a suffix of the ladder, so
  `bisect` finds the same rung as a rung-by-rung walk, searching only up to
  a rung that provably passes.

A root search evaluates J_nu at one order some seven times, so the terms
that depend on nu alone are kept per order (`_order`, an lru_cache of the
eight most recent orders): the x-free parts of each ladder rung's test, the
recurrence coefficients 2(nu+m) and the Neumann weights w_k, each table no
longer than the longest ladder asked for at that order.  (lgamma(nu+1) is
not kept: it costs no more than the cache lookup that would replace it.)
Every entry is the expression the recurrence evaluated inline before the
tables, with the same operands in the same order, so every value is
bit-identical to it.  A table grows only by replacement: a longer tuple is
built aside and then bound, and a rung's terms enter their dict as one
finished tuple.  So a thread sees a whole table, older or newer,
never a half-built one; tables built concurrently are prefixes of the same
sequence, and whichever is bound last serves.
"""

from __future__ import annotations

import bisect
import functools
import math

from .errors import InfeasibleParameterError

_EPS = 2.220446049250313e-16

#: Largest supported order (covers dimension 200 zeros plus margin).
MAX_ORDER = 120.0

#: Largest supported argument of bessel_j.  Up to it the series' cancellation
#: forecast stays below e^662 over the orders (exp overflows above e^709), and
#: it covers the root search (x <= 164).
MAX_ARG = 700.0

#: Largest supported log-gamma argument.
MAX_LOG_GAMMA_ARG = 500.0


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for 0 < x <= 500.

    Thin wrapper over math.lgamma (accurate to a couple of ulp, well inside
    the 1e-12 relative contract) with explicit domain validation.
    """
    if not (x > 0.0):
        raise InfeasibleParameterError(f"log_gamma requires x > 0, got {x!r}")
    if x > MAX_LOG_GAMMA_ARG:
        raise InfeasibleParameterError(
            f"log_gamma supports x <= {MAX_LOG_GAMMA_ARG:g}, got {x!r}"
        )
    return math.lgamma(x)


def _series_forecast(nu: float, x: float) -> tuple[float, float]:
    """Predict (log10-ish) the ascending series' cancellation error.

    Returns (log_pref, forecast_abs_error) where log_pref is
    ln((x/2)^nu / Gamma(nu+1)) and the forecast approximates
    eps * n_terms * prefactor * max_term.
    """
    z = 0.25 * x * x
    lg_nu1 = math.lgamma(nu + 1.0)
    log_pref = nu * math.log(0.5 * x) - lg_nu1
    if z <= 1.0:
        # terms decay from the start; no hump
        return log_pref, math.exp(log_pref) * 40.0 * _EPS if log_pref > -700 else 0.0
    # |T_k| peaks where z = k(nu+k):  k* = (-nu + sqrt(nu^2+4z)) / 2
    k_star = 0.5 * (-nu + math.sqrt(nu * nu + 4.0 * z))
    log_tmax = (
        k_star * math.log(z)
        - math.lgamma(k_star + 1.0)
        - (math.lgamma(nu + 1.0 + k_star) - lg_nu1)
    )
    n_terms = k_star + 35.0
    log_err = log_pref + log_tmax + math.log(n_terms * _EPS)
    return log_pref, math.exp(log_err) if log_err > -700 else 0.0


def _series(nu: float, x: float, log_pref: float) -> float:
    """Ascending series sum_k (-1)^k z^k / (k! (nu+1)_k), Kahan-compensated."""
    z = 0.25 * x * x
    term = 1.0
    s = 1.0
    comp = 0.0
    k = 0
    while True:
        k += 1
        term *= -z / (k * (nu + k))
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if abs(term) <= 1e-18 * max(1.0, abs(s)) or k > 500:
            break
    if log_pref < -745.0:
        return 0.0
    return math.exp(log_pref) * s


#: Every rung at or above it meets the walk's test on the whole domain: for
#: k >= e^1.5 x/2 and k >= 20 the k-th Neumann term is below
#: (e z / k^2)^k <= e^-2k <= e^-40.  The same argument at one x bounds the
#: search there: every rung >= max(20, e^1.5 x/2) passes.
_RUNG_CAP = math.ceil(math.exp(1.5) * 0.5 * MAX_ARG)


@functools.lru_cache(maxsize=None)  # k0 <= MAX_ARG / 2 + 1: at most 351 ladders
def _ladder(k0: int) -> tuple[int, ...]:
    """The rungs k0, k + max(1, k // 8), ... up to the first one >= _RUNG_CAP."""
    rungs = [k0]
    while rungs[-1] < _RUNG_CAP:
        k = rungs[-1]
        rungs.append(k + max(1, k // 8))
    return tuple(rungs)


class _Order:
    """What bessel_j needs of the order nu alone, kept across calls at nu.

    rungs maps a ladder rung k to the two x-free parts of
    _neumann_ladder_top's log_rel.  coefs[m] is _miller's recurrence
    coefficient 2 (nu + m), and weights[k - 1] its Neumann weight w_k.
    """

    __slots__ = ("nu", "rungs", "coefs", "weights")

    def __init__(self, nu: float) -> None:
        self.nu = nu
        self.rungs: dict[int, tuple[float, float]] = {}
        self.coefs: tuple[float, ...] = ()
        self.weights: tuple[float, ...] = ()

    def rung(self, k: int) -> tuple[float, float]:
        """(log(nu+2k) + lgamma(nu+k) - lgamma(k+1), lgamma(nu+2k+1))."""
        terms = self.rungs.get(k)
        if terms is None:
            nu = self.nu
            terms = self.rungs[k] = (
                math.log(nu + 2.0 * k) + math.lgamma(nu + k) - math.lgamma(k + 1.0),
                math.lgamma(nu + 2.0 * k + 1.0))
        return terms

    def tables(self, m_top: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """coefs through m = m_top and weights through k = m_top/2 - 1."""
        nu = self.nu
        coefs = self.coefs
        if len(coefs) <= m_top:
            coefs = self.coefs = coefs + tuple(
                [2.0 * (nu + m) for m in range(len(coefs), m_top + 1)])
        weights = self.weights
        if len(weights) < m_top // 2 - 1:
            grown = list(weights) or [nu + 2.0]
            w = grown[-1]
            for k in range(len(grown) + 1, m_top // 2):
                w = w * (nu + 2.0 * k) * (nu + k - 1.0) / ((nu + 2.0 * k - 2.0) * k)
                grown.append(w)
            weights = self.weights = tuple(grown)
        return coefs, weights


@functools.lru_cache(maxsize=8)
def _order(nu: float) -> _Order:
    """The state of order nu; the eight most recent orders are kept."""
    return _Order(nu)


def _neumann_ladder_top(nu: float, x: float) -> int:
    """Even offset m = 2k where the normalization term drops below e^-40.

    The relative size of the k-th Neumann term against the whole sum is
    (nu+2k) Gamma(nu+k) z^k / (k! Gamma(nu+2k+1)) with z = (x/2)^2.  The
    answer is the first rung of the ladder k0 = floor((x-nu)/2) + 1,
    k + max(1, k // 8), ... whose log_rel is <= -40.

    log_rel is 0 at k = 0 (ln 2 for nu = 0) and concave in k: it rises, then
    falls, so the rungs that pass form a suffix of the ladder.  A bisection
    with the walk's expression finds the rung a rung-by-rung walk returns; it
    searches up to the first rung >= max(20, e^1.5 x/2), which passes (see
    _RUNG_CAP).  The test suite checks both facts over the Miller regime.
    """
    lhalf = math.log(0.5 * x)
    rung = _order(nu).rung

    def passes(k: int) -> bool:
        head, tail = rung(k)
        return head + 2.0 * k * lhalf - tail <= -40.0

    rungs = _ladder(max(1, int(0.5 * max(0.0, x - nu)) + 1))
    hi = bisect.bisect_left(rungs, max(20.0, math.exp(1.5) * 0.5 * x)) + 1
    return 2 * rungs[bisect.bisect_left(rungs, True, 0, hi, key=passes)]


def _miller(nu: float, x: float, log_pref: float) -> float:
    """Backward recurrence with Neumann normalization; log_pref as for _series.

    The recurrence starts from 1e-250 at order nu + m_top and is never
    rescaled.  On the supported domain (nu <= 120, x <= 700) no unnormalized
    value reaches 1e-100, far inside the float range: the largest over a scan
    of 45,000 Miller-regime points was 7e-118 (nu = 120, x = 645.5), and the
    test suite asserts the bound on a grid through the domain's corners.
    """
    m_tail = _neumann_ladder_top(nu, x)
    m_seed = int(math.ceil(max(nu, x) + 6.0 * x ** (1.0 / 3.0) + 30.0 - nu))
    m_top = max(m_tail, m_seed)
    if m_top % 2:
        m_top += 1

    j_up = 0.0  # unnormalized J at order nu + m + 1
    j_cur = 1e-250  # unnormalized J at order nu + m
    # two steps at a time: J at orders nu + m - 1, then nu + m - 2 (even)
    even = []
    # 2 (nu + m) and w_k from the order's tables: w_0 = Gamma(nu+1)-scaled
    # to 1, w_1 = nu+2, w_k = w_{k-1} (nu+2k)(nu+k-1) / ((nu+2k-2) k)
    coefs, weights = _order(nu).tables(m_top)
    for m in range(m_top, 0, -2):
        j_up = (coefs[m] / x) * j_cur - j_up
        j_cur = (coefs[m - 1] / x) * j_up - j_cur
        even.append(j_cur)
    even.reverse()  # even[k]: unnormalized J at order nu + 2k
    ssum = even[0]
    for w, e in zip(weights, even[1:]):
        ssum += w * e

    # only a series forecast above 2e-14 leads here, so exp(log_pref) is normal
    return math.exp(log_pref) * (j_cur / ssum)


def bessel_j(nu: float, x: float) -> float:
    """Evaluate J_nu(x) for 0 <= nu <= 120, 0 <= x <= 700 (see the module doc).

    Chooses the ascending series whenever its cancellation forecast meets the
    accuracy target, otherwise the Miller backward recurrence.

    Examples
    --------
    >>> bessel_j(0.0, 0.0)
    1.0
    >>> abs(bessel_j(0.5, math.pi)) < 1e-12
    True
    """
    if math.isnan(nu) or nu < 0.0 or nu > MAX_ORDER:
        raise InfeasibleParameterError(
            f"bessel_j supports orders 0 <= nu <= {MAX_ORDER:g}, got {nu!r}"
        )
    if not 0.0 <= x <= MAX_ARG:
        raise InfeasibleParameterError(
            f"bessel_j supports arguments 0 <= x <= {MAX_ARG:g}, got {x!r}"
        )
    if 0.5 * x == 0.0:  # includes subnormals whose halving underflows
        return 1.0 if nu == 0.0 else 0.0
    log_pref, forecast = _series_forecast(nu, x)
    if forecast <= 2e-14:
        return _series(nu, x, log_pref)
    return _miller(nu, x, log_pref)
