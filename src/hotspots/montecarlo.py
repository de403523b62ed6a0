"""Exit-time Monte Carlo: empirical validation of the V-bound.

Samples the exit times of Brownian motion run at twice the usual speed
(per-coordinate variance 2t, generator = full Laplacian) from a Ball or a
Box, estimates the survival function P(tau_D > t) with Clopper-Pearson
intervals, and checks it against V(eps, d) * exp(-(1-eps) * lambda_D * t).

Every exit time is drawn from its exact law; nothing is stepped.  A box is
the product of its intervals and the coordinates move independently, so
tau = min_j tau_j, where tau_j is the exit time of coordinate j from
(0, L_j).  Each tau_j is drawn by inverting its survival series
(_interval_inverse).  A ball is entered at its centre only, and its exit
time is drawn by inverting the centre's Bessel eigen-series
(_centre_inverse), summed in fixed point.  Each exit time is reported
rounded up to a whole number of steps dt; one beyond the largest float
reads as inf.

Reproducibility: paths are split into chunks of chunk_size, and chunk i
draws from the Philox counter-based stream `Philox(key=seed).jumped(i)` for
its own paths only: one uniform per coordinate of a box, or one per path
from a ball's centre.  The same (seed, chunk_size) therefore yields the
same exit times, in chunk order.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable

import numpy as np

from ._format import payload_checksum
from ._record import record
from .errors import AccuracyError, InfeasibleParameterError
from .vfunction import VKind, log_v
from .specialfun import proven_sign, series_bits, series_sum
from .zeros import first_bessel_zero, next_bessel_zero, zero_spacing

#: Most paths one simulation may take.  A run holds about 24 B per path (exit
#: time, its grid index and a temporary), so 10^8 paths need about 2.4 GB; a
#: larger count fails at once instead of in numpy's allocator.
_MAX_PATHS = 10 ** 8

#: Most points verify-vbound's time grid may have.  A run holds under 600 B
#: per grid point (the grid, the survival curve, its two limits and the
#: bound as float tuples and lists, and the JSON text), so 1,500,001 points
#: need under 1 GB; a larger count is refused before the grid is built.
_MAX_GRID_POINTS = 1_500_001

#: default_t_grid ends at lambda_D * t = 12.
_GRID_DECAY = 12.0


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InfeasibleParameterError(f"dim must be an integer >= 1, got {dim!r}")


class Ball(record("Ball", "radius dim")):
    """The ball of the given radius centered at the origin of R^dim."""

    __slots__ = ()

    def __new__(cls, radius: float, dim: int):
        _check_dim(dim)
        if dim > 222:  # first_bessel_zero finds zeros of J_nu for nu <= 110
            raise InfeasibleParameterError(f"a ball supports dim <= 222, got {dim}")
        if not (0.0 < radius < math.inf):
            raise InfeasibleParameterError(
                f"ball needs a positive finite radius, got {radius!r}"
            )
        return super().__new__(cls, radius, dim)

    def center(self) -> tuple[float, ...]:
        return (0.0,) * self.dim


class Box(record("Box", "sides")):
    """The axis box prod_i (0, L_i).  sides is stored as a tuple, so a box
    given a list is still an immutable, hashable record."""

    __slots__ = ()

    def __new__(cls, sides: tuple[float, ...]):
        sides = tuple(sides)
        _check_dim(len(sides))
        if not all(0.0 < s < math.inf for s in sides):
            raise InfeasibleParameterError("box sides must be positive and finite")
        return super().__new__(cls, sides)

    @property
    def dim(self) -> int:
        return len(self.sides)

    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * s for s in self.sides)


#: The Monte Carlo domains: annotations name this union.
SimDomain = Ball | Box


class SimConfig(record("SimConfig", "domain start dt n_paths t_grid seed chunk_size")):
    """Everything one simulation depends on (and nothing else).

    chunk_size is the unit of the random stream: chunk i, of chunk_size
    paths, draws from Philox(key=seed) jumped i times.  Chunks are drawn one
    at a time, so at most chunk_size paths' draws are in flight at once.

    dt is the resolution of the exit times: each is drawn from its exact
    law and reported rounded up to a whole number of steps dt, so a finer
    dt costs nothing.  t_grid holds finite times >= 0, strictly increasing.
    A ball starts at its centre, where its law is known; a box anywhere inside.
    """

    __slots__ = ()

    def __new__(cls, domain: SimDomain, start: tuple[float, ...], dt: float,
                n_paths: int, t_grid: tuple[float, ...], seed: int,
                chunk_size: int = 65536):
        if len(start) != domain.dim:
            raise InfeasibleParameterError("start point has wrong dimension")
        if not (dt > 0.0 and math.isfinite(dt)):
            raise InfeasibleParameterError(f"dt must be positive, got {dt!r}")
        # a float or bool would pass the range checks below, then run another
        # seed's stream or fail inside numpy
        for name, value in (("n_paths", n_paths), ("chunk_size", chunk_size),
                            ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InfeasibleParameterError(f"{name} must be an integer, got {value!r}")
        if n_paths < 1:
            raise InfeasibleParameterError("n_paths must be >= 1")
        if n_paths > _MAX_PATHS:
            raise InfeasibleParameterError(
                f"n_paths={n_paths} is too many; at most {_MAX_PATHS:.0e} are allowed"
            )
        if chunk_size < 1:
            raise InfeasibleParameterError("chunk_size must be >= 1")
        if not (0 <= seed < 2 ** 64):
            raise InfeasibleParameterError("seed must be a 64-bit unsigned integer")
        if not all(0.0 <= t < math.inf for t in t_grid):
            raise InfeasibleParameterError("t_grid times must be finite and >= 0")
        diffs = [b - a for a, b in zip(t_grid, t_grid[1:])]
        if any(h <= 0.0 for h in diffs):
            raise InfeasibleParameterError("t_grid must be strictly increasing")
        if diffs and dt > min(diffs) / 10.0:
            raise InfeasibleParameterError(
                "dt must be at most one tenth of the smallest t_grid spacing"
            )
        if isinstance(domain, Ball) and any(start):
            raise InfeasibleParameterError(
                "a ball's exit times are drawn from its centre; start must be the centre")
        if _start_distance(domain, start) < -1e-12:
            raise InfeasibleParameterError("start lies outside the domain")
        return super().__new__(cls, domain, start, dt, n_paths, t_grid, seed, chunk_size)

    def fingerprint(self) -> str:
        dom = self.domain
        if isinstance(dom, Ball):
            shape = {"shape": "ball", "radius": dom.radius, "sides": None}
        else:
            shape = {"shape": "box", "radius": None, "sides": list(dom.sides)}
        payload = {
            **shape,
            "dim": dom.dim,
            "start": list(self.start),
            "dt": self.dt,
            "n_paths": self.n_paths,
            "t_grid": list(self.t_grid),
            "seed": self.seed,
            # a constant: the key stays, so every fingerprint keeps its bytes
            "bridge_correction": True,
            "chunk_size": self.chunk_size,
        }
        return payload_checksum(payload)


class TailEstimate(record("TailEstimate",
                          "t_grid survival ci_low ci_high n_paths config_fingerprint")):
    """Empirical survival probabilities with 95% confidence intervals."""

    __slots__ = ()

    def __new__(cls, t_grid: tuple[float, ...], survival: tuple[float, ...],
                ci_low: tuple[float, ...], ci_high: tuple[float, ...], n_paths: int,
                config_fingerprint: str):
        n = len(t_grid)
        if not (len(survival) == len(ci_low) == len(ci_high) == n):
            raise InfeasibleParameterError("tail estimate arrays must align")
        if any(b > a + 1e-15 for a, b in zip(survival, survival[1:])):
            raise AccuracyError("survival must be nonincreasing over t_grid")
        for lo, s, hi in zip(ci_low, survival, ci_high):
            if not (lo <= s <= hi):
                raise AccuracyError("confidence interval must contain the estimate")
        return super().__new__(cls, t_grid, survival, ci_low, ci_high, n_paths,
                               config_fingerprint)


class VBoundReport(record("VBoundReport", "passed worst_margin worst_index bound_curve")):
    """Outcome of one V-bound check against a tail estimate."""

    __slots__ = ()


def _start_distance(domain: SimDomain, point: tuple[float, ...]) -> float:
    """Distance from point to the boundary; negative outside."""
    if isinstance(domain, Ball):
        return domain.radius - math.sqrt(sum(c * c for c in point))
    return min(min(c, s - c) for c, s in zip(point, domain.sides))


@functools.lru_cache(maxsize=64)
def _ball_zero(dim: int) -> float:
    """j_{dim/2-1,1} (pi/2, cos's first zero, for dim = 1), cached, as every
    ball's eigenvalue in R^dim and its centre's table need it."""
    return first_bessel_zero(0.5 * dim - 1.0).value if dim > 1 else 0.5 * math.pi


def principal_eigenvalue(domain: SimDomain) -> float:
    """First Dirichlet eigenvalue of the (full) Laplacian on the domain.

    With the twice-speed convention the exit-time tail decays at exactly this
    rate.  Ball of radius R in dimension d: j_{d/2-1,1}^2 / R^2; box with
    sides L: pi^2 * sum_i 1/L_i^2.  A domain so large that the eigenvalue
    underflows to 0.0, or so small that it overflows, is rejected.

    Examples
    --------
    >>> abs(principal_eigenvalue(Box((1.0, 1.0))) - 2.0 * math.pi ** 2) < 1e-12
    True
    """
    try:
        if isinstance(domain, Box):
            lam = math.pi ** 2 * sum(1.0 / (s * s) for s in domain.sides)
        else:
            lam = (_ball_zero(domain.dim) / domain.radius) ** 2
    except (ZeroDivisionError, OverflowError):  # a side's square is 0.0, or lam > 1e308
        lam = math.inf
    if not 0.0 < lam < math.inf:
        raise InfeasibleParameterError(
            f"the domain's principal eigenvalue is {lam!r}, not a positive "
            "finite float: its size is out of range"
        )
    return lam


#: _interval_table's nodes: at most _TABLE_STEP apart in ln t up to
#: _TABLE_END, summed by the image series up to _IMAGE_END and by the odd
#: terms k = 1..21 of the eigen series above it.
_TABLE_STEP = 1.0 / 300.0
_IMAGE_END = 0.01
_TABLE_END = 0.5
_ODD_K_PI = np.arange(1, 22, 2) * math.pi

#: ln of the size below which a table's term c_k e^(-lam_k t) is left out.
#: e^-650 is far below every sum such a term joins, and above the smallest
#: normal float, so no term or product underflows.
_LN_NEGLIGIBLE = -650.0


def _exp_sum(t: np.ndarray, lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k exp(-lam_k t) for each t (all c_k != 0), without the terms
    where exp(-lam_k t) or the term itself is below e^_LN_NEGLIGIBLE.
    Every term kept is the same float as in the full sum, and each one left
    out is below e^-650 max(1, |c_k|)."""
    exponent = np.multiply.outer(t, -lam)
    keep = np.minimum(exponent, exponent + np.log(np.abs(c))) >= _LN_NEGLIGIBLE
    terms = np.zeros_like(exponent)
    np.exp(exponent, out=terms, where=keep)
    return terms @ c


#: _table_inverse's guide has the fewest buckets, a power of two, that give
#: each node at least four, but at least _GUIDE_MIN and at most _GUIDE_MAX
#: (two arrays of 256 KB): only start fractions below about 1e-3 reach it.
_GUIDE_MIN = 1 << 10
_GUIDE_MAX = 1 << 15


def _table_inverse(t: np.ndarray, s: np.ndarray, c_1: float,
                   lam_1: float) -> Callable[[np.ndarray], np.ndarray]:
    """T with S(T(v)) = v, from S tabulated at ascending nodes t > 0.

    T is linear in v between nodes, and between t = 0 (S = 1) and the first
    node.  Below the last node's value, where S(t) is taken as
    c_1 exp(-lam_1 t), T(v) = ln(c_1 / v) / lam_1.  s must be nonincreasing;
    the returned function maps an array of v in [2^-53, 1] to T(v).

    With the values ascending, s_up = (s_{n-1}, ..., s_0, 1) and
    t_down = (t_{n-1}, ..., t_0, 0), v takes the last j with
    s_up[j] <= v, and T(v) = slope_j (v - s_up[j]) + t_down[j], multiplied
    and added separately, where
    slope_j = (t_down[j+1] - t_down[j]) / (s_up[j+1] - s_up[j]).

    j is found by a guide table, the indexed search of Chen & Asau
    (AIIE Trans. 6 (1974) 163-166; Devroye, Non-Uniform Random Variate
    Generation (1986), III.2.4).  The m buckets [b/m, (b+1)/m), m a power
    of two, each store the last j with s_up[j] <= b/m; bucket m holds
    v = 1 alone.  v's bucket is floor(v m), and v m and b/m are exact.  A
    bucket that holds no node gives j at once; one that holds one node
    adds 1 where that node is <= v; in a bucket with more, j is found by
    binary search.  That is 0.3-1.4% of draws on the tables measured.

    So T(v) is numpy's interp(v, s_up, t_down), byte for byte.  interp
    takes the same j (its binary_search_with_guess returns the last node
    <= v), computes the same slope, and multiplies and adds separately.  Where
    v = s_up[j] it returns t_down[j], which slope_j * 0 + t_down[j] is,
    and at v = 1 it returns t_down[-1] = 0, as the slope 0 past the last
    node gives.  A tied pair's slope is never read, since
    s_up[j] <= v < s_up[j+1].
    """
    # t from the last node down to the first, then 0, as v ascends
    s_up, t_down = np.append(s[::-1], 1.0), np.append(t[::-1], 0.0)
    n = s_up.size
    rise = np.diff(s_up)
    slopes = np.zeros(n)  # 0 past the last node, and for tied pairs
    np.divide(np.diff(t_down), rise, out=slopes[:-1], where=rise > 0.0)

    m = min(_GUIDE_MAX, max(_GUIDE_MIN, 1 << (4 * n - 1).bit_length()))
    last = np.searchsorted(s_up, np.arange(m + 1) / m, "right") - 1
    lo = np.maximum(last, 0)  # a draw below s_up[0] takes the tail
    # the nodes in (b/m, (b+1)/m]; one at (b+1)/m is above every v of the
    # bucket, so counting it can only send a draw to the search
    more = np.append(last[1:] - lo[:-1], 0)
    split = np.full(m + 1, np.inf)
    one = (more == 1).nonzero()[0]
    split[one] = s_up[lo[one] + 1]
    lo[more > 1] = -1  # crowded: binary search

    def inverse(v: np.ndarray) -> np.ndarray:
        b = (v * m).astype(np.intp)
        j = lo[b]
        j += v >= split[b]
        crowded = (j < 0).nonzero()[0]
        j[crowded] = np.maximum(np.searchsorted(s_up, v[crowded], "right") - 1, 0)
        out = slopes[j] * (v - s_up[j]) + t_down[j]
        tail = (v < s_up[0]).nonzero()[0]
        out[tail] = np.log(c_1 / v[tail]) / lam_1
        return out

    return inverse


def _interval_table(f: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(t, s, c_1, lam_1): S_1 tabulated at nodes t, for the unit interval
    entered at f in (0, 1), and the first term c_1 exp(-lam_1 t) that S_1
    is taken as past the last node.

    S_1(t) = sum_{k odd} 4/(k pi) sin(k pi f) exp(-(k pi)^2 t) is the chance
    that the twice-speed motion started at f is still in (0, 1) at time t.

    S_1 is tabulated at nodes t_i at most 1/300 apart in ln t, from
    t_0 = (m/10)^2, with m = min(f, 1 - f), to 0.5:
    - up to t = 0.01 by the first pair of images,
      erf(m / (2 sqrt t)) - erfc((1 - m) / (2 sqrt t)), which falls with t.
      The image series alternates with falling terms, so this is off by at
      most its next pair, 2 erfc(1 / (2 sqrt t)) <= 2 erfc(5) < 3.1e-12;
    - above t = 0.01 by the terms k <= 21, off by less than 1e-23.
    The values are then capped at 1, made nonincreasing by a running minimum
    and floored at 0, as `_table_inverse` needs.  S_1 falls and lies in
    [0, 1], so every value stays within 3.1e-12 of it.  Only starts within
    about 1e-10 of a face change: there the two sums meet with a rise at
    t = 0.01, and the image sum dips below 0 where S_1 is below its error.
    `_table_inverse` inverts the table.  Past the last node it takes
    c_1 = 4 sin(pi m) / pi and lam_1 = pi^2: there the terms k >= 3
    are below e^(-8 pi^2 0.5) < 1e-17 of the first.  A fraction within
    1e-100 of 0 or 1 is taken as 1e-100 from it, so that every node is a
    finite float; that moves S_1 by less than 1e-100 / sqrt(t).

    The error in law: for V uniform, the CDF G of T(V) is the chord of
    F = 1 - S_1 between nodes, so for every t
        |G(t) - F(t)| <= (t_{i+1} - t_i)^2 max |F''| / 8
                      <= (e^(1/300) - 1)^2 sup_t t^2 |S_1''(t)| / 8 < 9.7e-7,
    where sup_t t^2 |S_1''(t)| is 16 / (pi e^2) ~ 0.6893: the first term's
    maximum, at t = 2 / pi^2 and f = 1/2, and the largest found on a fine
    grid of t and f.  Below t_0 both G and F are at most about
    F(t_0) <= 2 erfc(5).  With the series' errors, |G - F| < 1e-6 for every
    t and f.
    """
    m = max(min(f, 1.0 - f), 1e-100)
    y_0, y_end = 2.0 * math.log(0.1 * m), math.log(_TABLE_END)
    t = np.exp(np.linspace(y_0, y_end, math.ceil((y_end - y_0) / _TABLE_STEP) + 1))
    s = np.empty_like(t)
    image = t <= _IMAGE_END
    s[image] = [math.erf(m * h) - math.erfc((1.0 - m) * h)
                for h in (0.5 / np.sqrt(t[image])).tolist()]
    s[~image] = _exp_sum(t[~image], _ODD_K_PI ** 2, 4.0 / _ODD_K_PI * np.sin(_ODD_K_PI * m))
    s = np.maximum(np.minimum.accumulate(np.minimum(s, 1.0)), 0.0)
    return t, s, 4.0 / math.pi * math.sin(math.pi * m), math.pi ** 2


@functools.lru_cache(maxsize=64)
def _interval_inverse(f: float) -> Callable[[np.ndarray], np.ndarray]:
    """T with S_1(T(v)) = v, from `_interval_table`, which states its error.

    S_1 is the same from f and 1 - f, and `_box_exit_times` asks for
    min(f, 1 - f), so one cached table serves both.
    """
    return _table_inverse(*_interval_table(f))


#: _centre_inverse's budget: P(tau <= t_lo) at most _CDF_FLOOR, the omitted
#: terms at most _OMITTED, the table's sums off by at most _SUM_ERROR and
#: the chords off by at most _CHORD_ERROR.
_CDF_FLOOR = 1e-7
_OMITTED = 1e-17
_SUM_ERROR = 1e-7
_CHORD_ERROR = 8e-7


def _doob_floor(dim: int) -> float:
    """A t_lo with P(tau <= t_lo) <= _CDF_FLOOR from the unit ball's centre.

    |X_t|^2 is 2t times a chi-square with dim degrees of freedom, and
    exp(theta |X_s|^2) is a submartingale, so by Doob's inequality
    P(tau <= t) <= exp(-theta) E exp(theta |X_t|^2)
    = exp(-theta) (1 - 4 theta t)^(-dim/2).  At its best theta, with
    r = 1 / (2 dim t) > 1, that is exp(dim/2 (ln r - r + 1)).  The bisection
    returns its upper end, where the bound holds.
    """
    target = 2.0 * math.log(_CDF_FLOOR) / dim
    lo, hi = 1.0, 64.0  # ln 64 - 63 < 2 ln(1e-7)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.log(mid) - mid + 1.0 > target else (lo, mid)
    return 1.0 / (2.0 * dim * hi)


#: _fixed_point_table's precision: each z_k = j_k^2 / 4 over 2^_ZERO_BITS,
#: proven within z_k 2^-_ZERO_SLACK of the true zero; S_nu and S_nu+1
#: summed with _EXTRA_BITS more fractional bits than `ascending_series`
#: takes; each term over 2^_TERM_BITS; decimal arithmetic at _DIGITS digits.
_ZERO_BITS = 140
_ZERO_SLACK = 120
_EXTRA_BITS = 80
_TERM_BITS = 120
_DIGITS = 60

#: _fixed_point_table's grid unit t_lo 2^-_UNIT_BITS, its segments per
#: doubling of t, 2^_SEGMENT_BITS, and the 2^_CURVE_BITS + 1 points of each
#: segment from which sup |S''| is taken, as _CURVE_MARGIN times the most.
_UNIT_BITS = 20
_SEGMENT_BITS = 4
_CURVE_BITS = 2
_CURVE_MARGIN = 1.01


def _refined_zero(nu: float, j: float):
    """(z, c, r) for a float zero j of J_nu: z / 2^140 within z 2^-120 of
    the true zero of S_nu near j^2 / 4, c = c_k of `_centre_table` at z as
    a decimal, and r, c's relative error from its sum of S_nu+1.

    z = j^2 / 4 is taken exactly as an int over 2^140, and moved by two
    Newton steps on S_nu, whose derivative S_nu' = -S_nu+1 / (nu+1) needs
    only the float's precision: S_nu+1 is summed once, at j.  S_nu is
    summed by `series_sum` with 80 bits more than `ascending_series` takes
    for J_nu+1, at most 1 bit fewer than it takes for J_nu (their
    prefactors differ by 2 (nu+1) / j <= 2).  Where the sums prove
    S_nu(z -+ z 2^-120) of opposite signs (`proven_sign`), a zero lies
    within z 2^-120 of z (AccuracyError otherwise).  One Newton step leaves
    up to 1.3e-29 relative over dim = 2..222, the second far below 2^-120.
    c = (nu+1) / (z S_nu+1(z)), off by at most r = 4K / (|s| - 8K) for the
    sum s of S_nu+1, whose error is under 4K units (`series_sum`).
    """
    from decimal import Context

    p, q = nu.as_integer_ratio()
    m, b = j.as_integer_ratio()
    z = (m * m << _ZERO_BITS) // (4 * b * b)
    prec = series_bits((nu + 1.0) * math.log(0.5 * j) - math.lgamma(nu + 2.0)) + _EXTRA_BITS
    s_up = series_sum(nu + 1.0, z, _ZERO_BITS, prec - _EXTRA_BITS)[0]
    for _ in range(2):  # Newton, with S_nu' = -S_nu+1 / (nu+1) taken at j
        s_nu = series_sum(nu, z, _ZERO_BITS, prec)[0]
        z += ((p + q) * s_nu << (_ZERO_BITS - _EXTRA_BITS)) // (q * s_up)
    delta = z >> _ZERO_SLACK
    below, k_below = series_sum(nu, z - delta, _ZERO_BITS, prec)
    above, k_above = series_sum(nu, z + delta, _ZERO_BITS, prec)
    if proven_sign(below, k_below) * proven_sign(above, k_above) != -1:
        raise AccuracyError(f"j-zero nu={nu:g}: no proven sign change near {j!r}")
    s_up, k_up = series_sum(nu + 1.0, z, _ZERO_BITS, prec)
    c = Context(prec=_DIGITS).divide((p + q) << (_ZERO_BITS + prec), q * z * s_up)
    return z, c, 4 * k_up / (abs(s_up) - 8 * k_up)


def _fixed_point_table(nu: float, refined: list, t_lo: float,
                       t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """(t, s): `_centre_table`'s S at nodes t from t_lo to t_end, summed in
    fixed point from the refined zeros (z_k, c_k, r_k) of `_refined_zero`.

    The terms.  T_k(t) = c_k exp(-4 z_k t).  At the zero,
    d ln c_k / d ln z_k = nu (at a zero of J_nu,
    x J_nu+1'(x) = -(nu+1) J_nu+1(x)), so to first order z_k's error moves
    T_k(t) by at most (nu + x) 2^-120 relative, x = 4 z_k t.  |T_k(t)| times
    that is |c_k| (nu + x) e^-x, which falls for x >= 1 - nu; so over
    t >= t_lo it is at most its value at x = max(x_k, 1 - nu), with
    x_k = 4 z_k t_lo (x_k < 1 - nu only below dim = 4).  The signs of c_k
    alternate, starting positive: J_nu+1 = -J_nu' at the zeros of J_nu,
    and J_nu' alternates there.

    The nodes.  They lie on the grid t_lo + i h, h = t_lo 2^-20.  Each
    |T_k| is carried as an int over 2^120, from floor(|c_k| e^-x_k 2^120),
    and stepped by 2^e units h to floor(|T_k| F_k(e) / 2^120), where F_k(e)
    is floor(exp(-4 z_k 2^e h) 2^120) off by under 2^(e+1) units: F_k(0) is
    the floor of decimal's correctly rounded exp, and F_k(e+1) the floor of
    F_k(e)^2 / 2^120, which doubles the error and adds under one unit.  The
    decimal operations at 60 digits are off by under 1e-57 relative.  Over
    N steps of M units h in all, |T_k| is then off by at most
    (N + 2M + 2) 2^-120 (|T_k(t_lo)| + 1) besides its zero and c_k errors.
    A term that reaches 0 stays 0 and is dropped.  Hence
        B = sum_k |T_k(t_lo)| ((nu + x) e^(x_k - x) 2^-120 + r_k
                               + (N + 2M + 2) 2^-120)
            + K (N + 2M + 2) 2^-120 + 2^-53,  x = max(x_k, 1 - nu),
    the last term for rounding each sum to a float, bounds the table's
    error.  B is checked against _SUM_ERROR (AccuracyError otherwise); it
    is at most 7.8e-12 for dim = 2..222, at dim = 222, where the largest
    term is 1.7e17 at t_lo.  The float of the node t_lo (1 + i 2^-20) is
    within 2^-53 t of it, which moves S by at most 2^-53 sup_t t |S'(t)|
    < 4.8e-16 (sup_t t |S'(t)| is at most 4.26, at dim = 222).

    The chords.  Each doubling [t_lo 2^g, t_lo 2^(g+1)] up to t_end is cut
    into 16 equal segments, each crossed in equal steps of the most units
    h, a power of two, whose length l keeps l^2 sup |S''| / 8 at most
    _CHORD_ERROR on it; the table stops at the first node past t_end.
    S'' = sum_k (4 z_k)^2 T_k is summed as the table is, at 5 evenly spaced
    points of each segment, and its sup there taken as 1.01 times the most
    of those: the most on a ten times finer grid is at most 1.0039 times it
    for dim = 2..222 (at dim = 136).  No step is shorter than
    t_lo 2^-11 = 512 h (AccuracyError for one below h).
    """
    from decimal import Decimal, localcontext

    h = math.ldexp(t_lo, -_UNIT_BITS)
    end = math.ceil((t_end - t_lo) / h)
    doublings = (-(-end >> _UNIT_BITS)).bit_length()  # t_lo 2^doublings >= t_end
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        lam = [Decimal(4 * z) / (1 << _ZERO_BITS) for z, _, _ in refined]
        unit = Decimal(1 << _TERM_BITS)
        first = [int(abs(c) * (-l * Decimal(t_lo)).exp() * unit)
                 for (_, c, _), l in zip(refined, lam)]
        powers = [[int((-l * Decimal(h)).exp() * unit) for l in lam]]
    for _ in range(_UNIT_BITS + doublings):  # F_k(e) for e = 1, 2, ...
        powers.append([f * f >> _TERM_BITS for f in powers[-1]])

    def sums(steps: list[int], total: Callable[[list[int]], int]) -> list[int]:
        """total(|T_k| over 2^120 for each k left), at t_lo and after each
        step of 2^e units h for e in steps."""
        terms = list(first)
        out = [total(terms)]
        for e in steps:
            terms = [x * f >> _TERM_BITS for x, f in zip(terms, powers[e])]
            while terms and not terms[-1]:  # a term that reaches 0 stays 0
                terms.pop()
            out.append(total(terms))
        return out

    # the segments of doubling g span 2^(_UNIT_BITS + g - _SEGMENT_BITS) units h
    segments = [_UNIT_BITS + g - _SEGMENT_BITS
                for g in range(doublings) for _ in range(1 << _SEGMENT_BITS)]
    width = 1 << _CURVE_BITS
    weights = [(-1) ** k * (16 * z * z >> (2 * _ZERO_BITS - 40))  # lam_k^2 over 2^40,
               for k, (z, _, _) in enumerate(refined)]  # so S'' is over 2^160
    curve = sums([e - _CURVE_BITS for e in segments for _ in range(width)],
                 lambda terms: abs(sum(map(operator.mul, terms, weights))))
    steps, start = [], 0
    for i, span in enumerate(segments):
        if start >= end:
            break
        sup = _CURVE_MARGIN * max(curve[i * width:(i + 1) * width + 1]) / (1 << 160)
        e = min(span, math.floor(math.log2(math.sqrt(8.0 * _CHORD_ERROR / sup) / h)))
        if e < 0:
            raise AccuracyError(f"the centre's table for nu={nu:g} needs steps below h")
        count = -(-min(1 << span, end - start) >> e)
        steps += [e] * count
        start += count << e
    s = np.array([x / (1 << _TERM_BITS) for x in
                  sums(steps, lambda terms: sum(terms[::2]) - sum(terms[1::2]))])
    t = t_lo * np.ldexp(np.cumsum([1 << _UNIT_BITS, *(1 << e for e in steps)], dtype=float),
                        -_UNIT_BITS)
    rounding = (len(steps) + 2 * start + 2) * 2.0 ** -_TERM_BITS
    error = len(lam) * rounding + 2.0 ** -53
    for x, l, (_, _, r) in zip(first, lam, refined):
        x_k = float(l) * t_lo
        x_top = max(x_k, 1.0 - nu)
        error += x / (1 << _TERM_BITS) * (
            (nu + x_top) * math.exp(x_k - x_top) * 2.0 ** -_ZERO_SLACK + r + rounding)
    if not error <= _SUM_ERROR:
        raise AccuracyError(f"the centre's table for nu={nu:g} is off by up to {error:.3g}")
    return t, s


def _centre_table(dim: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(t, s, c_1, lam_1): S tabulated at nodes t from t_lo to t_end, for the
    unit ball in R^dim entered at its centre, dim >= 2, and the first term
    c_1 exp(-lam_1 t) that S is past t_end.

    With nu = dim/2 - 1 and j_k = j_{nu,k} (`_ball_zero`, `next_bessel_zero`),
        S(t) = sum_k c_k exp(-j_k^2 t),
        c_k = 4 (nu+1) / (j_k^2 S_{nu+1}(j_k^2 / 4))
            = (j_k/2)^(nu-1) / (Gamma(nu+1) J_{nu+1}(j_k)),
    with S_mu the normalised ascending series (`ascending_series`).  Each
    float zero is refined, and its c_k computed, in fixed point
    (`_refined_zero`).

    The terms.  u = sqrt(x) J_nu(x) solves u'' + q u = 0 with
    q = 1 - (nu^2 - 1/4)/x^2, and E = u'^2 + q u^2 has E' = q' u^2.  So E
    grows for nu >= 1/2 and falls for nu = 0, towards its limit 2/pi; at a
    zero E = j J_{nu+1}(j)^2.  Hence |c_k| <= A (j_k/j_1)^(nu-1/2), with
    A = |c_1| for dim >= 3 and A = sqrt(2 pi / j_1) for dim = 2.  Zeros
    are at least s = `zero_spacing` apart, and h(j) = (j/j_1)^(nu-1/2)
    exp(-j^2 t) falls once j^2 >= (nu-1/2)/(2t), by a factor
    rho = (1 + s/j)^max(0, nu-1/2) exp(-(2 j s + s^2) t) per step s, which
    falls with j.  So the terms k > K sum to at most
    A h(j_K + s) / (1 - rho(j_K + s)) at every t >= t_lo (`_doob_floor`),
    and K is the first count for which that is at most _OMITTED.  That
    takes 17 terms at dim = 2, 22 at 10, 36 at 50 and 73 at 222.

    The table.  Nodes run from t_lo to
    t_end = max_{k >= 2} ln(1e17 (K-1) |c_k|) / j_k^2, past which the terms
    k >= 2 sum to under 2e-17, so S(t) is c_1 exp(-j_1^2 t) there.  It is
    summed in fixed point, off by at most its computed bound B <= _SUM_ERROR
    (`_fixed_point_table`), and made nonincreasing and at most 1 by a
    running minimum, which keeps it within B of S.  As for
    `_interval_table`, the CDF G of T(V) is the chord of F = 1 - S between
    nodes t_i, off by at most (t_{i+1} - t_i)^2 sup |S''| / 8 <= _CHORD_ERROR
    between them (`_fixed_point_table`).  Below t_lo both G and F are at
    most _CDF_FLOOR + B.  So |G - F| <= 8e-7 + B + 2e-17 + 4.8e-16 < 1e-6
    for every t, the last term for the float nodes.
    """
    nu = 0.5 * dim - 1.0
    j_1 = _ball_zero(dim)
    t_lo = _doob_floor(dim)
    gap = zero_spacing(nu)
    power = nu - 0.5
    zeros, refined = [j_1], [_refined_zero(nu, j_1)]
    c_1 = float(refined[0][1])
    amplitude = abs(c_1) if dim > 2 else math.sqrt(2.0 * math.pi / j_1)
    while True:
        j = zeros[-1] + gap  # at most j_{K+1}
        rho = ((1.0 + gap / j) ** max(0.0, power)
               * math.exp(-(2.0 * j * gap + gap * gap) * t_lo))
        if (2.0 * j * j * t_lo >= power and rho < 1.0 and amplitude * (j / j_1) ** power
                * math.exp(-j * j * t_lo) <= _OMITTED * (1.0 - rho)):
            break
        zeros.append(next_bessel_zero(nu, zeros[-1], len(zeros) + 1))
        refined.append(_refined_zero(nu, zeros[-1]))
    t_end = max(math.log((len(refined) - 1) * abs(float(c)) / _OMITTED) * (1 << _ZERO_BITS)
                / (4 * z) for z, c, _ in refined[1:])
    t, s = _fixed_point_table(nu, refined, t_lo, t_end)
    return (t, np.minimum.accumulate(np.minimum(s, 1.0)), c_1,
            4 * refined[0][0] / (1 << _ZERO_BITS))


@functools.lru_cache(maxsize=64)
def _centre_inverse(dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """T with S(T(v)) = v, from `_centre_table`, which states its error."""
    return _table_inverse(*_centre_table(dim))


def _column_times(t: np.ndarray, square: float, dt: float) -> np.ndarray:
    """square * t rounded up to whole steps dt, dt * ceil(t (square / dt)),
    in place; unrounded where a step is below 1e-300 of square, far below a
    float's resolution, and 0 where t = 0, not inf * 0.  A time beyond the
    largest float reads as inf."""
    scale = square / dt
    with np.errstate(over="ignore", invalid="ignore"):
        if scale <= 1e300:
            t *= scale
            np.ceil(t, out=t)
            t *= dt
        else:
            np.multiply(t, square, out=t, where=t > 0.0)
    return t


def _exact_exit_times(
        config: SimConfig,
        columns: list[tuple[Callable[[np.ndarray], np.ndarray], float]]) -> np.ndarray:
    """Exit times of all n_paths from independent exact columns, each the
    inverse T_j of a coordinate's survival and the square L_j^2 that scales
    T_j(V) to a time.

    Chunk i draws one (chunk length, len(columns)) block u from
    Philox(key=seed) jumped i times, and V = 1 - u lies in [2^-53, 1].  A
    path exits at tau = min_j L_j^2 T_j(V_j), reported rounded up to whole
    steps and at least one (tau > 0 almost surely): as dt * ceil(tau / dt),
    so P(exit time > t) = S(dt floor(t / dt)).  Rounding keeps order, so
    each column is rounded first (`_column_times`).
    """
    n, size, dt = config.n_paths, config.chunk_size, config.dt
    times = np.empty(n, dtype=np.float64)
    for i, lo in enumerate(range(0, n, size)):
        rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(i))
        v = 1.0 - rng.random((min(size, n - lo), len(columns)))
        times[lo:lo + len(v)] = np.minimum.reduce(
            [_column_times(inverse(col), square, dt)
             for (inverse, square), col in zip(columns, v.T)])
    return np.maximum(times, dt, out=times)


def _box_exit_times(config: SimConfig, box: Box) -> np.ndarray:
    """Exit times of all n_paths from a box, drawn from their exact law.

    Coordinate j leaves (0, L_j) at tau_j = L_j^2 T_j(V_j), where T_j is
    the cached _interval_inverse at f_j = x_j / L_j, or at 1 - f_j if that
    is less (one table per distance from a face), and the V_j are
    independent uniforms; the path leaves the box at tau = min_j tau_j
    (`_exact_exit_times`).  Box survival is the product of the
    coordinates' survivals, so its error in law is at most dim times
    _interval_table's.
    """
    columns = []
    for x, side in zip(config.start, box.sides):
        f = x / side
        columns.append((_interval_inverse(min(f, 1.0 - f)), side * side))
    return _exact_exit_times(config, columns)


def _ball_exit_times(config: SimConfig, ball: Ball) -> np.ndarray:
    """Exit times of all n_paths from the ball's centre, drawn from their
    exact law as one column of `_exact_exit_times`.

    tau = R^2 T(V) with T the unit ball's `_centre_inverse`, which balls of
    every radius share.  In dim = 1 the ball is the interval (-R, R),
    entered at its middle: tau = (2R)^2 T(V) with `_interval_inverse(0.5)`.
    """
    radius = ball.radius
    if ball.dim == 1:
        inverse, square = _interval_inverse(0.5), 4.0 * radius * radius
    else:
        inverse, square = _centre_inverse(ball.dim), radius * radius
    return _exact_exit_times(config, [(inverse, square)])


def sample_exit_times(config: SimConfig) -> np.ndarray:
    """n_paths independent exit-time samples, deterministic given the seed.

    Paths are drawn in chunks of config.chunk_size, each from its own
    stream, and returned in chunk order.  Every exit time is drawn from its
    exact law and reported rounded up to a whole number of steps dt, so a
    finer dt only shrinks that rounding; an exit time beyond the largest
    float reads as inf.  A start on a box's boundary exits at t = 0.
    """
    if _start_distance(config.domain, config.start) <= 0.0:
        return np.zeros(config.n_paths, dtype=np.float64)
    if isinstance(config.domain, Box):
        return _box_exit_times(config, config.domain)
    return _ball_exit_times(config, config.domain)


#: ln 0.025, the probability each Clopper-Pearson limit leaves in its tail.
_LN_TAIL = math.log(0.025)

#: The standard normal deviate with 0.025 above it.
_Z_TAIL = 1.959963984540054

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

#: Caps on the steps of one continued fraction and the evaluations of one
#: limit.  Over k = 0..59, n-59..n and 200 random k for each of fifteen n
#: from 1 to 10^8 (3,396 limits), a fraction took at most 115 steps and a
#: limit at most 2 evaluations.
_FRACTION_TERMS = 1000
_NEWTON_STEPS = 100

#: Each limit is returned once its error is proven below this, relative.
_ROOT_TOL = 1e-13

#: Stands in for a zero denominator of the continued fraction.
_TINY = 1e-300


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2) for z >= 10.

    Six terms of the Stirling series; the first term left out is below
    1e-15 at z = 10.
    """
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r * (
        1 / 1188 - r * (691 / 360360)))))) / z


def _log_beta_prefactor(x: float, xc: float, a: int, b: int) -> float:
    """ln(x^a xc^b / B(a, b)) for integers a, b >= 1, where xc = 1 - x.

    The smaller of x and xc must be accurate to its own last bits; the
    larger one's logarithm is taken as log1p of minus the smaller.  When
    min(a, b) < 10, 1 / B(a, b) = L (L + 1) ... (L + m - 1) / (m - 1)! with
    m the smaller and L the larger parameter, an exact integer quotient:
    lgamma differences would lose about seven digits at a + b = 10^8.
    Otherwise ln Gamma is split by Stirling's formula, and the leading
    terms combine into a log1p(u/a) + b log1p(-u/b) with u = x (a + b) - a,
    which is small near the mean a / (a + b), where the limits lie.
    """
    if x < xc:
        lx, lxc = math.log(x), math.log1p(-x)
    else:
        lx, lxc = math.log1p(-xc), math.log(xc)
    m, big = min(a, b), max(a, b)
    if m < 10:
        return a * lx + b * lxc + math.log(
            math.prod(range(big, big + m)) / math.factorial(m - 1))
    c = a + b
    u = x * c - a if x < xc else b - xc * c
    return (a * math.log1p(u / a) + b * math.log1p(-u / b)
            + 0.5 * math.log(a * b / c) - _HALF_LN_2PI
            + _stirling_tail(c) - _stirling_tail(a) - _stirling_tail(b))


def _beta_fraction(t: float, on_x: bool, a: int, b: int) -> float:
    """h with I_x(a, b) = x^a (1-x)^b h / (a B(a, b)), where t is x when
    on_x and 1 - x otherwise, by the modified Lentz method.

    h = 1 / (1 + d_1 / (1 + d_2 / (1 + ...))) is the continued fraction of
    DLMF 8.17.22, with d_{2m} = m (b - m) x / ((a + 2m - 1)(a + 2m)) and
    d_{2m+1} = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)).  Its even
    part, h = 1 / (b_0 + N_1 / (D_1 + N_2 / (D_2 + ...))), takes one step
    per pair: b_0 = 1 + d_1, N_m = -d_{2m-1} d_{2m} and
    D_m = 1 + d_{2m} + d_{2m+1}.  N_b = 0, so the fraction ends after at
    most b steps, as a finite sum; it converges fast for
    x < (a + 1) / (a + b + 2).

    b_0 and D_m cancel where x is near 1, so there they are computed from
    t = 1 - x, as
        b_0 = ((a + b) t - (b - 1)) / (a + 1),
        D_m = (2m (m + a) - (a - 1)(b - 1) + t (2m (m + a) + (a - 1)(a + b)))
              / ((a + 2m - 1)(a + 2m + 1)),
    which follow from D_m = 1 - x (2m (m + a) + (a - 1)(a + b))
    / ((a + 2m - 1)(a + 2m + 1)).  So the fraction sees x to the relative
    precision of t.  A zero denominator is replaced by _TINY, as Lentz's
    method prescribes.
    """
    x = t if on_x else 1.0 - t
    ab = a + b
    b_0 = ((a + 1.0 - ab * t) if on_x else (ab * t - (b - 1.0))) / (a + 1.0)
    d = 1.0 / (b_0 or _TINY)
    h, c = d, math.inf
    odd = ab * x / (a + 1.0)  # -d_{2m-1}
    c_a, c_b = (a - 1.0) * ab, (a - 1.0) * (b - 1.0)
    s = a + 1.0  # a + 2m - 1
    for m in range(1, min(b, _FRACTION_TERMS) + 1):
        s_lo, s = s, s + 1.0
        s_hi = s + 1.0
        even = m * (b - m) * x / (s_lo * s)
        num = odd * even
        odd = (a + m) * (ab + m) * x / (s * s_hi)
        if on_x:
            den = 1.0 + even - odd
        else:
            w = 2.0 * m * (m + a)
            den = (w - c_b + t * (w + c_a)) / (s_lo * s_hi)
        d = 1.0 / (den + num * d or _TINY)
        c = den + num / c or _TINY
        h *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            return h
        s = s_hi
    raise AccuracyError(f"incomplete beta I_x(a={a}, b={b}) at x={x!r}: "
                        "the continued fraction did not converge")


def _log_beta_cdf(t: float, on_x: bool, a: int, b: int) -> tuple[float, float]:
    """ln I_x(a, b), the regularized incomplete beta, and its derivative in
    x, with t as for _beta_fraction."""
    x, xc = (t, 1.0 - t) if on_x else (1.0 - t, t)
    h = _beta_fraction(t, on_x, a, b)
    return _log_beta_prefactor(x, xc, a, b) + math.log(h / a), a / (x * xc * h)


def _beta_tail_start(a: int, b: int) -> tuple[float, float]:
    """(x, 1 - x) near the point where I_x(a, b) = 0.025, by the normal
    approximation of Abramowitz & Stegun 26.5.22."""
    lam = (_Z_TAIL * _Z_TAIL - 3.0) / 6.0
    ra, rb = 1.0 / (2 * a - 1.0), 1.0 / (2 * b - 1.0)
    h = 2.0 / (ra + rb)
    e = b * math.exp(2.0 * (_Z_TAIL * math.sqrt(h + lam) / h
                            - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))))
    return a / (a + e), e / (a + e)


def _tail_step(t: float, on_x: bool, a: int, b: int, f: float,
               slope: float) -> tuple[float, float]:
    """(t_1, e): the next point for _beta_tail_point, and a proven bound e
    on its distance from the root in x (inf where the proof does not hold).

    t is as for _beta_fraction, f = ln I_x(a, b) - ln 0.025 at x and
    slope = d ln I / dx there; no further evaluation of I is needed.  With
    p the beta density and y = 1 - x, I_{x+s} = I_x + p(x) Q(s) exactly,
    where
        Q(s) = integral_0^s e^phi(u) du,
        phi(u) = ln(p(x + u) / p(x)) = (a-1) ln(1 + u/x) + (b-1) ln(1 - u/y).
    So the root is x + s* with Q(s*) = Delta, where
    Delta = (0.025 - I_x) / p(x) = expm1(-f) / slope, and Q' = e^phi > 0.

    phi(0) = 0, phi'(u) = psi(x + u) with psi(z) = (a-1)/z - (b-1)/(1-z),
    and phi''(0) = -(a-1)/x^2 - (b-1)/y^2 =: -kappa, so
        Q(s) = P(s) + R(s),  P(s) = s + psi s^2/2 + (psi^2 - kappa) s^3/6,
    with psi = psi(x).  Two Newton steps on P from s = Delta give s_1.
    R integrates the cubic Taylor remainder of e^phi, whose third
    derivative is e^phi (phi^(3) + 3 phi' phi'' + phi'^3).  Let r = |s_1|,
    U the interval from min(0, s_1) - r to max(0, s_1) + r, and z_lo and
    w_lo the smallest x + u and y - u on U.  On U,
    m_1 = max |psi| (at an end of U, as psi falls),
    m_2 = (a-1)/z_lo^2 + (b-1)/w_lo^2 and
    m_3 = 2 ((a-1)/z_lo^3 + (b-1)/w_lo^3) bound |phi'|, |phi''| and
    |phi^(3)|; and phi is concave, so phi(u) <= psi u <= |psi| r between 0
    and s_1.  Hence
        |Q(s_1) - Delta| <= eps = |P(s_1) - Delta|
                                  + e^(|psi| r) (m_1^3 + 3 m_1 m_2 + m_3) r^4 / 24.
    On U, |u| <= 2r and phi(u) >= psi u - m_2 u^2 / 2 >= -2 |psi| r
    - 2 m_2 r^2, so Q' >= e^(-2 |psi| r - 2 m_2 r^2) there.  So
    e = (|P(s_1) - Delta| + (m_1^3 + 3 m_1 m_2 + m_3) r^4 / 24)
        e^(3 |psi| r + 2 m_2 r^2)
    is at least eps e^(2 |psi| r + 2 m_2 r^2).  If e <= r, then
    Q(s_1 + e) >= Delta >= Q(s_1 - e), so |s* - s_1| <= e.  The rounding
    of these few operations is far below _ROOT_TOL.
    """
    sign = 1.0 if on_x else -1.0
    x, y = (t, 1.0 - t) if on_x else (1.0 - t, t)
    delta = math.expm1(-f) / slope
    am, bm = a - 1.0, b - 1.0
    psi = am / x - bm / y
    cubic = (psi * psi - am / (x * x) - bm / (y * y)) / 6.0
    s = delta
    for _ in range(2):
        s -= ((s * (1.0 + s * (0.5 * psi + s * cubic)) - delta)
              / (1.0 + s * (psi + 3.0 * s * cubic)))
    resid = abs(s * (1.0 + s * (0.5 * psi + s * cubic)) - delta)
    r = abs(s)
    u_lo, u_hi = min(0.0, s) - r, max(0.0, s) + r
    z_lo, w_lo = x + u_lo, y - u_hi
    if not (z_lo > 0.0 and w_lo > 0.0):
        return t + sign * s, math.inf
    m_1 = max(abs(am / z_lo - bm / (y - u_lo)), abs(am / (x + u_hi) - bm / w_lo))
    m_2 = am / (z_lo * z_lo) + bm / (w_lo * w_lo)
    m_3 = 2.0 * (am / (z_lo * z_lo * z_lo) + bm / (w_lo * w_lo * w_lo))
    r2 = r * r
    err = (resid + (m_1 * (m_1 * m_1 + 3.0 * m_2) + m_3) * r2 * r2 / 24.0) * math.exp(
        2.0 * m_2 * r2 + 3.0 * abs(psi) * r)
    return t + sign * s, (err if err <= r else math.inf)


def _beta_tail_point(a: int, b: int) -> tuple[float, float]:
    """(x, 1 - x) with I_x(a, b) = 0.025, for integers a, b >= 1, each of x
    and 1 - x to its own relative precision.

    a = 1 and b = 1 have closed forms.  Otherwise the variable carried, t,
    is x or 1 - x, whichever is smaller at the Abramowitz & Stegun start.
    Each round evaluates ln I and its slope at t and takes the step of
    _tail_step, which needs no other evaluation; the step's point is
    returned once its proven error is at most _ROOT_TOL times it.  Else it
    is evaluated next, or the midpoint of the bracket known so far if it
    falls outside.

    The bracket starts as (0, x_end) in x, with x_end = a / (a + b) when
    b <= 8 and min(a / (a + b), (a + 1) / (a + b + 2)) otherwise.  It holds
    the root.  A beta density with a, b >= 1 is log-concave, and a
    log-concave X has P(X <= E X) >= 1/e and a density at most 1 / sd(X).
    So P(X <= a / (a + b)) >= 1/e > 0.025.  When a > b >= 9, the mean less
    (a + 1) / (a + b + 2) is (a - b) / ((a + b)(a + b + 2)) <= sd / sqrt(b),
    so P(X <= (a + 1) / (a + b + 2)) >= 1/e - 1/3 > 0.025.  Every point
    evaluated is inside the bracket, so _beta_fraction either ends within
    b <= 8 steps or sees x < (a + 1) / (a + b + 2), where it converges
    fast.  No point needs the complement I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    if a == 1:  # I_x(1, b) = 1 - (1 - x)^b
        ln_xc = math.log1p(-0.025) / b
        return -math.expm1(ln_xc), math.exp(ln_xc)
    if b == 1:  # I_x(a, 1) = x^a
        return math.exp(_LN_TAIL / a), -math.expm1(_LN_TAIL / a)
    x_0, y_0 = _beta_tail_start(a, b)
    on_x = x_0 <= y_0
    t = x_0 if on_x else y_0
    x_end = a / (a + b) if b <= 8 else min(a / (a + b), (a + 1.0) / (a + b + 2.0))
    below, above = (0.0, x_end) if on_x else (1.0, 1.0 - x_end)
    for _ in range(_NEWTON_STEPS):
        if not min(below, above) < t < max(below, above):
            t = 0.5 * (below + above)
        f, slope = _log_beta_cdf(t, on_x, a, b)
        f -= _LN_TAIL
        if f < 0.0:
            below = t
        else:
            above = t
        t, err = _tail_step(t, on_x, a, b, f, slope)
        if err <= _ROOT_TOL * t:
            return (t, 1.0 - t) if on_x else (1.0 - t, t)
    raise AccuracyError(f"the point where I_x(a={a}, b={b}) = 0.025 was not found")


def _clopper_pearson(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided 95% interval for each success count k out of n.

    The limits of Clopper & Pearson (Biometrika 26 (1934) 404-413): the low
    one solves I_x(k, n - k + 1) = 0.025 and the high one
    I_x(k + 1, n - k) = 0.975, that is I_{1-x}(n - k, k + 1) = 0.025.
    The low limit of k = 0 is 0 and the high limit of k = n is 1.  Each
    distinct k is solved once: the counts of a survival curve repeat in its
    tail.
    """
    counts, where = np.unique(k, return_inverse=True)
    counts = counts.tolist()
    low = [_beta_tail_point(c, n - c + 1)[0] if c else 0.0 for c in counts]
    high = [_beta_tail_point(n - c, c + 1)[1] if c < n else 1.0 for c in counts]
    return np.array(low)[where], np.array(high)[where]


def _survivor_counts(tau: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """counts[j] = #{i : tau[i] > grid[j]} for an increasing grid, with no
    n x grid matrix.

    idx[i] = searchsorted(grid, tau[i], side="left") is the number of grid
    points strictly below tau[i], so tau[i] > grid[j] exactly when idx[i] > j.
    tau must hold no NaN: numpy sorts NaN last, so it would count as
    surviving every grid time, where tau > grid counts it as surviving none.
    """
    idx = np.searchsorted(grid, tau, side="left")
    at_least = np.bincount(idx, minlength=grid.size + 1)[::-1].cumsum()[::-1]
    return at_least[1:]


def estimate_survival(config: SimConfig, tau: np.ndarray) -> TailEstimate:
    """Empirical survival curve over config.t_grid with 95% CP intervals.

    tau holds the config's exit times, as sample_exit_times(config) returns
    them; a NaN among them is refused.
    """
    if _start_distance(config.domain, config.start) <= 0.0:
        raise InfeasibleParameterError(
            "tail estimation needs a start strictly inside the domain"
        )
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (config.n_paths,):
        raise InfeasibleParameterError(
            f"expected {config.n_paths} exit times, got an array of shape {tau.shape}"
        )
    if np.isnan(tau).any():
        raise InfeasibleParameterError("exit times must not be NaN")
    grid = np.asarray(config.t_grid, dtype=np.float64)
    counts = _survivor_counts(tau, grid)
    n = config.n_paths
    survival = counts / n
    low, high = _clopper_pearson(counts, n)
    return TailEstimate(
        t_grid=tuple(float(t) for t in grid),
        survival=tuple(float(s) for s in survival),
        ci_low=tuple(float(v) for v in low),
        ci_high=tuple(float(v) for v in high),
        n_paths=n,
        config_fingerprint=config.fingerprint(),
    )


def vbound_log_v(vkind: VKind, epsilon: float, dim: int) -> float:
    """ln V(epsilon, dim) of a V-bound that check_vbound can test.

    Raises InfeasibleParameterError where it cannot, so a caller can refuse
    the bound before it simulates any path.  That includes a V too large
    for a float: the bound curve starts at t = 0, where it is V itself.
    """
    if not (0.0 < epsilon < 1.0):
        # at eps = 1 the bound V e^0 >= 1 holds for any estimate
        raise InfeasibleParameterError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    lv = log_v(vkind, epsilon, dim)
    try:
        math.exp(lv)
    except OverflowError:
        raise InfeasibleParameterError(
            f"V(epsilon, dim) = exp({lv:.6g}) overflows a float") from None
    return lv


def check_vbound(estimate: TailEstimate, vkind: VKind, epsilon: float,
                 lambda_d: float, dim: int) -> VBoundReport:
    """Compare the estimate's lower confidence limits against the V-bound.

    Passes iff no grid point's lower confidence limit exceeds
    V(eps, dim) * exp(-(1-eps) * lambda_d * t).  The worst margin is the
    smallest bound - ci_low over the grid (negative means failure).
    """
    lv = vbound_log_v(vkind, epsilon, dim)
    if not lambda_d > 0.0:
        raise InfeasibleParameterError("lambda_d must be positive")
    rate = (1.0 - epsilon) * lambda_d
    bound = tuple(math.exp(lv - rate * t) for t in estimate.t_grid)
    margins = [b - lo for b, lo in zip(bound, estimate.ci_low)]
    worst_index = int(np.argmin(margins)) if margins else 0
    worst = margins[worst_index] if margins else math.inf
    return VBoundReport(
        passed=bool(worst >= 0.0),
        worst_margin=float(worst),
        worst_index=worst_index,
        bound_curve=bound,
    )


def default_t_grid(lambda_d: float, points: int = 25) -> tuple[float, ...]:
    """Evenly spaced grid [0, 12/lambda_d], over which the first
    eigen-term of the survival decays by e^-12.

    For a high-dimensional ball the grid ends before most paths exit: at
    d = 200, S(12/lambda_d) = 1 - 2e-22, so a check on this grid there
    compares a survival curve of ones with the bound.  A domain so large
    that a point of the grid overflows a float is rejected.
    """
    if points < 2:
        raise InfeasibleParameterError("need at least 2 grid points")
    t_max = _GRID_DECAY / lambda_d
    if not math.isfinite(t_max * (points - 1)):
        raise InfeasibleParameterError(f"the time grid to 12 / lambda = {t_max!r} "
                                       "overflows a float: its size is out of range")
    return tuple(t_max * i / (points - 1) for i in range(points))


def default_dt(domain: SimDomain, t_grid: tuple[float, ...]) -> float:
    """1e-4 times the squared characteristic length (radius / shortest side),
    or a tenth of t_grid's smallest spacing, as SimConfig requires, if less:
    on default_t_grid, for a ball from d = 37 and a unit box from d = 51.
    The resolution to which each exit time is rounded up."""
    scale = domain.radius if isinstance(domain, Ball) else min(domain.sides)
    return min([1e-4 * scale * scale,
                *((b - a) / 10.0 for a, b in zip(t_grid, t_grid[1:]))])
