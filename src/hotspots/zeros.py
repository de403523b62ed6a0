"""First Bessel zeros and p-roots, with certified directed squares.

* ``j_{nu,1}``, the first positive zero of J_nu, and
* ``p_{d/2,1}``, the first positive root of d/dx[x^{1-d/2} J_{d/2}(x)],
  that is of J_nu(x) - x J_{nu+1}(x) with nu = d/2,

are the first roots in z = x^2/4 of S(z) = sum_k w_k (-z)^k / (k! (nu+1)_k)
times (x/2)^nu / Gamma(nu+1), with w_k = 1 and w_k = 2k+1 respectively.

Each root is one call of `_solve`: Brent's method (Algorithms for
Minimization without Derivatives, 1973, ch. 4) on a bracket [lo, hi] that
must have f(lo) > 0 >= f(hi); a bracket without that sign change is a fault
and raises AccuracyError.  The brackets:

* j-zero: lo is the larger of Lorch's bound j^2 > (nu+1)(nu+5) and the lower
  bound of Qu and Wong (Trans. AMS 351 (1999) 2833-2859),

    nu + 1.855757 nu^{1/3} < j_{nu,1} < nu + 1.8557571 nu^{1/3} + 1.0331504 nu^{-1/3};

  hi is their upper bound for nu >= 1, and 3.8318 below that, since j_{nu,1}
  grows with nu and j_{1,1} = 3.8317059702...  Brent solves bessel_j.
* p-root: [sqrt(d), sqrt(d+2)].  The upper end is Szego's p^2 < d + 2; the
  lower end is checked on every call, like the upper.  Brent solves S in
  floats (for d <= 200 no term of S exceeds 1.5 near the root, so it does
  not cancel).

`_record` then certifies directed squares sq_down < sq_up on a grid around
root^2: S is proven positive at some z in [sq_down/4, root^2/4] and negative
at some z in [root^2/4, sq_up/4], so a root of S lies between them, and one
more exact test proves it the first: Sturm spacing for the j-zero
(`_first_zero_is_bracketed`), the fall of S for the p-root
(`_p_series_falls_to`).  The j-zero takes both signs from Brent's own J
evaluations: `bessel_j` sums S in fixed point with a proven error (the
`specialfun` module doc) and reports the sign of S at each z = fl(x^2)/4
where the sum exceeds that error.  Where those signs do not bracket root^2
within the grid margin, and always for the p-root, whose Brent runs on the
float `_p_series`, `_series_sign` proves the signs at sq_down/4 and
sq_up/4 from the same fixed-point sums instead: of S_nu for the j-zero, and
of S_nu and S_nu+1, combined exactly on their ints, for the p-root.

`next_bessel_zero` finds the later zeros j_{nu,k}, k >= 2, one from the
last, on a bracket from the same Sturm comparison, proven by `bessel_j`'s
signs to hold exactly one zero; they are floats, with no directed squares.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

from ._record import record
from .errors import AccuracyError, InfeasibleParameterError
from .specialfun import bessel_j, proven_sign, series_bits, series_sum

#: the directed squares sit on a grid of 2^-_GRID_BITS relative spacing
_GRID_BITS = 44
#: how often a failed sign may widen the bracket (16x each time)
_WIDEN_TRIES = 4


class RootFamily(enum.Enum):
    """Which defining equation a root satisfies."""

    J_ZERO = "jzero"
    P_ROOT = "proot"


class BesselZeroRecord(record("BesselZeroRecord",
                              "nu family value value_squared_up value_squared_down")):
    """A computed root with directed-rounding companions.

    value_squared_down <= value^2 <= value_squared_up is proven for both
    families, for the first root: the series changes sign between the two
    squares, and has no earlier root (module doc).
    """

    __slots__ = ()

    def __new__(cls, nu: float, family: RootFamily, value: float,
                value_squared_up: float, value_squared_down: float):
        if not value > 0.0:
            raise AccuracyError(f"root must be positive, got {value!r}")
        sq = value * value
        if not (value_squared_down <= sq <= value_squared_up):
            raise AccuracyError("directed square interval does not contain value^2")
        return super().__new__(cls, nu, family, value, value_squared_up,
                               value_squared_down)


def _series_sign(nu: float, z: float, family: RootFamily) -> int:
    """Sign of S(z) (module doc) that `series_sum` proves, or 0 (`proven_sign`),
    with the bits that `series_bits` gives J_nu at x = 2 sqrt(z).

    The p-root's S is S_nu(z) - 2z S_nu+1(z) / (nu+1) (S_nu' = -S_nu+1 / (nu+1)),
    so with nu = p/q, z = a/2^e it has the sign of (p+q) 2^e s_nu - 2aq s_nu+1.
    """
    prec = series_bits(nu * math.log(math.sqrt(z)) - math.lgamma(nu + 1.0))
    a, b = z.as_integer_ratio()
    e = b.bit_length() - 1
    s, terms = series_sum(nu, a, e, prec)
    if family is RootFamily.P_ROOT:
        p, q = nu.as_integer_ratio()
        s_up, terms_up = series_sum(nu + 1.0, a, e, prec)
        scale, weight = (p + q) << e, 2 * a * q
        s, terms = scale * s - weight * s_up, scale * terms + weight * terms_up
    return proven_sign(s, terms)


def _p_series(nu: float, z: float) -> float:
    """Float sum_k (2k+1) (-z)^k / (k! (nu+1)_k), the p-root's equation."""
    term = 1.0
    s = 1.0
    k = 0
    while abs(term) * (2 * k + 1) > 1e-17 or k * (nu + k) <= z:
        k += 1
        term *= -z / (k * (nu + k))
        s += (2 * k + 1) * term
    return s


def _brent(f: Callable[[float], float], a: float, b: float, fa: float,
           fb: float) -> float:
    """Root of f in [a, b], where fa and fb differ in sign (Brent, ch. 4).

    Inverse quadratic interpolation or secant steps, with a bisection step
    whenever they fail to shrink the bracket fast enough.  Stops when the
    bracket is 4 ulp wide or f vanishes; returns the end with the smaller |f|.
    """
    c, fc = a, fa
    step = prev = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):  # keep the root between b and c
            c, fc = a, fa
            step = prev = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * math.ulp(1.0) * abs(b)
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) <= tol:
            return b
        if abs(prev) > tol and abs(fb) < abs(fa):
            if a == c:  # secant
                s = -fb * (b - a) / (fb - fa)
            else:  # inverse quadratic interpolation
                da = (fa - fb) / (a - b)
                dc = (fc - fb) / (c - b)
                s = -fb * (fc * dc - fa * da) / (dc * da * (fc - fa))
            if 2.0 * abs(s) < min(abs(prev), 3.0 * abs(half) - tol):
                prev, step = step, s
            else:
                prev = step = half
        else:
            prev = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)


def _solve(f: Callable[[float], float], lo: float, hi: float, what: str) -> float:
    """`_brent`'s root of f on [lo, hi]; AccuracyError unless f(lo) > 0 >= f(hi)."""
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo > 0.0 >= f_hi:
        raise AccuracyError(
            f"{what}: no sign change on the bracket [{lo:.9g}, {hi:.9g}]")
    return _brent(f, lo, hi, f_lo, f_hi)


def _qu_wong_lower(nu: float) -> float:
    """A float below j_{nu,1} (Qu and Wong, Trans. AMS 351 (1999) 2833-2859).

    j_{nu,1} > nu + 1.85575708... nu^{1/3}; the constant is rounded down so the
    float stays below, and 1e-9 covers the rounding of ** and +.  0 at nu = 0.
    """
    return nu + 1.855757 * nu ** (1.0 / 3.0) - 1e-9


def _qu_wong_upper(nu: float) -> float:
    """A float above j_{nu,1} for nu > 0 (Qu and Wong, as `_qu_wong_lower`).

    j_{nu,1} < nu + 1.85575708... nu^{1/3} + 1.03315030... nu^{-1/3}; both
    constants are rounded up, and 1e-9 covers the rounding of ** and +.
    """
    return nu + 1.8557571 * nu ** (1.0 / 3.0) + 1.0331504 * nu ** (-1.0 / 3.0) + 1e-9


def _j_lower(nu: float) -> float:
    """A float below j_{nu,1}: Lorch's sqrt((nu+1)(nu+5)) or Qu-Wong's bound,
    whichever is larger; the 1e-9 covers the rounding of sqrt and *."""
    return max(math.sqrt((nu + 1.0) * (nu + 5.0)) - 1e-9, _qu_wong_lower(nu))


def zero_spacing(nu: float) -> float:
    """s = pi / sqrt(1 + max(0, 1/4-nu^2)/L^2), with L = `_j_lower`.

    Every zero of J_nu exceeds L, and by Sturm comparison of sqrt(x) J_nu(x),
    which solves u'' + (1 - (nu^2-1/4)/x^2) u = 0, with sin, zeros beyond L
    are at least s apart.
    """
    lower = _j_lower(nu)
    return math.pi / math.sqrt(1.0 + max(0.0, 0.25 - nu * nu) / (lower * lower))


def _first_zero_is_bracketed(nu: float, sq_up: float) -> bool:
    """Whether a sign change of J_nu below sqrt(sq_up) must be its first zero.

    Every zero exceeds L = `_j_lower`, and zeros are at least
    s = `zero_spacing` apart; so no earlier zero fits if
    L > sqrt(sq_up) - s.  The 1e-9 slack covers float rounding.
    """
    return _j_lower(nu) > math.sqrt(sq_up) + 1e-9 - zero_spacing(nu)


def _p_series_falls_to(nu: float, sq_up: float) -> bool:
    """Whether the p-root's S falls strictly on [0, sq_up/4], exactly.

    S'(z) = sum_{k>=1} (-1)^k a_k with a_k = (2k+1) k z^{k-1} / (k! (nu+1)_k),
    and a_{k+1}/a_k = (2k+3) z / ((2k+1) k (nu+k+1)) falls with k from
    5z / (3(nu+2)).  For z < 3(nu+2)/5 the a_k thus fall, so the alternating
    S' lies in [-a_1, -a_1 + a_2] and is negative: S has one root on
    [0, sq_up/4] if 5 sq_up < 12 (nu+2), compared here on the integer
    ratios of the two floats.  Szego's p^2 < d + 2 keeps sq_up/4 below 0.83
    of that limit for every d.
    """
    a, b = sq_up.as_integer_ratio()
    p, q = nu.as_integer_ratio()
    return 5 * a * q < 12 * b * (p + 2 * q)


def _record(nu: float, family: RootFamily, root: float,
            signs: dict[float, int]) -> BesselZeroRecord:
    """Directed squares on the 2^-44 grid around root^2, proven by signs of S.

    signs maps z to a sign of S(z) already proven (by `bessel_j`).  The
    bracket [sq_down, sq_up] is the pair of grid points around
    sq = fl(root^2), each moved two grid units outward.  It holds a root of
    S if signs has a positive z with sq_down <= 4z <= sq and a negative z
    with sq <= 4z <= sq_up (sq only orders the two), or else if `_series_sign`
    proves S(sq_down/4) > 0 > S(sq_up/4).  That root is the first one for J
    by `_first_zero_is_bracketed` and for p by `_p_series_falls_to`.  Failing
    both sign proofs widens the bracket 16-fold; a failed p fall cannot be
    mended by a wider bracket and raises AccuracyError at once.
    """
    sq = root * root
    exp = math.frexp(sq)[1] - _GRID_BITS
    grid = math.floor(math.ldexp(sq, -exp))
    for tries in range(_WIDEN_TRIES):
        margin = 2 * 16 ** tries
        sq_down = math.ldexp(grid - margin, exp)
        sq_up = math.ldexp(grid + 1 + margin, exp)
        proven = (any(sign > 0 and sq_down <= 4.0 * z <= sq for z, sign in signs.items())
                  and any(sign < 0 and sq <= 4.0 * z <= sq_up for z, sign in signs.items()))
        if ((proven or (_series_sign(nu, 0.25 * sq_up, family) < 0
                        and _series_sign(nu, 0.25 * sq_down, family) > 0))
                and (family is RootFamily.P_ROOT
                     or _first_zero_is_bracketed(nu, sq_up))):
            if family is RootFamily.P_ROOT and not _p_series_falls_to(nu, sq_up):
                raise AccuracyError(
                    f"proot nu={nu:g}: S is not proven to fall on "
                    f"[0, {sq_up!r}/4], so {root!r} may not be the first root")
            return BesselZeroRecord(nu=nu, family=family, value=root,
                                    value_squared_up=sq_up,
                                    value_squared_down=sq_down)
    raise AccuracyError(
        f"{family.value} nu={nu:g}: no exact sign change around {root!r}")


def first_bessel_zero(nu: float) -> BesselZeroRecord:
    """First positive zero j_{nu,1} of J_nu, for 0 <= nu <= 110.

    Brent's method on [Lorch or Qu-Wong lower bound, Qu-Wong upper bound],
    with 3.8318 > j_{1,1} as the upper end for nu < 1 (module doc);
    AccuracyError if J_nu does not change sign on that bracket.

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
    upper = _qu_wong_upper(nu) if nu >= 1.0 else 3.8318
    signs: dict[float, int] = {}
    root = _solve(lambda x: bessel_j(nu, x, signs), _j_lower(nu), upper,
                  f"j-zero nu={nu:g}")
    return _record(nu, RootFamily.J_ZERO, root, signs)


def first_p_root(d: int) -> BesselZeroRecord:
    """First positive root p_{d/2,1} of the reduced equation, 2 <= d <= 200.

    The reduced equation is J_{d/2}(x) - x*J_{d/2+1}(x) = 0; its first root is
    the first maximum of x^{1-d/2} J_{d/2}(x).  Brent's method on
    [sqrt(d), sqrt(d+2)] (module doc); AccuracyError if S does not change
    sign on that bracket.
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise InfeasibleParameterError(f"first_p_root expects an integer d, got {d!r}")
    if d < 2 or d > 200:
        raise InfeasibleParameterError(f"first_p_root supports 2 <= d <= 200, got {d}")
    nu = 0.5 * d
    root = _solve(lambda x: _p_series(nu, 0.25 * x * x), math.sqrt(d),
                  math.sqrt(d + 2.0), f"p-root d={d}")
    return _record(nu, RootFamily.P_ROOT, root, {})


def next_bessel_zero(nu: float, previous: float, k: int) -> float:
    """j_{nu,k}, the k-th positive zero of J_nu (k >= 2), from previous =
    j_{nu,k-1}; 0 <= nu <= 110, and j_{nu,k} <= 700 as bessel_j needs.

    Brent's method on [lo, hi] = [previous + s, previous + pi/m], widened
    by 1e-9 on each side, which holds j_k:
    - s is `zero_spacing`, which zeros beyond j_{nu,1} keep apart;
    - on [previous, inf) the coefficient 1 - (nu^2-1/4)/x^2 of the equation
      of sqrt(x) J_nu(x) is at least m^2 = 1 - (nu^2-1/4)/previous^2, and at
      least 1 for nu <= 1/2 (m = 1), so by Sturm comparison with
      sin(m (x - previous)) the next zero comes within pi/m.
    The 1e-9 covers previous's own error and float rounding; at nu = 1/2,
    where both ends are k pi, it makes a bracket at all.  AccuracyError is
    raised unless `bessel_j` proves the sign (-1)^(k-1) of the k-th arch at
    lo and the opposite one at hi, and hi - lo < 2s (at most 1.61 s over
    d = 2..222).  The bracket then holds an odd number of zeros and is too
    short for three, so it holds one: j_k, a float with no directed squares.
    """
    m = math.sqrt(1.0 - (nu * nu - 0.25) / (previous * previous)) if nu > 0.5 else 1.0
    sign, s = (1 if k % 2 else -1), zero_spacing(nu)
    lo, hi = previous + s - 1e-9, previous + math.pi / m + 1e-9
    what = f"j-zero nu={nu:g} k={k}"
    signs: dict[float, int] = {}
    root = _solve(lambda x: sign * bessel_j(nu, x, signs), lo, hi, what)
    if not (signs.get(0.25 * lo * lo) == sign == -signs.get(0.25 * hi * hi, 0)
            and hi - lo < 2.0 * s):
        raise AccuracyError(f"{what}: one zero is not proven in [{lo:.9g}, {hi:.9g}]")
    return root
