"""Bessel functions of the first kind and log-gamma.

Evaluation of J_nu(x) for real order 0 <= nu <= 120 and 0 <= x <= MAX_ARG =
700 to the value contract |error| <= 1e-12 |J_nu(x)| + 3e-14, which the test
suite checks against mpmath and scipy.  |J_nu| <= 1, so the floor is
relative to the function's scale; near a zero, or where J_nu is tiny, the
relative error can be large.  Nothing certified rests on this contract.
Every sign that `zeros` and `montecarlo` certify rests on the sum's proven
error below instead: a fixed-point sum s with |s| > 4K units proves the
sign of S(z), whatever lgamma and exp return (`proven_sign`), and
`bessel_j` hands such signs to its caller on request.

One regime serves the whole domain: J_nu(x) = (x/2)^nu / Gamma(nu+1) S(z),
z = x^2/4, with the ascending series S(z) = sum_k T_k, T_k = (-z)^k / (k!
(nu+1)_k), summed in fixed point on Python ints with P fractional bits, so
its terms cancel without loss.  The sum stops at the first zero term t_K,
as every later term is zero too, and it is off by under 4K units of 2^-P:

- Each term is t_k = r_k t_{k-1} + delta_k, with r_k = T_k / T_{k-1} exact;
  its two floors put delta_k in [0, 2) units.
- An error made at term j reaches the sum multiplied by tail_j / T_j, where
  tail_j = sum_{k >= j} T_k includes the terms never summed.  The terms rise
  from T_0 = 1 while k (nu + k) <= z and fall after that peak.
  - Before the peak the factor is at most 2: |S| <= 1 (DLMF 10.14.4,
    |J_nu(x)| <= (x/2)^nu / Gamma(nu+1)), and T_0 + ... + T_{j-1} alternate
    and rise, so they sum to at most |T_{j-1}|.  Hence |tail_j| <= 1 +
    |T_{j-1}| <= 2 |T_j|.
  - After the peak it is at most 1: the tail alternates and falls.

No term before the peak is zero, since there |t_k| >= |T_k| (2^P - 2k).  K
is at most 973 over the whole domain, at x = 700 (nu = 0 among others, on a
scan of every nu = k/20 near x = 700 and a grid below), so 4K < 2^12.

J = prefactor x S needs the prefactor's bits as well, when it exceeds 1:
near the d=200 root it is about e^36, and S is that much smaller than J.
Hence

    P = 60 + _GUARD_BITS + max(0, ceil(log2 prefactor)),  _GUARD_BITS = 14,

which keeps the sum's share of the error in J below 2^-62.  The prefactor
comes from lgamma and exp, so the value contract is measured, not proven.
The function keeps no state between calls.
"""

from __future__ import annotations

import math

from .errors import InfeasibleParameterError

#: Largest supported order (covers dimension 200 zeros plus margin).
MAX_ORDER = 120.0

#: Largest supported argument of bessel_j.  The int series' cost grows as
#: x^2, with the number of terms and the width of its ints: at x = 700 it
#: takes up to 973 terms of up to 1,074 bits, 0.5 to 0.8 ms a call on a
#: 2-core x86-64 host.  It covers the root search (x <= 164).
MAX_ARG = 700.0

#: Largest supported log-gamma argument.
MAX_LOG_GAMMA_ARG = 500.0

_LOG2 = math.log(2.0)

#: Fractional bits of the sum beyond 60; the module doc proves them enough.
_GUARD_BITS = 14


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


def bessel_j(nu: float, x: float, signs: dict[float, int] | None = None) -> float:
    """Evaluate J_nu(x) for 0 <= nu <= 120, 0 <= x <= 700 (see the module doc).

    The prefactor (x/2)^nu / Gamma(nu+1) times the ascending series S(x^2/4),
    which `ascending_series` sums in fixed point; signs, if given, gains the
    sign of S at z = 0.25 * x * x where the sum proves it (`ascending_series`).

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
    log_pref = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    if log_pref < -745.0:
        return 0.0
    return math.exp(log_pref) * ascending_series(nu, 0.25 * x * x, log_pref, signs)


def ascending_series(nu: float, z: float, log_pref: float,
                     signs: dict[float, int] | None = None) -> float:
    """S_nu(z) = sum_k (-z)^k / (k! (nu+1)_k), to the precision that
    J_nu = exp(log_pref) S_nu needs (module doc), rounded to a float.

    With nu = p/q and z = a/2^e, t_0 = 2^P and
    t_k = -floor(floor(t_{k-1} a q / 2^e) / (k (p + k q))), up to the first
    t_k = 0.  log_pref is ln((x/2)^nu / Gamma(nu+1)) at z = x^2/4, and only
    sets P.  For nu <= 120 and x <= 700 the sum is off by under
    2^-62 / max(1, exp(log_pref)) before its final rounding (module doc).

    signs, if given, maps z to the sign of S_nu(z) where the sum proves it
    (`proven_sign`), whatever log_pref is.
    """
    prec = series_bits(log_pref)
    a, b = z.as_integer_ratio()
    s, terms = series_sum(nu, a, b.bit_length() - 1, prec)
    if signs is not None and (sign := proven_sign(s, terms)):
        signs[z] = sign
    return s / (1 << prec)


def series_bits(log_pref: float) -> int:
    """P, the fractional bits of the sum (module doc), for a prefactor of
    exp(log_pref)."""
    return 60 + _GUARD_BITS + max(0, math.ceil(log_pref / _LOG2))


def series_sum(nu: float, a: int, e: int, prec: int) -> tuple[int, int]:
    """(s, K): s / 2^prec is S_nu(a / 2^e), summed in fixed point with prec
    fractional bits over its K terms after t_0 (module doc), so it is off by
    under 4K units of 2^-prec."""
    p, q = nu.as_integer_ratio()
    aq = a * q
    term = s = 1 << prec
    k = 0
    while term:
        k += 1
        term = -(((term * aq) >> e) // (k * (p + k * q)))
        s += term
    return s, k


def proven_sign(s: int, terms: int) -> int:
    """The sign of S, +1 or -1, that a `series_sum` s of S over its terms
    proves, as s is off by under 4 terms units; 0 where |s| <= 4 terms.  An
    integer combination sum_i w_i s_i of such sums at one precision takes
    terms = sum_i |w_i| K_i."""
    return (s > 4 * terms) - (s < -4 * terms)
