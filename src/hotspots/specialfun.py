"""Bessel functions of the first kind and log-gamma.

Evaluation of J_nu(x) for real order 0 <= nu <= 120 and 0 <= x <= MAX_ARG =
700 to the value contract |error| <= 1e-12 |J_nu(x)| + 3e-14, which the test
suite checks against mpmath and scipy.  |J_nu| <= 1, so the floor is
relative to the function's scale; near a zero, or where J_nu is tiny, the
relative error can be large.  Nothing certified rests on this contract: `zeros` proves its
bounds in exact arithmetic and uses these values only to find roots.

One regime serves the whole domain: J_nu(x) = (x/2)^nu / Gamma(nu+1) S(z),
z = x^2/4, with the ascending series S(z) = sum_k (-z)^k / (k! (nu+1)_k) that
`zeros._exact_sign` proves.  S is summed in fixed point on Python ints with
P fractional bits, so its terms cancel without loss; the only errors are
the floors, one per term.  A floor's unit error in term j scales every later
term by the same relative amount, and no later term exceeds 2^big times term
j, where 2^big bounds the largest term (the terms rise from 1 to it, then
fall).  So each floor moves the sum by at most K 2^big units for K terms, a
crude bound that ignores the alternating signs.  Then J = prefactor x S
needs the prefactor's bits as well, when it exceeds 1: near the d=200 root
it is about e^36, and S is that much smaller than J.  Hence

    P = 60 + big + max(0, ceil(log2 prefactor)).

The sum stops once a term is below 2^big units and the terms shrink from
there on, so the rest of the alternating tail is below that too.  The
function keeps no state between calls.
"""

from __future__ import annotations

import math

from .errors import InfeasibleParameterError

#: Largest supported order (covers dimension 200 zeros plus margin).
MAX_ORDER = 120.0

#: Largest supported argument of bessel_j.  The int series' cost grows as
#: x^2, with the number of terms and the width of its ints: at x = 700 it
#: takes about 970 terms of up to 2,060 bits, 0.9 to 1.3 ms a call on a
#: 2-core x86-64 host.  It covers the root search (x <= 164).
MAX_ARG = 700.0

#: Largest supported log-gamma argument.
MAX_LOG_GAMMA_ARG = 500.0

_LOG2 = math.log(2.0)


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


def bessel_j(nu: float, x: float) -> float:
    """Evaluate J_nu(x) for 0 <= nu <= 120, 0 <= x <= 700 (see the module doc).

    The prefactor (x/2)^nu / Gamma(nu+1) times the ascending series S(x^2/4),
    summed in fixed point: with nu = p/q and z = a/2^e, t_0 = 2^P and
    t_k = -floor(floor(t_{k-1} a q / 2^e) / (k (p + k q))).

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
    lg_nu1 = math.lgamma(nu + 1.0)
    log_pref = nu * math.log(0.5 * x) - lg_nu1
    if log_pref < -745.0:
        return 0.0
    z = 0.25 * x * x
    big = 0
    if z > 0.0:  # z underflows to 0 for x below about 1e-154
        # the terms peak at k* where z = k*(nu + k*); 2^big is above that term
        k_star = 0.5 * (-nu + math.sqrt(nu * nu + 4.0 * z))
        log_tmax = (k_star * math.log(z) - math.lgamma(k_star + 1.0)
                    - (math.lgamma(nu + 1.0 + k_star) - lg_nu1))
        big = max(0, math.ceil(log_tmax / _LOG2))
    prec = 60 + big + max(0, math.ceil(log_pref / _LOG2))

    p, q = nu.as_integer_ratio()
    a, b = z.as_integer_ratio()
    e = b.bit_length() - 1
    aq = a * q
    floor = 1 << big
    term = s = 1 << prec
    k = 0
    while True:
        k += 1
        term = -(((term * aq) >> e) // (k * (p + k * q)))
        s += term
        if abs(term) < floor and k * (nu + k) > z:
            break
    return math.exp(log_pref) * (s / (1 << prec))
