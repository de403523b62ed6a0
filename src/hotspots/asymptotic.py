"""The asymptotic parameter family driving the bound to sqrt(e).

Along the family

    eps_d = (1 + c d^alpha)^{-2},   a_d = k d,   r = 4/d,   V = Vogt,

with c > 0 and alpha in (-1, -1/2], the bound converges to
e^{4k} * (1 + something -> 0).  k is fixed at its optimum 1/8 (`A_SLOPE`),
where the first factor is e^{1/2} exactly and the whole bound tends to
sqrt(e) from above.

The exponent on d in a_d is fixed at 1: other exponents provably destroy the
limit, so they are not exposed as parameters.  Everything is evaluated in log
space — ln V grows like c d^{alpha+1} / 4 (about 2500 at d = 10^8 with the
defaults), so V itself is never formed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import InfeasibleParameterError
from .vfunction import VKind, log_v

_FEASIBLE_SCAN_CAP = 10 ** 6

#: The slope k of a_d = k d; 4k = r a_d is exactly 1/2.
A_SLOPE = 0.125


@dataclass(frozen=True)
class AsymptoticParams:
    """Family parameters at one dimension d (a_d = A_SLOPE d; see module doc)."""

    d: int
    c: float = 1.0
    alpha: float = -0.5

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 5:
            raise InfeasibleParameterError(
                f"asymptotic family needs integer d >= 5 (so 4/d < 1), got {self.d!r}"
            )
        if not self.c > 0.0:
            raise InfeasibleParameterError(f"c must be positive, got {self.c!r}")
        if not (-1.0 < self.alpha <= -0.5):
            raise InfeasibleParameterError(
                f"alpha must lie in (-1, -1/2], got {self.alpha!r}"
            )


def epsilon_d(c: float, alpha: float, d: int) -> float:
    """eps_d = (1 + c d^alpha)^{-2}."""
    q = c * float(d) ** alpha
    return (1.0 + q) ** -2.0


def _one_minus_eps(c: float, alpha: float, d: int) -> float:
    """1 - eps_d = (2q + q^2) / (1+q)^2, grouped to avoid cancellation."""
    q = c * float(d) ** alpha
    return (2.0 * q + q * q) / ((1.0 + q) * (1.0 + q))


def is_feasible(c: float, alpha: float, d: int) -> bool:
    """Whether eps_d < 1 - 4/d, i.e. (eps_d, a_d) lies in A_d."""
    # eps_d < 1 - 4/d  <=>  1 - eps_d > 4/d
    return _one_minus_eps(c, alpha, d) > 4.0 / d


def feasible_threshold(c: float = 1.0, alpha: float = -0.5) -> int:
    """Smallest d >= 5 with eps_d < 1 - 4/d, by `bisect` up to 10^6.

    Feasible means d(1-eps_d) > 4, and for alpha > -1 d(1-eps_d) increases:
    its derivative is >= (u-1)^2(u+2)/u^3 >= 0 with u = 1 + c d^alpha.
    """
    if not is_feasible(c, alpha, _FEASIBLE_SCAN_CAP):
        raise InfeasibleParameterError(
            f"no feasible dimension up to {_FEASIBLE_SCAN_CAP} for c={c:g}, alpha={alpha:g}"
        )
    return bisect.bisect_left(range(_FEASIBLE_SCAN_CAP + 1), True, 5,
                              key=lambda d: is_feasible(c, alpha, d))


def asymptotic_bound(params: AsymptoticParams) -> float:
    """Evaluate the bound at (eps_d, a_d) with r = 4/d and the Vogt V.

    The first factor is computed as exp(4 A_SLOPE) so that the identity
    e^{r a_d} = e^{1/2} holds to machine precision.
    """
    d = params.d
    if not is_feasible(params.c, params.alpha, d):
        threshold = feasible_threshold(params.c, params.alpha)
        raise InfeasibleParameterError(
            f"eps_d >= 1 - 4/d at d={d}; the family is feasible from d={threshold}"
        )
    r = 4.0 / d
    a = A_SLOPE * d
    eps = epsilon_d(params.c, params.alpha, d)
    one_minus = _one_minus_eps(params.c, params.alpha, d)
    rho = one_minus - r  # 1 - eps - r, both pieces modest
    lv = log_v(VKind.VOGT, eps, d)
    ra = 4.0 * A_SLOPE  # r * a = (4/d)(k d), formed without d
    second = math.exp(ra + math.log(r) + lv - math.log(rho) - one_minus * a)
    return math.exp(ra) + second


def sweep(d_list: list[int], c: float = 1.0,
          alpha: float = -0.5) -> list[tuple[int, float]]:
    """asymptotic_bound at each d in d_list, as (d, bound) pairs."""
    return [
        (d, asymptotic_bound(AsymptoticParams(d=d, c=c, alpha=alpha)))
        for d in d_list
    ]
