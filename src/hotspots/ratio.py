"""Ratio upper bounds r(d) for mu_2 / lambda_1.

Four kinds are supported:

* ``BESSEL_EXACT`` — r = p_{d/2,1}^2 / j_{d/2-1,1}^2 with safe directed
  rounding: the numerator square is rounded up to 5 significant figures, the
  denominator square down to 5 significant figures, and their exact quotient
  up to 4 decimal places.  The squares come from the proven directed squares
  of the `zeros` records and every step moves the value upward, so the result
  is a certified upper bound on the true ratio.
* ``CLOSED_FORM`` — r = (4d+8) / (d(d+8)), valid for every d >= 2.
* ``ASYMPTOTIC_4_OVER_D`` — r = 4/d, requires d >= 5 so that r < 1.
* ``CUSTOM`` — a user-supplied value in (0, 1) for tailored domain classes.
"""

from __future__ import annotations

import decimal
import enum

from ._format import round_sig_ceil, round_sig_floor
from .errors import InfeasibleParameterError
from .zeros import first_bessel_zero, first_p_root


class RatioKind(enum.Enum):
    BESSEL_EXACT = "bessel"
    CLOSED_FORM = "closed"
    ASYMPTOTIC_4_OVER_D = "4overd"
    CUSTOM = "custom"


def displayed_squares(p_record, j_record) -> tuple[float, float]:
    """The directed 5-significant-figure table cells (p^2 up, j^2 down)."""
    p2 = round_sig_ceil(p_record.value_squared_up, 5)
    j2 = round_sig_floor(j_record.value_squared_down, 5)
    return p2, j2


def bessel_exact_from_records(p_record, j_record) -> float:
    """Safe ratio from precomputed root records (see module doc)."""
    p2, j2 = displayed_squares(p_record, j_record)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.rounding = decimal.ROUND_CEILING  # so no rounding step lowers r
        quotient = decimal.Decimal(p2) / decimal.Decimal(j2)
        return float(quotient.quantize(decimal.Decimal("0.0001")))


def bessel_exact_value(d: int) -> float:
    """The safely-rounded Bessel ratio for dimension d (see module doc)."""
    return bessel_exact_from_records(first_p_root(d),
                                     first_bessel_zero(0.5 * d - 1.0))


def ratio_upper_bound(d: int, kind: RatioKind,
                      custom_value: float | None = None) -> float:
    """Evaluate r(d) for the requested kind; refuse a value outside (0, 1).

    Examples
    --------
    >>> ratio_upper_bound(2, RatioKind.CLOSED_FORM)
    0.8
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise InfeasibleParameterError(f"dimension must be an integer >= 2, got {d!r}")
    if kind is RatioKind.BESSEL_EXACT:
        value = bessel_exact_value(d)
    elif kind is RatioKind.CLOSED_FORM:
        value = (4.0 * d + 8.0) / (d * (d + 8.0))
    elif kind is RatioKind.ASYMPTOTIC_4_OVER_D:
        if d <= 4:
            raise InfeasibleParameterError(
                f"4/d is only a valid ratio bound (< 1) for d >= 5, got d={d}"
            )
        value = 4.0 / d
    elif kind is RatioKind.CUSTOM:
        if custom_value is None:
            raise InfeasibleParameterError("custom ratio kind needs a value")
        value = float(custom_value)
    else:  # pragma: no cover - enum is closed
        raise InfeasibleParameterError(f"unknown ratio kind {kind!r}")
    if not (0.0 < value < 1.0):
        raise InfeasibleParameterError(
            f"ratio bound must lie in (0, 1), got {value!r} "
            f"(kind={kind.value}, d={d})"
        )
    return value
