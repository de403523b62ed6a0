"""V-functions: exit-time tail prefactors V(epsilon, d), always in log space.

A V-function certifies sup_x P_x(tau_D > t) <= V(eps, d) * exp(-(1-eps) *
lambda_D * t) over a class of domains.  Two closed forms are built in:

* Vogt:            V = 2^{1/4} * ((1 + 1/sqrt(eps)) / 2)^{d/2}
* improved Vogt:   V = e^{d/4} * sqrt(2) * (2d)^{-d/4}
                       * sqrt(Gamma(d)/Gamma(d/2))
                       * ((1 + 1/sqrt(eps)) / 2)^{d/2}

Downstream consumers always receive ln V: at d = 10^6 the Vogt prefactor is
around e^250, so products like V * exp(-(1-eps) a) must be assembled as
exp(log-sum).  The epsilon-dependent factor is computed through log1p/expm1
so it stays accurate as eps -> 1.
"""

from __future__ import annotations

import bisect
import enum
import math
import os
from typing import Callable, Iterable, Sequence

from .errors import InfeasibleParameterError

_MAX_D_VOGT = 10 ** 9
_MAX_D_IMPROVED = 200


class CustomTable(tuple):
    """The (epsilon, log V) rows of a custom V, checked when built: at least 2
    rows, epsilon strictly increasing in (0, 1], and log V finite and >= 0, as
    V >= 1 for any domain (a path started inside survives t = 0).  Each cell is
    stored as float(cell), so CSV strings are accepted."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Sequence]) -> CustomTable:
        table: list[tuple[float, float]] = []
        for row in rows:
            try:
                eps, lv = row
            except (TypeError, ValueError):
                raise InfeasibleParameterError(
                    f"custom V table rows need 2 columns, got {row!r}")
            try:
                eps, lv = float(eps), float(lv)
            except (TypeError, ValueError):
                raise InfeasibleParameterError(f"custom V table row is not numeric: {row!r}")
            if not (0.0 < eps <= 1.0):
                raise InfeasibleParameterError(f"table epsilon out of (0, 1]: {eps!r}")
            if not lv >= 0.0:
                raise InfeasibleParameterError(f"table log V must be >= 0, got {lv!r}")
            if lv == math.inf:
                raise InfeasibleParameterError(f"table log V must be finite, got {lv!r}")
            if table and eps <= table[-1][0]:
                raise InfeasibleParameterError("table epsilons must strictly increase")
            table.append((eps, lv))
        if len(table) < 2:
            raise InfeasibleParameterError("custom V table needs at least 2 rows")
        return super().__new__(cls, table)


class VKind(enum.Enum):
    VOGT = "vogt"
    IMPROVED_VOGT = "improved"
    CUSTOM = "custom"


def log_v(kind: VKind, epsilon: float, d: int,
          table: CustomTable | None = None) -> float:
    """ln V(epsilon, d) for the requested V-function kind.

    Examples
    --------
    >>> abs(log_v(VKind.VOGT, 1.0, 7) - 0.25 * math.log(2.0)) < 1e-15
    True
    """
    if not (0.0 < epsilon <= 1.0):
        raise InfeasibleParameterError(
            f"epsilon must lie in (0, 1], got {epsilon!r}"
        )
    return log_v_curve(kind, d, table)(epsilon)


def log_v_curve(kind: VKind, d: int,
                table: CustomTable | None = None) -> Callable[[float], float]:
    """epsilon -> ln V(epsilon, d), with everything that depends only on
    (kind, d, table) computed once.

    The curve does not check epsilon; log_v does.  Floating-point addition
    runs left to right, so summing the epsilon-free terms into K first and
    then adding (d/2) ln((1 + eps^{-1/2}) / 2) changes no bit of the formula.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise InfeasibleParameterError(f"dimension must be an integer >= 2, got {d!r}")

    if kind is VKind.VOGT:
        if d > _MAX_D_VOGT:
            raise InfeasibleParameterError(f"Vogt V supports d <= 1e9, got {d}")
        prefix = 0.25 * math.log(2.0)
    elif kind is VKind.IMPROVED_VOGT:
        if d > _MAX_D_IMPROVED:
            raise InfeasibleParameterError(
                f"improved Vogt V supports d <= {_MAX_D_IMPROVED}, got {d}"
            )
        df = float(d)
        prefix = (
            0.25 * df
            + 0.5 * math.log(2.0)
            - 0.25 * df * math.log(2.0 * df)
            + 0.5 * (math.lgamma(df) - math.lgamma(0.5 * df))
        )
    elif kind is VKind.CUSTOM:
        return _interp_table(table)
    else:  # pragma: no cover - enum is closed
        raise InfeasibleParameterError(f"unknown V kind {kind!r}")

    half_d = 0.5 * float(d)

    def curve(epsilon: float) -> float:
        # ln((1+s)/2) = log1p((s-1)/2) with s - 1 = expm1(-ln(eps)/2): stable
        # as eps -> 1
        sm1 = math.expm1(-0.5 * math.log(epsilon))
        return prefix + half_d * math.log1p(0.5 * sm1)

    return curve


def _interp_table(table: CustomTable | None) -> Callable[[float], float]:
    """Linear interpolation in the table, checked unless it is a CustomTable;
    extrapolation is refused.  Rounding keeps each value between the ln V of
    its two rows, so the curve is never below 0."""
    if not table:
        raise InfeasibleParameterError("custom V kind needs a (epsilon, log V) table")
    if not isinstance(table, CustomTable):
        table = CustomTable(table)
    eps_vals = [row[0] for row in table]

    def curve(epsilon: float) -> float:
        if epsilon < eps_vals[0] or epsilon > eps_vals[-1]:
            raise InfeasibleParameterError(
                f"epsilon={epsilon!r} outside the tabulated range "
                f"[{eps_vals[0]:g}, {eps_vals[-1]:g}]; extrapolation is refused"
            )
        # the first i >= 1 with epsilon <= eps_vals[i]: 1 <= i < len(table)
        i = bisect.bisect_left(eps_vals, epsilon, 1)
        e0, v0 = table[i - 1]
        e1, v1 = table[i]
        w = (epsilon - e0) / (e1 - e0)
        return v0 + w * (v1 - v0)

    return curve


def load_custom_table(path: str | os.PathLike) -> CustomTable:
    """The CustomTable of a CSV file: two columns per line, epsilon and
    log V; lines starting with # and blank lines are skipped."""
    import csv

    with open(path, newline="") as fh:  # read whole: a read error comes first
        rows = [row for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#")]
    return CustomTable(rows)
