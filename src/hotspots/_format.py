"""Directed decimal rounding and canonical JSON helpers."""

from __future__ import annotations

import decimal
import hashlib
import json
from typing import Any

_CEIL = decimal.ROUND_CEILING
_FLOOR = decimal.ROUND_FLOOR
_HALF_UP = decimal.ROUND_HALF_UP


def _round_sig(x: float, n: int, mode: str) -> float:
    if x == 0.0:
        return 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(x)
        quant = decimal.Decimal(1).scaleb(d.adjusted() - n + 1)
        return float(d.quantize(quant, rounding=mode))


def round_sig_ceil(x: float, n: int) -> float:
    """Round x up (toward +inf) to n significant figures."""
    return _round_sig(x, n, _CEIL)


def round_sig_floor(x: float, n: int) -> float:
    """Round x down (toward -inf) to n significant figures."""
    return _round_sig(x, n, _FLOOR)


def format_sig(x: float, n: int) -> str:
    """Display string at n significant figures, half-up, no exponent for
    magnitudes the tables use."""
    if x == 0.0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(x)
        quant = decimal.Decimal(1).scaleb(d.adjusted() - n + 1)
        q = d.quantize(quant, rounding=_HALF_UP)
        return format(q.normalize() if q == q.to_integral_value() else q, "f")


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, repr floats."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def payload_checksum(payload: Any) -> str:
    """sha256 over the canonical JSON encoding of payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
