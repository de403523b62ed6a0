"""Directed decimal rounding and canonical JSON helpers; the JSON helpers
import json and hashlib when first called, as text output never needs them."""

from __future__ import annotations

import decimal
import functools
from typing import Any

_CEIL = decimal.ROUND_CEILING
_FLOOR = decimal.ROUND_FLOOR
_HALF_UP = decimal.ROUND_HALF_UP
#: room for the n significant figures of any rounding here
_CONTEXT = decimal.Context(prec=60)


def _quantize_sig(x: float, n: int, mode: str) -> decimal.Decimal:
    """x rounded to n significant figures in the given rounding mode."""
    if x == 0.0:
        return decimal.Decimal(0)
    d = decimal.Decimal(x)
    quant = decimal.Decimal(1).scaleb(d.adjusted() - n + 1, _CONTEXT)
    return d.quantize(quant, rounding=mode, context=_CONTEXT)


def round_sig_ceil(x: float, n: int) -> float:
    """Round x up (toward +inf) to n significant figures."""
    return float(_quantize_sig(x, n, _CEIL))


def round_sig_floor(x: float, n: int) -> float:
    """Round x down (toward -inf) to n significant figures."""
    return float(_quantize_sig(x, n, _FLOOR))


def format_sig(x: float, n: int) -> str:
    """Display string at n significant figures, half-up, no exponent for
    magnitudes the tables use."""
    q = _quantize_sig(x, n, _HALF_UP)
    return format(q.normalize(_CONTEXT) if q == q.to_integral_value() else q, "f")


@functools.cache
def _encoder():
    """The canonical encoder, built once (json.dumps would build one per call)."""
    import json

    return json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, repr floats."""
    return _encoder().encode(payload)


def payload_checksum(payload: Any) -> str:
    """sha256 over the canonical JSON encoding of payload."""
    import hashlib

    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
