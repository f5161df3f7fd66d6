"""Deterministic JSON emission: same document, byte-identical text.

Floats are printed with 17 significant digits so values round-trip exactly
and reports are reproducible across runs and platforms. Reports hold Python
values only: a numpy scalar or array, float64 included, is a TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report")
    text = format(x, ".17g")
    # Keep the token a JSON number that parses back as float.
    if "e" not in text and "." not in text:
        text += ".0"
    return text


# The literals and the string escaping json.dumps(obj, ensure_ascii=False) writes.
_LITERALS = {None: "null", True: "true", False: "false"}


def _emit(obj, out: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append(_LITERALS[obj])
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif type(obj) is int:
        out.append(str(obj))
    elif type(obj) is float:
        out.append(_format_float(obj))
    elif isinstance(obj, Fraction):
        _emit({"num": str(obj.numerator), "den": str(obj.denominator)}, out)
    elif type(obj) is complex:
        _emit({"re": obj.real, "im": obj.imag}, out)
    elif isinstance(obj, dict):
        out.append("{")
        for pos, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if pos:
                out.append(",")
            out.append(encode_basestring(key))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, value in enumerate(obj):
            if pos:
                out.append(",")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)
