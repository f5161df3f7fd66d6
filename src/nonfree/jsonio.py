"""Deterministic JSON emission: same document, byte-identical text.

Floats are printed with 17 significant digits so values round-trip exactly
and reports are reproducible across runs and platforms. Reports hold Python
values only: a numpy scalar or array, float64 included, is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring


def _format_float(x: float) -> str:
    text = format(x, ".17g")
    # Keep the token a JSON number that parses back as float.
    if "." not in text and "e" not in text:
        text = _integral(text)
    return text


def _integral(text: str) -> str:
    """The JSON token of a float whose 17-digit form has no point and no exponent."""
    if text[-1] in "nf":  # nan, inf and -inf
        raise ValueError("non-finite float in report")
    return text + ".0"


def _encode_dict(obj: dict) -> str:
    parts = []
    for key, value in obj.items():
        prefix = _KEYS.get(key)
        if prefix is None:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            prefix = _KEYS[key] = encode_basestring(key) + ":"
        # The floats of a tensor entry, its most common values, skip the dispatch.
        if type(value) is float:
            text = format(value, ".17g")
            if "." not in text and "e" not in text:
                text = _integral(text)
            parts.append(prefix + text)
        else:
            parts.append(prefix + _encode(value))
    return "{" + ",".join(parts) + "}"


def _encode_list(obj) -> str:
    return "[" + ",".join(map(_encode, obj)) + "]"


# The literals and the string escaping json.dumps(obj, ensure_ascii=False) writes,
# keyed by exact type: a subclass, even of str or tuple, is a TypeError.
_ENCODERS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    str: encode_basestring,
    int: str,
    float: _format_float,
    Fraction: lambda obj: f'{{"num":"{obj.numerator}","den":"{obj.denominator}"}}',
    complex: lambda obj: _encode_dict({"re": obj.real, "im": obj.imag}),
    dict: _encode_dict,
    list: _encode_list,
    tuple: _encode_list,
}
# Encoded object keys with their colon, by key; reports use a few dozen.
_KEYS: dict[str, str] = {}


def _encode(obj) -> str:
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return encoder(obj)


def dumps(obj) -> str:
    return _encode(obj)
