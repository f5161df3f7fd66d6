"""Deterministic JSON emission: same document, byte-identical text.

Floats are printed with 17 significant digits so values round-trip exactly
and reports are reproducible across runs and platforms. Reports hold Python
values and tensors only: a numpy scalar or array, float64 included, is a
TypeError. A `Tensor3` is written as the document `tensor.tensor_from_doc`
reads: its dims and its nonzero entries in C order, 1-based, in one `%` over
one flat tuple, with a template joined from four entry templates that print
each part as `_format_float` does.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring

import numpy as np

from .tensor import Tensor3, support


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
        parts.append(prefix + _encode(value))
    return "{" + ",".join(parts) + "}"


def _encode_list(obj) -> str:
    # The rows of a matrix and a trajectory hold floats alone: skip the dispatch.
    if set(map(type, obj)) == {float}:
        return "[" + ",".join(map(_format_float, obj)) + "]"
    return "[" + ",".join(map(_encode, obj)) + "]"


# The template of an entry, by whether its real and its imaginary part are integral
# floats below 1e17: "%.17g" prints those without a point, so they take "%.1f",
# which prints what _format_float does, the integer and ".0" (for -0.0 too).
_ENTRIES = tuple(
    '{"i":%%d,"j":%%d,"k":%%d,"re":%s,"im":%s}' % (re, im)
    for re in ("%.17g", "%.1f") for im in ("%.17g", "%.1f")
)


def _encode_tensor(t: Tensor3) -> str:
    """The dims and the nonzero entries of t, at the triples of `support(t, 0.0)`,
    formatted by one template over one flat tuple. A Tensor3 is finite, so
    every part prints as a JSON number."""
    flat = np.flatnonzero(support(t, 0.0).mask)  # C order
    parts = t.entries.reshape(-1)[flat].view(np.float64).reshape(-1, 2)  # re, im
    integral = (parts == np.trunc(parts)) & (np.abs(parts) < 1e17)
    template = ",".join(map(_ENTRIES.__getitem__, integral.dot((2, 1)).tolist()))
    # The 1-based indices as floats, so that one tolist() serves: "%d" prints an integral float.
    rows = np.column_stack((*np.unravel_index(flat, t.dims), parts))
    rows[:, :3] += 1
    entries = template % tuple(rows.ravel().tolist())
    return '{"dims":[%d,%d,%d],"entries":[%s]}' % (*t.dims, entries)


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
    Tensor3: _encode_tensor,
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
