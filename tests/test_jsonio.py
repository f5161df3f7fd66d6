from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from nonfree.jsonio import dumps

AWKWARD = 'quote " backslash \\ control \x01 separator \u2028 non-ASCII \u03bc'


def plain(obj):
    """The document in the types json.dumps knows, as dumps encodes the others."""
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    return obj


def test_dumps_matches_json_dumps_on_strings_literals_and_numeric_types():
    # Dyadic floats, whose 17-digit form is also their shortest repr.
    doc = {
        AWKWARD: AWKWARD,
        "été": ["λ", None, True, False],
        "numbers": [Fraction(-3, 7), complex(1.5, -2.0), 0.25, 7, 3.0],
        "array": [[1.0, -0.5], [2.0, 0.125]],
    }
    expected = json.dumps(plain(doc), ensure_ascii=False, separators=(",", ":"), allow_nan=False)
    assert dumps(doc) == expected


@pytest.mark.parametrize(
    "value",
    [np.int64(7), np.float64(0.25), np.float32(0.25), np.complex128(1j), np.bool_(True),
     np.array([1.0, 2.0])],
    ids=["int64", "float64", "float32", "complex128", "bool_", "ndarray"],
)
def test_dumps_refuses_numpy_values(value):
    # Reports hold Python values only; a numpy value that leaks into one is a bug, not data.
    with pytest.raises(TypeError):
        dumps({"leaked": [value]})
