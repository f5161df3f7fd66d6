from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring
from typing import NamedTuple

import numpy as np
import pytest

from conftest import random_tensor, rng
from nonfree import cli
from nonfree.construct import build_family_tensor
from nonfree.family import family_data
from nonfree.jsonio import dumps
from nonfree.tensor import tensor_to_doc

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


class Text(str):
    pass


class Pair(NamedTuple):
    first: int
    second: int


@pytest.mark.parametrize("value", [Text("key"), Pair(1, 2)], ids=["str-subclass", "namedtuple"])
def test_dumps_refuses_subclasses_of_the_types_it_encodes(value):
    # The encoder looks each value's exact type up; a subclass may carry a meaning JSON would lose.
    with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__}"):
        dumps({"leaked": [value]})


def test_dumps_refuses_a_key_that_is_not_a_string():
    with pytest.raises(TypeError, match="^JSON object keys must be strings, got 1$"):
        dumps({1: "one"})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [v], lambda v: {"re": v}], ids=["bare", "list", "dict"])
def test_dumps_refuses_non_finite_floats(value, wrap):
    with pytest.raises(ValueError, match="non-finite"):
        dumps(wrap(value))


def reference_dumps(obj) -> str:
    """The encoder dumps replaced, one isinstance chain per value, kept as its oracle."""
    out: list[str] = []

    def emit(obj):
        if obj is None or obj is True or obj is False:
            out.append({None: "null", True: "true", False: "false"}[obj])
        elif isinstance(obj, str):
            out.append(encode_basestring(obj))
        elif type(obj) is int:
            out.append(str(obj))
        elif type(obj) is float:
            if math.isnan(obj) or math.isinf(obj):
                raise ValueError("non-finite float in report")
            text = format(obj, ".17g")
            out.append(text if "e" in text or "." in text else text + ".0")
        elif isinstance(obj, Fraction):
            emit({"num": str(obj.numerator), "den": str(obj.denominator)})
        elif type(obj) is complex:
            emit({"re": obj.real, "im": obj.imag})
        elif isinstance(obj, dict):
            out.append("{")
            for pos, (key, value) in enumerate(obj.items()):
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {key!r}")
                out.append("," if pos else "")
                out.append(encode_basestring(key) + ":")
                emit(value)
            out.append("}")
        elif isinstance(obj, (list, tuple)):
            out.append("[")
            for pos, value in enumerate(obj):
                out.append("," if pos else "")
                emit(value)
            out.append("]")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    emit(obj)
    return "".join(out)


def test_reports_encode_as_the_reference_encoder_does(tmp_path, monkeypatch, capsys):
    # Flow, family and refutation reports: every number, string, rational and
    # nesting the CLI prints, with real and complex tensors.
    family = tmp_path / "family.json"
    family.write_text(json.dumps(tensor_to_doc(build_family_tensor(family_data(4)))))
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(tensor_to_doc(random_tensor(rng(6), (2, 3, 4)))))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({f"p{axis}": [0.25] * 4 for axis in (1, 2, 3)}))
    docs = []
    monkeypatch.setattr(cli, "dumps", lambda doc: docs.append(doc) or dumps(doc))
    for argv in [
        ("flow", "--input", str(family)),
        ("flow", "--input", str(dense), "--max-steps", "2"),
        ("family", "--n", "5", "--verify"),
        ("certify-nonfree", "--named", "T5"),
        ("polytope", "--input", str(family), "--refute", str(point), "--samples", "2"),
        ("moment-map", "--input", str(dense)),
    ]:
        cli.main(list(argv))
    capsys.readouterr()
    assert len(docs) == 6
    for doc in docs:
        assert dumps(doc) == reference_dumps(doc)
