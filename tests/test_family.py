from __future__ import annotations

import dataclasses
import json
from fractions import Fraction as F

import pytest

from conftest import fraction_family_data
from nonfree.family import (
    FamilyInvariantError,
    family_data,
    family_to_doc,
    gamma_support,
    halfspace_check,
)
from nonfree.jsonio import dumps
from nonfree.supports import is_free_support


def test_gamma_3_listing():
    expected = {(1, 3, 1), (1, 3, 2), (1, 2, 3), (2, 2, 1), (2, 2, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2)}
    assert set(gamma_support(3)) == expected


def test_gamma_2_is_w_state_support():
    assert set(gamma_support(2)) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


def test_gamma_size_is_n_squared_minus_one():
    for n in range(2, 11):
        assert len(gamma_support(n)) == n * n - 1


def test_gamma_rejects_small_n():
    with pytest.raises(ValueError):
        gamma_support(1)


def test_family_data_rejects_small_n():
    with pytest.raises(ValueError, match="^family_data requires n >= 2$"):
        family_data(1)


def test_family_data_n3_exact_values():
    data = family_data(3)
    assert data.c == F(1, 3)
    assert data.norm_h_sq == F(14, 3)
    q12 = (F(17, 42), F(1, 3), F(11, 42))
    assert data.q == (q12, q12, (F(5, 14), F(5, 14), F(2, 7)))
    assert data.b == (F(1, 7), F(1, 7), F(0))
    assert data.lambda_W == F(5, 14)
    assert data.w_sq == (F(2, 21), F(1, 6), F(2, 21))
    assert tuple(q2j - bj for q2j, bj in zip(data.q[1], data.b)) == (F(11, 42), F(4, 21), F(11, 42))
    assert sum(x * x for qi in data.q for x in qi) == F(43, 42)
    assert data.ness_lambda == F(43, 42)


def test_family_identities_hold_exactly_for_all_desk_sizes():
    # family_data raises FamilyInvariantError if any identity fails.
    for n in range(2, 13):
        data = family_data(n)
        assert data.b[n - 1] == 0
        assert sum(data.b, F(0)) == data.q[2][n - 1]
        assert sum(x * x for qi in data.q for x in qi) == F(3, n) + data.c ** 2 / data.norm_h_sq


def test_q_is_orthogonal_projection_onto_halfspace_boundary():
    for n in (2, 3, 5, 8):
        data = family_data(n)
        pairing = sum(
            (hx * qx for hi, qi in zip(data.h, data.q) for hx, qx in zip(hi, qi)), F(0)
        )
        assert pairing == data.c
        # q - (u|u|u) is a scalar multiple of h, exactly.
        scale = data.c / data.norm_h_sq
        for hi, qi in zip(data.h, data.q):
            assert all(qx - F(1, n) == scale * hx for hx, qx in zip(hi, qi))


def test_halfspace_vertex_examples_n3():
    data = family_data(3)
    h1, h2, h3 = data.h
    assert h1[0] + h2[1] + h3[2] == F(1, 3)  # vertex (1,2,3), equality
    assert h1[0] + h2[0] + h3[0] == F(7, 3)  # vertex (1,1,1), strict


def test_halfspace_equality_set_is_gamma():
    for n in range(2, 11):
        data = family_data(n)
        report = halfspace_check(data)
        assert report.valid
        assert report.min_support_value == data.c
        assert report.equality_set == gamma_support(n)
        assert set(report.equality_set) == set(gamma_support(n))


def test_a_nudged_q_breaks_the_gamma_pairing_identity():
    # Negative control: construction re-checks every identity, the scaled integer pairing included.
    n = 5
    data = family_data(n)
    q1, q2, q3 = data.q
    nudged = (q1, q2, q3[:1] + (q3[1] + F(1, n**3),) + q3[2:])
    with pytest.raises(FamilyInvariantError) as excinfo:
        dataclasses.replace(data, q=nudged)
    assert "<(e_i|e_j|e_k), q> constant on Gamma_n" in str(excinfo.value)


@pytest.mark.parametrize("n", range(2, 102))
def test_family_data_equals_the_fraction_oracle_at_every_cli_size(n):
    data, oracle = family_data(n), fraction_family_data(n)
    for field in dataclasses.fields(data):
        assert getattr(data, field.name) == getattr(oracle, field.name), field.name
    scalars = (data.c, data.norm_h_sq, data.lambda_W)
    vectors = (*data.h, *data.q, data.b, data.w_sq)
    assert all(type(x) is F for x in (*scalars, *(x for v in vectors for x in v)))
    assert type(data.n) is int and all(type(v) is tuple and len(v) == n for v in vectors)


EPS = F(1, 5**6)


def _moved(vec, i, by=EPS):
    """vec with by added to its entry i."""
    return vec[:i] + (vec[i] + by,) + vec[i + 1 :]


def _swapped_mass(vec):
    """vec with EPS moved from its second entry to its first: the same sum."""
    return _moved(_moved(vec, 0), 1, -EPS)


# For each named check but the Gamma_n pairing (tested above), one corrupted
# field of family_data(5) that breaks it; other checks may fail too.
NEGATIVE_CONTROLS = {
    "norm_h_sq closed form": lambda d: {"norm_h_sq": d.norm_h_sq + EPS},
    "b_n = 0": lambda d: {"b": _moved(d.b, d.n - 1)},
    "b_j > 0 for j < n": lambda d: {"b": _moved(d.b, 0, -d.b[0])},
    "sum b = (q3)_n": lambda d: {"b": _moved(d.b, 1)},
    "shift identity": lambda d: {"b": _swapped_mass(d.b)},
    "0 <= q2_j - b_j < lambda": lambda d: {"lambda_W": d.q[1][0] - d.b[0]},
    "w_sq = lambda - q2 + b >= 0": lambda d: {"w_sq": _moved(d.w_sq, 0)},
    "q components sum to 1": lambda d: {"q": (d.q[0], d.q[1], _moved(d.q[2], 0))},
    "q nonnegative non-increasing": lambda d: {"q": (d.q[0], d.q[1], d.q[2][::-1])},
    "q1 = q2 strictly decreasing": lambda d: {"q": (d.q[0], _swapped_mass(d.q[1]), d.q[2])},
    "q3 flat then small": lambda d: {"q": (d.q[0], d.q[1], _swapped_mass(d.q[2]))},
    "<q, h> = c": lambda d: {"c": d.c + EPS},
    "|q|^2 = 3/n + c^2/|h|^2": lambda d: {"norm_h_sq": d.norm_h_sq + EPS},
}


@pytest.mark.parametrize("check", NEGATIVE_CONTROLS)
def test_a_corrupted_field_fails_its_named_check(check):
    data = family_data(5)
    with pytest.raises(FamilyInvariantError) as excinfo:
        dataclasses.replace(data, **NEGATIVE_CONTROLS[check](data))
    assert repr(check) in str(excinfo.value)


def test_gamma_freeness_transition():
    assert is_free_support(gamma_support(2)).verdict
    for n in range(3, 8):
        assert not is_free_support(gamma_support(n)).verdict


def test_family_doc_serializes_rationals_as_strings():
    doc = json.loads(dumps(family_to_doc(family_data(3))))
    assert doc["c"] == {"num": "1", "den": "3"}
    assert doc["q"][2][0] == {"num": "5", "den": "14"}
    assert doc["lambda_W"] == {"num": "5", "den": "14"}
