from __future__ import annotations

import warnings
from math import sqrt

import numpy as np
import pytest

from conftest import issubset, norm, rng
from nonfree.construct import build_W, build_family_tensor, s0_tensor
from nonfree.family import family_data, gamma_support, staircase_index
from nonfree.reduction import DEFAULT_TOL, ReductionError, extract_Wa, reduce_to_s0
from nonfree.supports import vertex_matrix
from nonfree.tensor import GroupTriple, Tensor3, apply, support


def staircase_tensor(gen, n):
    arr = np.zeros((n, n, n), dtype=np.complex128)
    for (i, j, k) in gamma_support(n):
        arr[i - 1, j - 1, k - 1] = gen.standard_normal() + 1j * gen.standard_normal()
    return Tensor3(arr)


def test_extract_on_s0():
    n = 5
    w, a = extract_Wa(s0_tensor(n))
    expected = np.vstack([np.eye(n - 1), np.ones((1, n - 1))])
    np.testing.assert_array_equal(w, expected)
    np.testing.assert_array_equal(a, np.ones(n - 1))


def test_extract_inverts_family_construction():
    data = family_data(4)
    w, a = extract_Wa(build_family_tensor(data))
    np.testing.assert_allclose(w, build_W(data), atol=1e-15)
    np.testing.assert_allclose(a, [sqrt(float(bj)) for bj in data.b[:3]], atol=1e-15)


def test_extract_respects_diagonal_scaling():
    gen = rng(50)
    n = 4
    s = staircase_tensor(gen, n)
    w, a = extract_Wa(s)
    d1 = gen.standard_normal(n) + 2.0
    d2 = gen.standard_normal(n) + 2.0
    d3 = gen.standard_normal(n) + 2.0
    scaled = apply(GroupTriple(np.diag(d1), np.diag(d2), np.diag(d3)), s)
    w2, a2 = extract_Wa(scaled)
    for i in range(1, n + 1):
        for k in range(1, n):
            assert w2[i - 1, k - 1] == pytest.approx(
                d1[n - i] * d2[i - 1] * d3[k - 1] * w[i - 1, k - 1]
            )
    for i in range(1, n):
        assert a2[i - 1] == pytest.approx(d1[n - i - 1] * d2[i - 1] * d3[n - 1] * a[i - 1])


def test_extract_rejects_support_outside_staircase():
    arr = np.zeros((3, 3, 3), dtype=np.complex128)
    arr[0, 0, 0] = 1.0
    with pytest.raises(ReductionError):
        extract_Wa(Tensor3(arr))


def test_reduce_s0_is_identity():
    n = 4
    result = reduce_to_s0(s0_tensor(n))
    assert result.success
    assert result.residual == 0.0
    for factor in result.g.factors:
        np.testing.assert_allclose(factor, np.eye(n), atol=1e-14)


def test_reduce_family_tensors():
    for n in range(3, 9):
        result = reduce_to_s0(build_family_tensor(family_data(n)))
        assert result.success
        assert result.residual <= 1e-8


def test_reduce_applies_g_soundly():
    gen = rng(51)
    n = 4
    s = staircase_tensor(gen, n)
    result = reduce_to_s0(s)
    assert result.success
    moved = apply(result.g, s)
    assert norm(Tensor3(moved.entries - s0_tensor(n).entries)) <= 1e-8
    # The reduction never leaves the staircase.
    assert issubset(support(moved, 1e-9), gamma_support(n))


def test_reduce_random_staircase_tensors():
    gen = rng(52)
    successes = 0
    for _ in range(100):
        try:
            result = reduce_to_s0(staircase_tensor(gen, 4))
            successes += result.success
        except ReductionError:
            pass
    assert successes >= 99


def test_the_log_space_system_has_full_row_rank():
    # The torus solve solves x_i + y_j + z_k = -Log(entry) over the support of S0; full
    # row rank makes it consistent for every right side, so only the final
    # residual can fail a reduction that passed the genericity checks.
    for n in range(3, 33):
        rows = vertex_matrix(support(s0_tensor(n), 0.0))
        assert rows.shape == (3 * (n - 1), 3 * n)
        assert np.linalg.matrix_rank(rows) == 3 * (n - 1)


def test_tol_bounds_only_the_final_residual():
    result = reduce_to_s0(build_family_tensor(family_data(4)), tol=0.0)
    assert not result.success and 0.0 < result.residual <= DEFAULT_TOL
    assert len(result.log) == 2


@pytest.mark.parametrize("scale", [1e13, 1e-13, 1e100, 1e-100])
@pytest.mark.parametrize("name", ["s0-4", "family-5"])
def test_the_reduction_is_scale_invariant(name, scale):
    t = s0_tensor(4) if name == "s0-4" else build_family_tensor(family_data(5))
    s = Tensor3(t.entries * scale)
    result = reduce_to_s0(s)
    assert result.success and result.residual <= 1e-12
    moved = apply(result.g, s)
    assert norm(Tensor3(moved.entries - s0_tensor(s.dims[0]).entries)) <= 1e-12


@pytest.mark.parametrize("name", ["s0-4", "family-5"])
def test_a_subnormal_peak_reduces_with_its_scale_in_g(name):
    t = s0_tensor(4) if name == "s0-4" else build_family_tensor(family_data(5))
    s = Tensor3(t.entries * 1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = reduce_to_s0(s)
    assert result.success and result.residual <= 1e-12
    assert all(np.isfinite(f).all() for f in result.g.factors)
    moved = apply(result.g, s)
    assert norm(Tensor3(moved.entries - s0_tensor(s.dims[0]).entries)) <= 1e-12


def test_an_ill_conditioned_reducing_element_is_a_reduction_error():
    # The a-entries stay above the vanish guard, but the torus factor that scales
    # them back to one has a condition number above 1/INVERTIBILITY_TOL.
    arr = np.array(build_family_tensor(family_data(5)).entries)
    arr[staircase_index(5)[1]] *= 1e-13
    with pytest.raises(ReductionError, match="ill-conditioned: factor [abc] is numerically singular"):
        reduce_to_s0(Tensor3(arr))


def scaled_staircase_tensor(key, n, w_scale, a_scale, w_row=None):
    """A seeded staircase tensor with its W-part, or one row of it, and its
    a-part scaled."""
    arr = np.array(staircase_tensor(np.random.default_rng(key), n).entries)
    w_index, a_index = staircase_index(n)
    w = arr[w_index]
    w[slice(None) if w_row is None else w_row] *= w_scale
    arr[w_index] = w
    arr[a_index] *= a_scale
    return Tensor3(arr)


def test_an_ill_conditioned_straightening_is_a_reduction_error():
    # The W-part passes the rank check, which is relative, but is so small
    # against the peak that every third factor that straightens it has a
    # condition number above 1/INVERTIBILITY_TOL.
    with pytest.raises(ReductionError, match="ill-conditioned: factor c is numerically singular"):
        reduce_to_s0(scaled_staircase_tensor([5, 3], 3, 1e-12, 1.0))


@pytest.mark.parametrize("a_scale", [1e-9, 1e-12])
def test_only_the_returned_element_is_checked_for_conditioning(a_scale):
    # The torus factor alone has a condition number above 1/INVERTIBILITY_TOL
    # here, but g, its product with the straightening, stays below 1e9.
    s = scaled_staircase_tensor([6, 3, 0], 3, 1e-9, a_scale, w_row=0)
    result = reduce_to_s0(s)
    assert result.success and result.residual <= 1e-12
    assert max(np.linalg.cond(f) for f in result.g.factors) < 1e9


def test_reduce_rejects_vanishing_a_entry():
    n = 3
    arr = np.array(build_family_tensor(family_data(n)).entries)
    arr[n - 2, 0, n - 1] = 0.0  # kill a_1
    with pytest.raises(ReductionError):
        reduce_to_s0(Tensor3(arr))


def test_reduce_rejects_dependent_rows():
    # W rows chosen so that deleting the last row leaves two equal rows.
    n = 3
    arr = np.zeros((n, n, n), dtype=np.complex128)
    w = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for i in range(1, n + 1):
        for k in range(1, n):
            arr[n - i, i - 1, k - 1] = w[i - 1, k - 1]
    for i in range(1, n):
        arr[n - i - 1, i - 1, n - 1] = 1.0
    with pytest.raises(ReductionError):
        reduce_to_s0(Tensor3(arr))
