from __future__ import annotations

from fractions import Fraction as F
from math import sqrt

import numpy as np
import pytest

from conftest import flattening_ranks, issubset, norm, off_diagonal_mass, random_unitary, rng
from nonfree.construct import _staircase, build_W, build_family_tensor, gram_defects, s0_tensor
from nonfree.family import family_data, gamma_support, staircase_index
from nonfree.moment import moment_map
from nonfree.named import mu_diagonals
from nonfree.tensor import support

NS = range(3, 13)


def w_roots(data) -> np.ndarray:
    """w = sqrt(w_sq), the kernel vector of WW*."""
    return np.array([sqrt(float(x)) for x in data.w_sq])


def test_gram_equations_hold():
    for n in NS:
        data = family_data(n)
        left, right = gram_defects(build_family_tensor(data), data)
        assert left <= 1e-10 and right <= 1e-10


def test_wwstar_spectrum_is_flat_with_one_zero():
    for n in NS:
        data = family_data(n)
        W = build_W(data)
        lam = float(data.lambda_W)
        eigs = np.linalg.eigvalsh(W @ W.conj().T)
        assert abs(eigs[0]) <= 1e-12
        np.testing.assert_allclose(eigs[1:], lam, atol=1e-12)


def test_wwstar_kernel_is_spanned_by_w():
    for n in (3, 5, 9):
        data = family_data(n)
        W = build_W(data)
        gram = W @ W.conj().T
        assert np.linalg.norm(gram @ w_roots(data)) <= 1e-12


def test_wwstar_diagonal_matches_family_d_for_n3():
    W = build_W(family_data(3))
    gram = (W @ W.conj().T).real
    np.testing.assert_allclose(np.diag(gram), [11 / 42, 4 / 21, 11 / 42], atol=1e-14)


def test_every_offdiagonal_of_wwstar_is_bounded_below():
    for n in NS:
        data = family_data(n)
        W = build_W(data)
        gram = W @ W.conj().T
        floor = float(min(w_roots(data))) ** 2 - 1e-10
        off = np.abs(gram[~np.eye(n, dtype=bool)])
        assert off.min() >= floor > 0


def test_every_column_of_w_is_nonzero():
    for n in NS:
        W = build_W(family_data(n))
        assert np.linalg.norm(W, axis=0).min() > 1e-8


def test_row_deletion_independence_exact():
    # |v^i|^2 = d_i differs from lambda exactly in the rationals.
    for n in NS:
        data = family_data(n)
        d = [q2i - bi for q2i, bi in zip(data.q[1], data.b)]
        for i in range(n):
            assert sum(data.w_sq, F(0)) - data.w_sq[i] == d[i]
            assert d[i] != data.lambda_W
    # And numerically: dropping any row keeps full rank.
    for n in (3, 6, 10):
        W = build_W(family_data(n))
        for drop in range(n):
            sub = np.delete(W, drop, axis=0)
            sv = np.linalg.svd(sub, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]


def satisfies_gram_equations(data, W) -> bool:
    """gram_defects of the family tensor of data with its W-part replaced by W."""
    _, a_index = staircase_index(data.n)
    a = build_family_tensor(data).entries[a_index]
    left, right = gram_defects(_staircase(W, a), data)
    return left <= 1e-10 and right <= 1e-10


def test_membership_accepts_construction_and_right_unitary_closure():
    gen = rng(30)
    for n in (3, 5, 8):
        data = family_data(n)
        W = build_W(data)
        assert satisfies_gram_equations(data, W)
        for _ in range(5):
            u = random_unitary(gen, n - 1)
            assert satisfies_gram_equations(data, W @ u.T)


def test_membership_rejects_a_perturbed_w_part():
    gen = rng(31)
    for n in range(3, 9):
        data = family_data(n)
        W = build_W(data)
        E = 1e-6 * (gen.standard_normal(W.shape) + 1j * gen.standard_normal(W.shape))
        assert satisfies_gram_equations(data, W)
        assert not satisfies_gram_equations(data, W + E)


def test_membership_rejects_zero_matrix():
    assert not satisfies_gram_equations(family_data(4), np.zeros((4, 3)))


def test_build_w_rejects_small_n():
    with pytest.raises(ValueError):
        build_W(family_data(2))


def test_s0_tensor_rejects_small_n():
    with pytest.raises(ValueError, match="^s0_tensor requires n >= 2$"):
        s0_tensor(1)


def test_family_tensor_has_unit_norm_and_staircase_support():
    for n in NS:
        t = build_family_tensor(family_data(n))
        assert abs(norm(t) - 1.0) <= 1e-12
        assert issubset(support(t, 0.0), gamma_support(n))


def test_family_tensor_entry_placement():
    # Bit for bit: the W-part is build_W(data) and the a-part sqrt(b_i), i < n.
    for n in NS:
        data = family_data(n)
        t = build_family_tensor(data)
        W = build_W(data)
        for i in range(1, n + 1):
            for k in range(1, n):
                assert t.entries[n - i, i - 1, k - 1] == W[i - 1, k - 1]
        for i in range(1, n):
            assert t.entries[n - i - 1, i - 1, n - 1] == sqrt(float(data.b[i - 1]))


def test_family_tensor_moment_map_equals_q():
    for n in NS:
        data = family_data(n)
        mu = moment_map(build_family_tensor(data))
        assert off_diagonal_mass(mu) <= 1e-10
        for comp, qi in zip(mu.components, data.q):
            np.testing.assert_allclose(
                np.diag(comp).real, [float(x) for x in qi], atol=1e-10
            )


def test_family_tensor_n3_cross_checks_named_values():
    mu = moment_map(build_family_tensor(family_data(3)))
    for comp, expected in zip(mu.components, mu_diagonals("T2")):
        np.testing.assert_allclose(np.diag(comp).real, [float(x) for x in expected], atol=1e-12)


def test_family_tensor_is_concise():
    for n in NS:
        t = build_family_tensor(family_data(n))
        assert flattening_ranks(t) == (n, n, n)


def test_s0_n3_matches_displayed_slices():
    t = s0_tensor(3)
    expected = {(1, 3, 1), (1, 3, 2), (1, 2, 3), (2, 2, 2), (2, 1, 3), (3, 1, 1)}
    assert set(support(t, 0.0)) == expected
    assert all(t.entries[i - 1, j - 1, k - 1] == 1.0 for (i, j, k) in expected)


def test_s0_n4_matches_displayed_slices():
    t = s0_tensor(4)
    expected = {
        (1, 4, 1), (1, 4, 2), (1, 4, 3),
        (2, 3, 3), (3, 2, 2), (4, 1, 1),
        (1, 3, 4), (2, 2, 4), (3, 1, 4),
    }
    assert set(support(t, 0.0)) == expected
    assert all(t.entries[i - 1, j - 1, k - 1] == 1.0 for (i, j, k) in expected)


def test_s0_support_size_and_containment():
    for n in range(2, 13):
        t = s0_tensor(n)
        supp = support(t, 0.0)
        assert len(supp) == 3 * (n - 1)
        assert issubset(supp, gamma_support(n))


def test_s0_n2_is_w_state():
    assert set(support(s0_tensor(2), 0.0)) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
