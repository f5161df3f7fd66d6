from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest

from conftest import flattening_ranks, issubset, norm, off_diagonal_mass, random_unitary, rng
from nonfree.construct import WMatrix, build_W, build_family_tensor, s0_tensor
from nonfree.family import family_data, gamma_support
from nonfree.moment import moment_map
from nonfree.named import MU_S2_DIAGONALS
from nonfree.tensor import support

NS = range(3, 13)


def test_gram_equations_hold():
    for n in NS:
        left, right = build_W(family_data(n)).gram_defects()
        assert left <= 1e-10 and right <= 1e-10


def test_wwstar_spectrum_is_flat_with_one_zero():
    for n in NS:
        wm = build_W(family_data(n))
        lam = float(wm.lambda_W)
        eigs = np.linalg.eigvalsh(wm.entries @ wm.entries.conj().T)
        assert abs(eigs[0]) <= 1e-12
        np.testing.assert_allclose(eigs[1:], lam, atol=1e-12)


def test_wwstar_kernel_is_spanned_by_w():
    for n in (3, 5, 9):
        wm = build_W(family_data(n))
        gram = wm.entries @ wm.entries.conj().T
        assert np.linalg.norm(gram @ wm.w) <= 1e-12


def test_wwstar_diagonal_matches_family_d_for_n3():
    wm = build_W(family_data(3))
    gram = (wm.entries @ wm.entries.conj().T).real
    np.testing.assert_allclose(np.diag(gram), [11 / 42, 4 / 21, 11 / 42], atol=1e-14)


def test_every_offdiagonal_of_wwstar_is_bounded_below():
    for n in NS:
        wm = build_W(family_data(n))
        gram = wm.entries @ wm.entries.conj().T
        floor = float(min(wm.w)) ** 2 - 1e-10
        off = np.abs(gram[~np.eye(n, dtype=bool)])
        assert off.min() >= floor > 0


def test_every_column_of_w_is_nonzero():
    for n in NS:
        wm = build_W(family_data(n))
        assert np.linalg.norm(wm.entries, axis=0).min() > 1e-8


def test_row_deletion_independence_exact():
    # |v^i|^2 = d_i differs from lambda exactly in the rationals.
    for n in NS:
        data = family_data(n)
        for i in range(n):
            assert sum(data.w_sq, F(0)) - data.w_sq[i] == data.d[i]
            assert data.d[i] != data.lambda_W
    # And numerically: dropping any row keeps full rank.
    for n in (3, 6, 10):
        wm = build_W(family_data(n))
        for drop in range(n):
            sub = np.delete(wm.entries, drop, axis=0)
            sv = np.linalg.svd(sub, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]


def satisfies_gram_equations(wm: WMatrix, entries) -> bool:
    left, right = WMatrix(entries, wm.lambda_W, wm.w).gram_defects()
    return left <= 1e-10 and right <= 1e-10


def test_membership_accepts_construction_and_right_unitary_closure():
    gen = rng(30)
    for n in (3, 5, 8):
        wm = build_W(family_data(n))
        assert satisfies_gram_equations(wm, wm.entries)
        for _ in range(5):
            u = random_unitary(gen, n - 1)
            assert satisfies_gram_equations(wm, wm.entries @ u.T)


def test_membership_rejects_zero_matrix():
    assert not satisfies_gram_equations(build_W(family_data(4)), np.zeros((4, 3)))


def test_build_w_rejects_small_n():
    with pytest.raises(ValueError):
        build_W(family_data(2))


def test_family_tensor_has_unit_norm_and_staircase_support():
    for n in NS:
        ft = build_family_tensor(family_data(n))
        assert abs(norm(ft.tensor) - 1.0) <= 1e-12
        assert issubset(support(ft.tensor, 0.0), gamma_support(n))


def test_family_tensor_entry_placement():
    ft = build_family_tensor(family_data(4))
    n = 4
    for i in range(1, n + 1):
        for k in range(1, n):
            assert ft.tensor[n + 1 - i, i, k] == ft.W.entries[i - 1, k - 1]
    for i in range(1, n):
        assert ft.tensor[n - i, i, n] == ft.a[i - 1]


def test_family_tensor_moment_map_equals_q():
    for n in NS:
        ft = build_family_tensor(family_data(n))
        mu = moment_map(ft.tensor)
        assert off_diagonal_mass(mu) <= 1e-10
        for comp, qi in zip(mu.components, ft.data.q):
            np.testing.assert_allclose(
                np.diag(comp).real, [float(x) for x in qi], atol=1e-10
            )


def test_family_tensor_n3_cross_checks_named_values():
    mu = moment_map(build_family_tensor(family_data(3)).tensor)
    for comp, expected in zip(mu.components, MU_S2_DIAGONALS):
        np.testing.assert_allclose(np.diag(comp).real, [float(x) for x in expected], atol=1e-12)


def test_family_tensor_is_concise():
    for n in NS:
        t = build_family_tensor(family_data(n)).tensor
        assert flattening_ranks(t) == (n, n, n)


def test_s0_n3_matches_displayed_slices():
    t = s0_tensor(3)
    expected = {(1, 3, 1), (1, 3, 2), (1, 2, 3), (2, 2, 2), (2, 1, 3), (3, 1, 1)}
    assert set(support(t, 0.0)) == expected
    assert all(t[i, j, k] == 1.0 for (i, j, k) in expected)


def test_s0_n4_matches_displayed_slices():
    t = s0_tensor(4)
    expected = {
        (1, 4, 1), (1, 4, 2), (1, 4, 3),
        (2, 3, 3), (3, 2, 2), (4, 1, 1),
        (1, 3, 4), (2, 2, 4), (3, 1, 4),
    }
    assert set(support(t, 0.0)) == expected
    assert all(t[i, j, k] == 1.0 for (i, j, k) in expected)


def test_s0_support_size_and_containment():
    for n in range(2, 13):
        t = s0_tensor(n)
        supp = support(t, 0.0)
        assert len(supp) == 3 * (n - 1)
        assert issubset(supp, gamma_support(n))


def test_s0_n2_is_w_state():
    assert set(support(s0_tensor(2), 0.0)) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
