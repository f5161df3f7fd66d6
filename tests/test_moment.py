from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import (
    norm,
    off_diagonal_mass,
    random_complex,
    random_free_support,
    random_tensor,
    random_unitary_triple,
    rng,
    tensor_on_support,
)
from nonfree.construct import build_family_tensor
from nonfree.family import family_data
from nonfree.flow import _evaluate, _lam_residual, ness_minimality
from nonfree.moment import (
    HermTriple,
    WeylPoint,
    _action,
    _adjoints,
    _flattenings,
    _frobenius_norm,
    _grams,
    _products,
    infinitesimal_action,
    moment_map,
    spec_point,
)
from nonfree.named import mu_diagonals, ness_form
from nonfree.tensor import Tensor3, _flattening, _norm, apply, from_coefficients


def assert_diagonals(m: HermTriple, expected, atol=1e-12):
    assert off_diagonal_mass(m) <= atol
    for comp, exp in zip(m.components, expected):
        np.testing.assert_allclose(np.diag(comp).real, [float(x) for x in exp], atol=atol)


def test_ness_representatives_have_unit_norm():
    # Sums of the stored squared coefficients telescope to one exactly.
    assert norm(ness_form("T2")) == pytest.approx(1.0, abs=1e-15)
    assert norm(ness_form("T5")) == pytest.approx(1.0, abs=1e-15)


def test_moment_map_of_s2_matches_stored_diagonals():
    assert_diagonals(moment_map(ness_form("T2")), mu_diagonals("T2"))


def test_moment_map_of_s5_matches_stored_diagonals():
    assert_diagonals(moment_map(ness_form("T5")), mu_diagonals("T5"))


def test_moment_map_of_uniform_diagonal_tensor():
    n = 3
    t = from_coefficients((n, n, n), {(i, i, i): 1 / math.sqrt(n) for i in range(1, n + 1)})
    assert_diagonals(moment_map(t), [(1 / n,) * n] * 3)


def reference_moment_arrays(arr):
    """The moment kernel spelled with np.moveaxis and np.linalg.norm."""
    sq = float(np.linalg.norm(arr)) ** 2
    parts = []
    for axis in range(3):
        f = np.moveaxis(arr, axis, 0).reshape(arr.shape[axis], -1)
        gram = (f @ f.conj().T) / sq
        parts.append((gram + gram.conj().T) / 2.0)
    return parts


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "dims",
    [
        (2, 3, 4), (4, 2, 3), (3, 4, 2), (1, 5, 2), (5, 1, 1),
        (1, 1, 1), (2, 2, 2), (3, 3, 3), (5, 5, 5), (32, 32, 32),
    ],
)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_moment_kernel_matches_moveaxis_reference_bit_for_bit(dims, kind):
    gen = rng(sum(dims) + len(kind))
    for _ in range(20):
        arr = random_complex(gen, dims) if kind == "complex" else gen.standard_normal(dims)
        assert _norm(arr) == float(np.linalg.norm(arr))
        f = _flattenings(arr)
        parts = _grams(f, _adjoints(f), _norm(arr) ** 2)
        expected = reference_moment_arrays(arr)
        assert all(same_bits(got, exp) for got, exp in zip(parts, expected))
        assert _frobenius_norm(parts) == float(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in expected)))
        t = Tensor3(arr)
        for axis in range(3):
            moved = np.moveaxis(t.entries, axis, 0)
            assert same_bits(_flattening(t.entries, axis), moved.reshape(dims[axis], -1))


def reference_action(h, arr):
    """X * T spelled as three einsums."""
    out = np.einsum("ia,ajk->ijk", h[0], arr)
    out += np.einsum("jb,ibk->ijk", h[1], arr)
    out += np.einsum("kc,ijc->ijk", h[2], arr)
    return out


# The operands of the norms in construct and certify: vectors and matrices,
# real and complex, contiguous and strided, up to 101 x 101, past the 10 000
# elements above which BLAS may split a dot product over threads.
@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (101,), (1, 1), (2, 3), (13, 8), (101, 101)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_norm_has_the_bits_of_linalg_norm_on_vectors_and_matrices(shape, kind):
    gen = rng(100 * len(shape) + shape[-1] + len(kind))
    for _ in range(25):
        arr = random_complex(gen, shape) if kind == "complex" else gen.standard_normal(shape)
        for view in (arr, arr.T, arr[::-1], arr[..., ::-1], arr[::2], arr[..., ::2], arr[::2, ...].T):
            assert _norm(view) == float(np.linalg.norm(view))


@pytest.mark.parametrize("dims", [(n, n, n) for n in range(1, 15)] + [(2, 3, 4)])
@pytest.mark.parametrize("kind", ["dense", "sparse", "tiny"])
def test_moment_action_kernel_matches_the_two_kernels_bit_for_bit(dims, kind):
    # mu, lambda and the residual of the flow's evaluation equal _grams and
    # _action in the stacked and in the per-axis layout. _flattenings stacks
    # cubic n <= 13 only; here every cubic tensor runs through both layouts,
    # and (2, 3, 4), which cannot stack, through the list.
    gen = rng(sum(dims) + len(kind))
    for _ in range(5):
        arr = random_complex(gen, dims)
        if kind == "sparse":
            arr[gen.random(dims) < 0.7] = 0.0
        elif kind == "tiny":
            arr *= 1e-150
        if not arr.any():
            continue
        nrm = _norm(arr)
        per_axis = [_flattening(arr, axis) for axis in range(3)]
        layouts = [per_axis, np.stack(per_axis)] if len(set(dims)) == 1 else [per_axis]
        mu_norm, mu, lam, residual, _ = _evaluate(arr)
        assert len(mu) == 3 and mu_norm == _frobenius_norm(mu)
        actions = []
        for f in layouts:
            grams = _grams(f, _adjoints(f), nrm**2)
            assert all(same_bits(got, exp) for got, exp in zip(grams, mu))
            action = _action(grams, f, dims)
            assert _lam_residual(arr, action, nrm) == (lam, residual)
            actions.append(action)
        # The stack's gathered sum has the bits of the per-axis transposes.
        assert all(same_bits(action, actions[0]) for action in actions)
        assert _norm(action - reference_action(mu, arr)) <= 1e-13 * _norm(action)


def test_moment_action_kernel_rejects_zero_tensor():
    # The flow's evaluation, like moment_map, has no moment map at zero.
    for dims in ((3, 3, 3), (2, 3, 4)):
        with pytest.raises(ValueError):
            _evaluate(np.zeros(dims, dtype=np.complex128))


def packed(m) -> np.ndarray:
    return m.ravel() if isinstance(m, np.ndarray) else np.concatenate([b.ravel() for b in m])


def packed_transpose_hessian_grams(fy, fxh):
    """2 (P_L + P_L^*) for P_L = F_L(y) F_L(x)^*, packed, as the Newton Hessian
    computed it through an index of the transposed entries."""
    dims = [m.shape[-1] for m in fxh]
    ends = np.cumsum([n * n for n in dims])
    c = packed(_products(fy, fxh))
    transposed = packed([np.arange(e - n * n, e).reshape(n, n).T for e, n in zip(ends, dims)])
    c += c[transposed].conj()
    c *= 2.0
    return c


@pytest.mark.parametrize(
    "dims", [(n, n, n) for n in range(1, 14)] + [(14, 14, 14), (16, 16, 16), (2, 3, 4)], ids=str
)
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_hessian_grams_match_the_packed_transpose_code_bit_for_bit(dims, kind):
    # The Newton Hessian takes 4 herm(F_L(X x) F_L(x)^*) from _grams with the
    # scale 0.25, in the layout _flattenings gives: a stack for cubic n <= 13,
    # else per axis. Dividing by 0.25 scales by 4 exactly, so it has the bits
    # of the symmetrization it replaced, up to the sign of a zero: numpy
    # divides by (0.25 + 0j) as a complex number, which can turn -0.0 into
    # 0.0. Adding 0.0 turns every -0.0 into 0.0 before the bits are compared.
    gen = rng(sum(dims) + len(kind))
    for _ in range(3):
        x = random_complex(gen, dims)
        if kind == "sparse":
            x[gen.random(dims) < 0.7] = 0.0
        if not x.any():
            continue
        x *= 1.0 / _norm(x)
        fx = _flattenings(x)
        assert isinstance(fx, np.ndarray) == (len(set(dims)) == 1 and dims[0] <= 13)
        fxh = _adjoints(fx)
        blocks = [random_complex(gen, (n, n)) for n in dims]
        fy = _flattenings(_action(np.stack(blocks) if isinstance(fx, np.ndarray) else blocks, fx, dims))
        got = packed(_grams(fy, fxh, 0.25))
        assert same_bits(got + 0.0, packed_transpose_hessian_grams(fy, fxh) + 0.0)


def test_moment_map_rejects_zero_tensor():
    with pytest.raises(ValueError):
        moment_map(Tensor3(np.zeros((2, 2, 2))))


def test_moment_map_components_are_psd_trace_one():
    gen = rng(10)
    for _ in range(25):
        t = random_tensor(gen, (3, 4, 2))
        m = moment_map(t)
        for comp in m.components:
            assert abs(np.trace(comp).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(comp).min() >= -1e-12


def test_moment_map_scale_invariance():
    gen = rng(11)
    for _ in range(10):
        t = random_tensor(gen, (3, 3, 3))
        z = gen.standard_normal() + 1j * gen.standard_normal()
        m1 = moment_map(t)
        m2 = moment_map(Tensor3(z * t.entries))
        for c1, c2 in zip(m1.components, m2.components):
            np.testing.assert_allclose(c1, c2, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-155, 1e-170])
def test_a_tensor_whose_squared_norm_underflows_keeps_its_moment_map(scale):
    # At 1e-155 |T|^2 is subnormal, at 1e-170 it underflows to zero.
    t = build_family_tensor(family_data(5))
    tiny = Tensor3(t.entries * scale)
    for c, c0 in zip(moment_map(tiny).components, moment_map(t).components):
        assert np.abs(c - c0).max() <= 1e-15
    assert abs(ness_minimality(tiny).lam - ness_minimality(t).lam) <= 1e-12


def test_moment_map_unitary_equivariance():
    gen = rng(12)
    for _ in range(25):
        t = random_tensor(gen, (3, 2, 4))
        k = random_unitary_triple(gen, t.dims)
        m = moment_map(t)
        mk = moment_map(apply(k, t))
        for u, before, after in zip(k.factors, m.components, mk.components):
            np.testing.assert_allclose(after, u @ before @ u.conj().T, atol=1e-10)


def test_free_support_forces_diagonal_moment_map():
    gen = rng(13)
    for _ in range(25):
        supp = random_free_support(gen, (4, 3, 4))
        if len(supp) == 0:
            continue
        t = tensor_on_support(gen, supp)
        assert off_diagonal_mass(moment_map(t)) <= 1e-12


def test_infinitesimal_action_identity_triples_gives_three_t():
    t = random_tensor(rng(14), (2, 3, 2))
    x = HermTriple(np.eye(2), np.eye(3), np.eye(2))
    out = infinitesimal_action(x, t)
    np.testing.assert_allclose(out.entries, 3.0 * t.entries, atol=1e-14)


def test_infinitesimal_action_rank_one_projector():
    t = from_coefficients((3, 3, 3), {(1, 1, 1): 1.0})
    x = HermTriple(np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3)), np.zeros((3, 3)))
    out = infinitesimal_action(x, t)
    np.testing.assert_allclose(out.entries, t.entries, atol=1e-14)


def test_infinitesimal_action_of_mu_fixes_s2():
    s2 = ness_form("T2")
    out = infinitesimal_action(moment_map(s2), s2)
    np.testing.assert_allclose(out.entries, (43 / 42) * s2.entries, atol=1e-10)


def test_infinitesimal_action_is_linear():
    gen = rng(15)
    t = random_tensor(gen, (3, 3, 3))
    a = np.diag(gen.standard_normal(3))
    b = np.diag(gen.standard_normal(3))
    x = HermTriple(a, np.zeros((3, 3)), np.zeros((3, 3)))
    y = HermTriple(b, np.zeros((3, 3)), np.zeros((3, 3)))
    xy = HermTriple(a + b, np.zeros((3, 3)), np.zeros((3, 3)))
    lhs = infinitesimal_action(xy, t).entries
    rhs = infinitesimal_action(x, t).entries + infinitesimal_action(y, t).entries
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_spec_point_of_sorted_diagonal_triple_is_its_diagonal():
    m = HermTriple(np.diag([0.5, 0.3, 0.2]), np.diag([0.6, 0.4]), np.diag([1.0]))
    p = spec_point(m)
    assert p.p1 == pytest.approx((0.5, 0.3, 0.2))
    assert p.p2 == pytest.approx((0.6, 0.4))
    assert p.p3 == pytest.approx((1.0,))


def test_spec_point_invariant_under_unitary_action():
    gen = rng(16)
    for _ in range(20):
        t = random_tensor(gen, (3, 3, 2))
        k = random_unitary_triple(gen, t.dims)
        p = spec_point(moment_map(t))
        pk = spec_point(moment_map(apply(k, t)))
        for before, after in zip(p.components, pk.components):
            np.testing.assert_allclose(after, before, atol=1e-10)


def test_spec_point_of_mu_s5():
    p = spec_point(moment_map(ness_form("T5")))
    for got, exp in zip(p.components, mu_diagonals("T5")):
        np.testing.assert_allclose(got, [float(x) for x in sorted(exp, reverse=True)], atol=1e-12)


def test_herm_triple_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermTriple(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(2))


def test_herm_triple_rejects_a_non_square_component():
    with pytest.raises(ValueError, match="^component h2 must be a square matrix$"):
        HermTriple(np.eye(2), np.ones((2, 3)), np.eye(2))


def test_infinitesimal_action_rejects_components_of_other_dims():
    message = "component dims (2, 2, 2) vs tensor dims (3, 3, 3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        infinitesimal_action(HermTriple(np.eye(2), np.eye(2), np.eye(2)), Tensor3(np.ones((3, 3, 3))))


def test_herm_triple_rejects_non_finite_components():
    with pytest.raises(ValueError):
        HermTriple(np.full((2, 2), np.nan), np.eye(2), np.eye(2))


def test_weyl_point_validation():
    with pytest.raises(ValueError):
        WeylPoint((0.2, 0.8), (1.0, 0.0), (1.0, 0.0))  # increasing
    with pytest.raises(ValueError):
        WeylPoint((0.9, 0.0), (1.0, 0.0), (1.0, 0.0))  # sum != 1
