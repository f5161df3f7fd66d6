from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    FLOW_MODULE,
    issubset,
    norm,
    packed_newton_step,
    random_complex,
    random_free_support,
    random_tensor,
    random_unitary_triple,
    rng,
    tensor_on_support,
)
from nonfree.construct import build_family_tensor, s0_tensor
from nonfree.family import family_data
from nonfree.flow import MIN_STEP, MONOTONICITY_SLACK, flow, ness_minimality
from nonfree.moment import _action, _adjoints, _frobenius_norm, _grams, moment_map
from nonfree.named import named_tensor, ness_form
from nonfree.tensor import GroupTriple, Tensor3, _flattening, apply, from_coefficients, support


def test_ness_certificate_of_s2():
    cert = ness_minimality(ness_form("T2"))
    assert cert.lam == pytest.approx(43 / 42, abs=1e-12)
    assert cert.residual <= 1e-10


def test_ness_certificate_of_s5():
    cert = ness_minimality(ness_form("T5"))
    assert cert.lam == pytest.approx(16 / 15, abs=1e-12)
    assert cert.residual <= 1e-10


def test_ness_lambda_of_family_tensors():
    for n in range(3, 11):
        data = family_data(n)
        cert = ness_minimality(build_family_tensor(data))
        assert cert.lam == pytest.approx(float(data.ness_lambda), abs=1e-12)
        assert cert.residual <= 1e-9


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4)])
def test_lambda_is_the_squared_norm_of_mu(dims):
    gen = rng(31)
    for _ in range(20):
        t = random_tensor(gen, dims)
        assert ness_minimality(t).lam == pytest.approx(_frobenius_norm(moment_map(t).components) ** 2, abs=1e-12)


def test_ness_rejects_zero_tensor():
    with pytest.raises(ValueError):
        ness_minimality(Tensor3(np.zeros((2, 2, 2))))


def test_flow_fixed_at_s2():
    result = flow(ness_form("T2"))
    assert result.steps == 0
    assert result.final_residual <= 1e-10
    assert result.converged


def test_flow_fixed_at_rank_one_tensor():
    result = flow(from_coefficients((3, 3, 3), {(1, 1, 1): 1.0}))
    assert result.steps == 0
    assert result.converged


def test_flow_from_t2_reaches_min_norm_point():
    result = flow(named_tensor("T2"))
    assert result.converged
    assert result.mu_norm_trajectory[-1] ** 2 == pytest.approx(43 / 42, abs=1e-6)


def test_flow_trajectory_monotone_up_to_slack():
    gen = rng(40)
    for seed in range(3):
        t = tensor_on_support(gen, random_free_support(gen, (3, 3, 3)))
        if norm(t) == 0:
            continue
        result = flow(t, max_steps=2000)
        diffs = np.diff(result.mu_norm_trajectory)
        assert diffs.max(initial=0.0) <= 1e-8


def test_flow_preserves_free_support():
    gen = rng(41)
    for _ in range(3):
        supp = random_free_support(gen, (4, 4, 4))
        if len(supp) < 2:
            continue
        t = tensor_on_support(gen, supp)
        start = support(t, 0.0)
        # Chunks of 100 steps, up to 3000 in all; the support is checked after each.
        x, steps = t, 0
        while steps < 3000:
            result = flow(x, max_steps=100)
            assert issubset(support(result.limit), start)
            x, steps = result.limit, steps + result.steps
            if result.converged:
                break


def test_flow_unitary_covariance_of_trajectories():
    gen = rng(42)
    t = tensor_on_support(gen, random_free_support(gen, (3, 3, 3), max_size=6))
    k = random_unitary_triple(gen, t.dims)
    r1 = flow(t, max_steps=400)
    r2 = flow(apply(k, t), max_steps=400)
    shared = min(len(r1.mu_norm_trajectory), len(r2.mu_norm_trajectory))
    np.testing.assert_allclose(
        r1.mu_norm_trajectory[:shared], r2.mu_norm_trajectory[:shared], atol=1e-8
    )


def test_fixed_point_iff_no_projective_progress():
    # At a Ness point the flow does not move; away from one it must.
    fixed = flow(ness_form("T2"), max_steps=5)
    assert fixed.steps == 0
    moving = flow(named_tensor("T2"), max_steps=5)
    assert moving.steps == 5
    assert not moving.converged  # flagged, not raised
    assert moving.final_residual > 1e-8


@pytest.mark.parametrize(
    "make, kwargs, halves",
    [
        (lambda: named_tensor("T2"), {"max_steps": 3}, False),
        (lambda: s0_tensor(4), {}, False),
        (lambda: random_tensor(rng(0), (4, 4, 4)), {"step_size": 100.0}, True),
        (lambda: random_tensor(rng(3), (1, 1, 1)), {}, False),
        (lambda: random_tensor(rng(4), (1, 2, 3)), {}, True),
        (lambda: random_tensor(rng(5), (2, 3, 4)), {}, False),
        # Above STACKED_GRAM_MAX_BYTES: the per-axis flattenings.
        (lambda: random_tensor(rng(6), (14, 14, 14)), {"max_steps": 2}, False),
    ],
    ids=[
        "t2-unconverged", "s0-4", "dense-4-halving", "dense-1x1x1", "dense-1x2x3", "dense-2x3x4",
        "dense-14-unconverged",
    ],
)
def test_flow_kernel_agrees_exactly_with_the_public_boundary(monkeypatch, make, kwargs, halves):
    # The flow steps raw arrays; its reported numbers, lambda included, must be
    # the ones the validated moment_map and ness_minimality give at the limit,
    # bit for bit.
    module = sys.modules["nonfree.flow"]  # the package re-exports flow() under that name
    evaluate, evaluations = module._evaluate, []
    monkeypatch.setattr(module, "_evaluate", lambda x: evaluations.append(None) or evaluate(x))
    result = flow(make(), **kwargs)
    # One evaluation per accepted step after the start; each rejected finite candidate adds one.
    assert (len(evaluations) > result.steps + 1) == halves
    ness = ness_minimality(result.limit)
    assert (result.lam, result.final_residual) == (ness.lam, ness.residual)
    assert result.mu_norm_trajectory[-1] == _frobenius_norm(moment_map(result.limit).components)


@pytest.mark.parametrize("dt", [0.05, 1.0, -1.0])
@pytest.mark.parametrize(
    "make",
    [
        lambda: named_tensor("T2"),
        lambda: s0_tensor(4),
        lambda: random_tensor(rng(1), (4, 4, 4)),
        lambda: random_tensor(rng(2), (2, 3, 4)),
    ],
    ids=["t2", "s0-4", "dense-4", "dense-2x3x4"],
)
def test_geodesic_step_applies_the_exponentials_of_mu(make, dt):
    # The step applies the group element (e^{X_1}, e^{X_2}, e^{X_3}) that
    # tensor.apply applies, here for X = -dt mu.
    t = make()
    x = t.entries * (1.0 / norm(t))
    generator = [-dt * m for m in moment_map(Tensor3(x)).components]
    module = sys.modules["nonfree.flow"]
    got = module._geodesic_step(x, module._spectra(generator))
    g = GroupTriple(*(scipy.linalg.expm(m) for m in generator))
    np.testing.assert_allclose(got, apply(g, Tensor3(x)).entries, rtol=0, atol=1e-12)


def seeded_dense_tensor(dims) -> Tensor3:
    gen = np.random.default_rng([79, 0, *dims])
    return Tensor3(gen.standard_normal(dims) + 1j * gen.standard_normal(dims))


@pytest.mark.parametrize("step", [0.05, 1.0, 100.0])
@pytest.mark.parametrize(
    "make",
    [lambda: named_tensor("T2"), lambda: named_tensor("T5"),
     *(lambda n=n: s0_tensor(n) for n in (3, 4, 5)),
     *(lambda n=n: random_tensor(rng(n), (n, n, n)) for n in (4, 5, 6)),
     *(lambda d=d: seeded_dense_tensor(d) for d in ((2, 2, 8), (2, 3, 9), (3, 3, 12)))],
    ids=["t2", "t5", "s0-3", "s0-4", "s0-5", "dense-4", "dense-5", "dense-6",
         "dense-2x2x8", "dense-2x3x9", "dense-3x3x12"],
)
def test_newton_steps_converge_within_twelve_accepted_steps(make, step):
    # The geodesic flow these steps replace needed 57 or more on each cubic
    # input. The lopsided shapes need the CG preconditioner, 2 (w_a + w_b) +
    # delta in the eigenbasis of each mu_L: with plain CG, (2, 3, 9) at step
    # 1.0 stopped unconverged after 300 steps, at a residual of 3.5e-8.
    result = flow(make(), step_size=step, max_steps=12)
    assert result.converged


@pytest.mark.parametrize("n", range(1, 14))
def test_the_stacked_hessian_product_has_the_bits_of_the_packed_one(n):
    # Cubes up to 13 take the stacked layout, where a product runs on (3, n, n)
    # vectors and stacked flattenings; the reference packs the per-axis
    # flattenings' products, _action's transposes and Grams.
    cases = [random_tensor(rng(n), (n, n, n))]
    cases += [s0_tensor(n)] if n >= 2 else []
    cases += [named_tensor("T2")] if n == 3 else []
    gen = rng(40 + n)
    for t in cases:
        x = t.entries * (1.0 / norm(t))
        _, mu, _, _, flattenings = FLOW_MODULE._evaluate(x)
        assert isinstance(mu, np.ndarray)
        g, hessian, preconditioner, _ = FLOW_MODULE._newton_system(x, mu, flattenings)
        fx = [_flattening(x, axis) for axis in range(3)]
        directions = [mu, preconditioner(2.0)(-g)]
        directions += [a + a.conj().swapaxes(-1, -2) for a in random_complex(gen, (2, 3, n, n))]
        for p in directions:
            y = _action(list(p), fx, x.shape)
            fy = [_flattening(y, axis) for axis in range(3)]
            want = np.concatenate([b.ravel() for b in _grams(fy, _adjoints(fx), 0.25)])
            want -= (4.0 * np.vdot(mu, p).real) * mu.ravel()
            assert hessian(p).tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", [(14, 14, 14), (16, 16, 16), (20, 20, 20), (2, 5, 7)])
def test_newton_vectors_of_a_cube_stay_stacked_past_the_stacked_moment_kernels(dims):
    # Past 13^3 the moment kernels run axis by axis and give mu as a list, but
    # _spectra stacks it, so a cube's Newton-CG vectors are (3, n, n) stacks,
    # the faster layout there; the packed oracle cannot see this, as both
    # layouts give the same bits. A non-cubic shape packs its vectors.
    t = random_tensor(rng(sum(dims)), dims)
    x = t.entries * (1.0 / norm(t))
    _, mu, _, _, flattenings = FLOW_MODULE._evaluate(x)
    g = FLOW_MODULE._newton_system(x, mu, flattenings)[0]
    assert isinstance(mu, list)
    n = dims[0]
    assert g.shape == ((3, n, n) if dims == (n, n, n) else (sum(m * m for m in dims),))


ORACLE_CASES = {
    "t2": lambda: named_tensor("T2"),
    "s0-4": lambda: s0_tensor(4),
    "s0-12": lambda: s0_tensor(12),
    "dense-5": lambda: seeded_dense_tensor((5, 5, 5)),
    "dense-13": lambda: seeded_dense_tensor((13, 13, 13)),
    "dense-14": lambda: seeded_dense_tensor((14, 14, 14)),
    "dense-2x5x7": lambda: seeded_dense_tensor((2, 5, 7)),
}


@pytest.mark.parametrize("step", [0.05, 1.0, 100.0])
@pytest.mark.parametrize("make", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_the_newton_step_flows_as_the_packed_oracle_does(make, step, monkeypatch):
    # Both kernel layouts of a cube (13 is the largest stacked, 14 the first per
    # axis) and a non-cubic shape, bit for bit.
    t = make()
    got = flow(t, step_size=step)
    monkeypatch.setattr(FLOW_MODULE, "_newton_step", packed_newton_step)
    want = flow(t, step_size=step)
    assert got.converged and want.converged and got.steps == want.steps
    assert got.limit.entries.tobytes() == want.limit.entries.tobytes()
    assert np.array(got.mu_norm_trajectory).tobytes() == np.array(want.mu_norm_trajectory).tobytes()
    assert np.array([got.lam, got.final_residual]).tobytes() == np.array([want.lam, want.final_residual]).tobytes()


@pytest.mark.parametrize(
    "make",
    [lambda: named_tensor("T2"), lambda: named_tensor("T5"), lambda: s0_tensor(4)],
    ids=["t2", "t5", "s0-4"],
)
def test_newton_steps_reach_a_residual_of_1e_14(make):
    # The error of a Newton step grows with dt; without the MAX_STEP cap on dt
    # T2 and S0(4) stalled near 1e-13 until max_steps ran out.
    result = flow(make(), step_size=1.0, residual_tol=1e-14, max_steps=400)
    assert result.converged


FLAT_ENDS = [((2, 5, 7), seed) for seed in range(5)] + [((2, 3, 9), seed) for seed in (0, 2, 4)]


@pytest.mark.parametrize(
    "dims, seed", FLAT_ENDS, ids=["x".join(map(str, dims)) + f"-{seed}" for dims, seed in FLAT_ENDS]
)
def test_a_generic_non_cubic_flow_converges_where_mu_is_flat(dims, seed):
    # Near the limit a step lowers |mu| by about r^2, below its rounding; when
    # steps were accepted on |mu| alone, these stalled at residuals of 4e-8 to
    # 7e-7 after 300 steps. The residual still resolves progress, and |mu|
    # never rises more than the slack above the least value accepted before.
    gen = np.random.default_rng([11, seed, *dims])
    t = Tensor3(gen.standard_normal(dims) + 1j * gen.standard_normal(dims))
    result = flow(t, step_size=1.0, max_steps=300)
    assert result.converged and result.steps <= 40
    trajectory = np.array(result.mu_norm_trajectory)
    assert (trajectory[1:] - np.minimum.accumulate(trajectory)[:-1]).max() <= MONOTONICITY_SLACK


@pytest.mark.parametrize(
    "make", [lambda: named_tensor("T2"), lambda: s0_tensor(4)], ids=["t2", "s0-4"]
)
def test_a_flow_past_the_float_floor_stops_once_no_step_improves(make):
    # At residual_tol 0 no residual converges. Once neither |mu| nor the
    # residual can fall, the flow stops, unconverged; it ran all 500 steps
    # when a step was accepted on |mu| alone, at up to 0.8 s for S0(4).
    result = flow(make(), residual_tol=0.0, max_steps=500)
    assert not result.converged and result.steps < 100
    assert result.final_residual <= 1e-15


def test_flow_from_t5_at_step_one_converges():
    # Without the drift test, geodesic steps from 1.0 stall here at residual 5e-3.
    result = flow(named_tensor("T5"), step_size=1.0)
    assert result.converged
    assert result.mu_norm_trajectory[-1] ** 2 == pytest.approx(16 / 15, abs=1e-6)


@pytest.mark.parametrize("n, step", [(3, 2.0), (4, 100.0), (12, 1.0)])
def test_flow_from_a_large_first_step_reaches_the_closed_form_lambda(n, step):
    # Every iterate is a group element applied to S0(n), so even from a step of
    # 100 the limit is the minimum of |mu| over the orbit, not a nearby point.
    # lambda = 3/n + c^2/|h|^2 needs the exact zeros that X keeps in the basis
    # of x: solved in the eigenbasis of mu, S0(12) went to |mu| = 0.5.
    result = flow(s0_tensor(n), step_size=step)
    assert result.converged
    assert result.lam == pytest.approx(float(family_data(n).ness_lambda), abs=1e-9)
    assert result.mu_norm_trajectory[-1] ** 2 == pytest.approx(result.lam, abs=1e-6)


@pytest.mark.parametrize("step", [1e20, 1e40])
def test_a_step_no_halving_can_save_stops_the_flow_where_it_was(step):
    # Down to step / 2**MAX_HALVINGS, every Newton step from this tensor
    # raises |mu|. None may be accepted.
    t = random_tensor(rng(7), (2, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        result = flow(t, step_size=step, max_steps=5)
    assert not result.converged
    assert result.steps == 0 and len(result.mu_norm_trajectory) == 1
    assert result.limit.entries.tobytes() == (t.entries * (1.0 / norm(t))).tobytes()
    assert np.diff(result.mu_norm_trajectory).max(initial=0.0) <= MONOTONICITY_SLACK


def dense_cube(n: int) -> Tensor3:
    gen = np.random.default_rng([79, 0, n, n, n])
    return Tensor3(random_complex(gen, (n, n, n)))


@pytest.mark.parametrize(
    "make, step, lam",
    [(lambda: dense_cube(5), 1e-16, 3 / 5), (lambda: dense_cube(5), 1e-320, 3 / 5),
     (lambda: s0_tensor(4), 1e-20, float(family_data(4).ness_lambda)),
     (lambda: named_tensor("T2"), 1e-20, 43 / 42)],
    ids=["dense-5-1e-16", "dense-5-subnormal", "S0(4)-1e-20", "T2-1e-20"],
)
def test_a_tiny_first_step_starts_from_the_least_step(make, step, lam):
    # Below MIN_STEP, e^X x rounds to x and every halving makes the next try
    # smaller still: these flows stopped unconverged at step 0 (T2 after 3
    # steps; from 1e-320 the damping 2 / dt was inf). They start from MIN_STEP now.
    assert step < MIN_STEP
    result = flow(make(), step_size=step)
    assert result.converged
    assert result.lam == pytest.approx(lam, abs=1e-9)
    fixed = flow(make(), step_size=MIN_STEP)
    assert result.limit.entries.tobytes() == fixed.limit.entries.tobytes()
    assert result.mu_norm_trajectory == fixed.mu_norm_trajectory


def test_a_non_finite_newton_step_is_rejected_without_a_warning(monkeypatch):
    # From a first step of 1e300 the damping 2 / dt is about 2e-300, and the
    # CG solve of every try, down to 1e300 / 2**MAX_HALVINGS, gives a
    # non-finite X; _newton_step returns None, and the flow stops where it started.
    gen = np.random.default_rng(12)
    t = Tensor3(random_complex(gen, (2, 2, 5)))
    tries = []
    newton_step = FLOW_MODULE._newton_step

    def counted(*args):
        step = newton_step(*args)

        def counted_step(delta, tol):
            tries.append(step(delta, tol))
            return tries[-1]

        return counted_step

    monkeypatch.setattr(FLOW_MODULE, "_newton_step", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = flow(t, step_size=1e300, max_steps=20)
    assert len(tries) == FLOW_MODULE.MAX_HALVINGS + 1 and all(y is None for y in tries)
    assert not result.converged and result.steps == 0
    assert result.limit.entries.tobytes() == (t.entries * (1.0 / norm(t))).tobytes()


def test_flow_norm_stays_one():
    result = flow(named_tensor("T2"), max_steps=50)
    assert norm(result.limit) == pytest.approx(1.0, abs=1e-12)


def test_flow_rejects_zero_tensor():
    with pytest.raises(ValueError):
        flow(Tensor3(np.zeros((2, 2, 2))))


@pytest.mark.parametrize("kwargs", [{"residual_tol": math.nan}, {"max_steps": math.nan}],
                         ids=["residual_tol", "max_steps"])
def test_flow_refuses_a_nan_bound(kwargs):
    message = "flow needs step_size > 0, residual_tol >= 0 and max_steps >= 0"
    with pytest.raises(ValueError, match=f"^{message}$"):
        flow(ness_form("T2"), **kwargs)


@pytest.mark.parametrize(
    "make",
    [lambda: ness_form("T2"), lambda: Tensor3(1e-170 * ness_form("T2").entries),
     *(lambda n=n: build_family_tensor(family_data(n)) for n in range(3, 18))],
    ids=["S2", "S2-1e-170", *(f"family-{n}" for n in range(3, 18))],
)
def test_the_ness_test_carries_the_moment_map_bit_for_bit(make):
    # Family sizes up to 13 take the stacked layout of the moment kernels, 14 up the per-axis one.
    t = make()
    mu = ness_minimality(t).mu
    assert all(a.tobytes() == b.tobytes() for a, b in zip(mu.components, moment_map(t).components))
