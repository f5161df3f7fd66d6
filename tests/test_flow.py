from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from conftest import (
    random_free_support,
    random_tensor,
    random_unitary_triple,
    rng,
    tensor_on_support,
)
from nonfree.construct import build_family_tensor, s0_tensor
from nonfree.family import family_data
from nonfree.flow import MONOTONICITY_SLACK, flow, ness_minimality
from nonfree.moment import _action_array, _moment_arrays, moment_map
from nonfree.named import (
    NESS_LAMBDA_T2,
    NESS_LAMBDA_T5,
    ness_form_t2,
    ness_form_t5,
    tensor_t2,
)
from nonfree.tensor import Tensor3, _norm, apply, from_coefficients, norm, support


def test_ness_certificate_of_s2():
    cert = ness_minimality(ness_form_t2())
    assert cert.lam == pytest.approx(NESS_LAMBDA_T2, abs=1e-12)
    assert cert.residual <= 1e-10


def test_ness_certificate_of_s5():
    cert = ness_minimality(ness_form_t5())
    assert cert.lam == pytest.approx(NESS_LAMBDA_T5, abs=1e-12)
    assert cert.residual <= 1e-10


def test_ness_lambda_of_family_tensors():
    for n in range(3, 11):
        ft = build_family_tensor(family_data(n))
        cert = ness_minimality(ft.tensor)
        assert cert.lam == pytest.approx(float(ft.data.ness_lambda), abs=1e-12)
        assert cert.residual <= 1e-9


def test_ness_rejects_zero_tensor():
    with pytest.raises(ValueError):
        ness_minimality(Tensor3(np.zeros((2, 2, 2))))


def test_flow_fixed_at_s2():
    result = flow(ness_form_t2())
    assert result.steps == 0
    assert result.final_residual <= 1e-10
    assert result.converged


def test_flow_fixed_at_rank_one_tensor():
    result = flow(from_coefficients((3, 3, 3), {(1, 1, 1): 1.0}))
    assert result.steps == 0
    assert result.converged


def test_flow_from_t2_reaches_min_norm_point():
    result = flow(tensor_t2())
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
            assert support(result.limit).issubset(start)
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
    fixed = flow(ness_form_t2(), max_steps=5)
    assert fixed.steps == 0
    moving = flow(tensor_t2(), max_steps=5)
    assert moving.steps == 5
    assert not moving.converged  # flagged, not raised
    assert moving.final_residual > 1e-8


@pytest.mark.parametrize(
    "make, kwargs, halves",
    [
        (tensor_t2, {"max_steps": 50}, False),
        (lambda: s0_tensor(4), {}, False),
        (lambda: random_tensor(rng(0), (4, 4, 4)), {"step_size": 2.0}, True),
    ],
    ids=["t2-unconverged", "s0-4", "dense-4-halving"],
)
def test_flow_kernel_agrees_exactly_with_the_public_boundary(monkeypatch, make, kwargs, halves):
    # The flow steps raw arrays; its reported numbers must be the ones the
    # validated moment_map and ness_minimality give at the limit, bit for bit.
    module = sys.modules["nonfree.flow"]  # the package re-exports flow() under that name
    evaluate, evaluations = module._evaluate, []
    monkeypatch.setattr(module, "_evaluate", lambda x: evaluations.append(None) or evaluate(x))
    result = flow(make(), **kwargs)
    # One evaluation per accepted step after the start; each halving adds one.
    assert (len(evaluations) > result.steps + 1) == halves
    assert result.final_residual == ness_minimality(result.limit).residual
    assert result.mu_norm_trajectory[-1] == moment_map(result.limit).frobenius_norm()


def negated_velocity_rk4_step(x, dt):
    """RK4 on dx/dt = -mu(x) * x, written with the velocities added."""

    def f(y):
        return -_action_array(_moment_arrays(y, _norm(y)), y)

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * (k3))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("dt", [0.05, 1.0])
@pytest.mark.parametrize(
    "make",
    [
        tensor_t2,
        lambda: s0_tensor(4),
        lambda: random_tensor(rng(1), (4, 4, 4)),
        lambda: random_tensor(rng(2), (2, 3, 4)),
    ],
    ids=["t2", "s0-4", "dense-4", "dense-2x3x4"],
)
def test_rk4_step_equals_the_negated_velocity_step_bit_for_bit(make, dt):
    t = make()
    x = t.entries * (1.0 / norm(t))
    action = _action_array(_moment_arrays(x, _norm(x)), x)
    got = sys.modules["nonfree.flow"]._rk4_step(x, action, dt)
    expected = negated_velocity_rk4_step(x, dt)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("step", [1e20, 1e40])
def test_a_step_no_halving_can_save_stops_the_flow_where_it_was(step):
    # Down to step / 2**MAX_HALVINGS, every RK4 step from this tensor raises |mu|
    # (1e20) or leaves the float range (1e40). Neither may be accepted.
    t = random_tensor(rng(7), (2, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        result = flow(t, step_size=step, max_steps=5)
    assert not result.converged
    assert result.steps == 0 and len(result.mu_norm_trajectory) == 1
    assert result.limit.entries.tobytes() == (t.entries * (1.0 / norm(t))).tobytes()
    assert np.diff(result.mu_norm_trajectory).max(initial=0.0) <= MONOTONICITY_SLACK


def test_flow_norm_stays_one():
    result = flow(tensor_t2(), max_steps=50)
    assert norm(result.limit) == pytest.approx(1.0, abs=1e-12)


def test_flow_rejects_zero_tensor():
    with pytest.raises(ValueError):
        flow(Tensor3(np.zeros((2, 2, 2))))
