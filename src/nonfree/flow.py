"""Kempf-Ness gradient flow dT/dt = -mu(T) * T and the Ness fixed-point test.

The flow is integrated projectively: the tensor is renormalized to unit norm
after every accepted step, and convergence is declared on the projective
gradient residual |mu(T) * T - lambda T|, since only the projective limit is
guaranteed to exist.

The integrator steps a plain entries array and builds a `Tensor3` only for the
limit. One evaluation per accepted point serves the monotonicity check, the
convergence test, lambda and the next step's first RK4 stage. Each evaluation
and later RK4 stage gets mu and mu * x from one kernel, `moment._moment_action`,
which for a small cubic tensor builds one set of stacked flattenings for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moment import _frobenius_norm, _moment_action, infinitesimal_action, moment_map
from .tensor import Tensor3, _norm, norm

DEFAULT_STEP = 0.05
DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_MAX_STEPS = 200_000
# Allowed per-step increase of |mu| before the integrator halves the step;
# well below the 1e-8 monotonicity slack, above rounding noise.
MONOTONICITY_SLACK = 1e-12
MAX_HALVINGS = 60


@dataclass(frozen=True)
class NessCertificate:
    """Fixed-point data: lambda and the scaled gradient residual.

    A residual below tolerance certifies exp(t mu(T)) . T = e^{lambda t} T,
    hence that |mu(T)| is minimal over the moment polytope of T.
    """

    lam: float
    residual: float


@dataclass(frozen=True)
class FlowResult:
    limit: Tensor3
    steps: int
    final_residual: float
    mu_norm_trajectory: list[float]
    converged: bool
    lam: float  # <T, mu(T)T> / |T|^2 at the limit, from its last evaluation


def _lam_residual(arr: np.ndarray, action: np.ndarray, nrm: float) -> tuple[float, float]:
    """lambda = <T, mu(T)T> / |T|^2 and the scaled residual |mu(T)T - lambda T| / |T|."""
    lam = complex(np.vdot(arr, action)).real / nrm**2
    return lam, _norm(action - lam * arr) / nrm


def ness_minimality(t: Tensor3) -> NessCertificate:
    nrm = norm(t)
    if nrm == 0.0:
        raise ValueError("ness_minimality requires a nonzero tensor")
    action = infinitesimal_action(moment_map(t), t).entries
    return NessCertificate(*_lam_residual(t.entries, action, nrm))


def _evaluate(x: np.ndarray) -> tuple[float, np.ndarray, float, float]:
    """|mu(x)|, the action mu(x) * x, lambda and the projective residual at x."""
    nrm = _norm(x)
    mu, action = _moment_action(x, nrm)
    return _frobenius_norm(mu), action, *_lam_residual(x, action, nrm)


def _rk4_step(x: np.ndarray, k1: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of dx/dt = -mu(x) * x, where k1 = mu(x) * x.

    Each stage holds mu(y) * y rather than the velocity, its negation, and is
    subtracted; rounding is symmetric under negation, so the bits are those
    of adding the velocities.
    """

    def f(y: np.ndarray) -> np.ndarray:
        return _moment_action(y, _norm(y))[1]

    k2 = f(x - 0.5 * dt * k1)
    k3 = f(x - 0.5 * dt * k2)
    k4 = f(x - dt * k3)
    return x - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow(
    t: Tensor3,
    step_size: float = DEFAULT_STEP,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> FlowResult:
    """Integrate the flow until the projective gradient residual drops below
    residual_tol; non-convergence is reported in the result, not raised.

    The step is halved whenever |mu| would increase beyond integrator noise,
    or the step would leave the finite nonzero tensors, and is allowed to
    recover after a run of accepted steps. If MAX_HALVINGS halvings find no
    acceptable step, the flow stops at the last accepted point, unconverged,
    so |mu| never rises by more than MONOTONICITY_SLACK a step. A step_size
    that is not positive, or a negative residual_tol or max_steps, is a
    ValueError.
    """
    if not step_size > 0 or residual_tol < 0 or max_steps < 0:
        raise ValueError("flow needs step_size > 0, residual_tol >= 0 and max_steps >= 0")
    if norm(t) == 0.0:
        raise ValueError("flow requires a nonzero tensor")
    # Scale by the reciprocal of the norm: dividing by it would round differently.
    x = t.entries * (1.0 / norm(t))
    mu_norm, action, lam, residual = _evaluate(x)
    trajectory = [mu_norm]
    dt = step_size
    streak = 0

    steps = 0
    # A step that overflows is rejected below by its non-finite norm, so
    # numpy's overflow warnings would only name internals on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        while residual > residual_tol and steps < max_steps:
            for halvings in range(MAX_HALVINGS + 1):
                if halvings:
                    dt *= 0.5
                    streak = 0
                y = _rk4_step(x, action, dt)
                y_norm = _norm(y)
                # A step to zero or past the float range is rejected like a rise of |mu|.
                if 0.0 < y_norm < math.inf:
                    candidate = y * (1.0 / y_norm)
                    evaluation = _evaluate(candidate)
                    if evaluation[0] <= mu_norm + MONOTONICITY_SLACK:
                        break
            else:
                break  # no step down to dt / 2**MAX_HALVINGS was accepted: stop unconverged
            x = candidate
            mu_norm, action, lam, residual = evaluation
            steps += 1
            trajectory.append(mu_norm)
            streak = 0 if halvings else streak + 1
            if streak >= 10 and dt < step_size:
                dt = min(2.0 * dt, step_size)
                streak = 0

    return FlowResult(
        limit=Tensor3(x),
        steps=steps,
        final_residual=residual,
        mu_norm_trajectory=trajectory,
        converged=residual <= residual_tol,
        lam=lam,
    )

