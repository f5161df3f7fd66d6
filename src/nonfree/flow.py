"""Kempf-Ness gradient flow dT/dt = -mu(T) * T and the Ness fixed-point test.

The flow is integrated projectively, by geodesic (Lie-Euler) steps
x <- (e^{-dt mu_1} x e^{-dt mu_2} x e^{-dt mu_3}) x with mu frozen at x: group
elements, so every iterate stays in the orbit of the input. Each is renormalized
to unit norm, and convergence is declared on the projective gradient residual
|mu(T) * T - lambda T|, since only the projective limit is guaranteed to exist.

The integrator steps a plain entries array and builds a `Tensor3` only for the
limit. One evaluation per candidate, `moment._moment_action`, gives mu and
mu * x for the monotonicity and drift tests, the convergence test and lambda;
an accepted one also gives the eigendecomposition of mu every halving reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moment import _frobenius_norm, _moment_action, infinitesimal_action, moment_map
from .tensor import Tensor3, _norm, _normal_range

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
    """lambda and the residual at t, scaled first by a power of two if |t|^2 underflows."""
    arr, nrm, k = _normal_range(t.entries)
    if nrm == 0.0:
        raise ValueError("ness_minimality requires a nonzero tensor")
    if k:
        t = Tensor3(arr)
    action = infinitesimal_action(moment_map(t), t).entries
    return NessCertificate(*_lam_residual(arr, action, nrm))


def _evaluate(x: np.ndarray) -> tuple[float, tuple[np.ndarray, ...], np.ndarray, float, float]:
    """|mu(x)|, mu(x), the action mu(x) * x, lambda and the projective residual at x."""
    nrm = _norm(x)
    mu, action = _moment_action(x, nrm)
    return _frobenius_norm(mu), mu, action, *_lam_residual(x, action, nrm)


def _spectra(mu: tuple[np.ndarray, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs (w, v) with mu_L = v diag(w) v^*, one batched pair for three equal sizes."""
    cubic = mu[0].shape == mu[1].shape == mu[2].shape
    return [np.linalg.eigh(np.stack(mu))] if cubic else [np.linalg.eigh(m) for m in mu]


def _geodesic_step(arrays: np.ndarray, spectra, dt: float) -> np.ndarray:
    """The factors e^{-dt mu_L} = v diag(e^{-dt w}) v^*, applied to each stacked 3-axis array."""
    f = [(v * np.exp(-dt * w)[..., None, :]) @ v.conj().swapaxes(-1, -2) for w, v in spectra]
    a, b, c = f[0] if len(f) == 1 else f
    k, n1 = arrays.shape[:2]
    return b @ (a @ arrays.reshape(k, n1, -1)).reshape(arrays.shape) @ c.T


def flow(
    t: Tensor3,
    step_size: float = DEFAULT_STEP,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> FlowResult:
    """Integrate the flow until the projective gradient residual drops below
    residual_tol; non-convergence is reported in the result, not raised.

    step_size is the initial dt. A candidate y is accepted only if |mu| rises by
    at most MONOTONICITY_SLACK and the generator drifts by |mu(y) * y - mu(x) * y|
    <= residual(x) / 2, an estimate of the local error. Otherwise, or if the
    step would leave the finite nonzero tensors, dt is halved; it doubles after
    10 accepted steps in a row, without a cap. If MAX_HALVINGS halvings find no
    acceptable step, the flow stops unconverged at the last accepted point. A
    step_size that is not positive, or a negative residual_tol or max_steps, is
    a ValueError.
    """
    if not step_size > 0 or residual_tol < 0 or max_steps < 0:
        raise ValueError("flow needs step_size > 0, residual_tol >= 0 and max_steps >= 0")
    arr, nrm, _ = _normal_range(t.entries)
    if nrm == 0.0:
        raise ValueError("flow requires a nonzero tensor")
    # Scale by the reciprocal of the norm: dividing by it would round differently.
    x = arr * (1.0 / nrm)
    mu_norm, mu, action, lam, residual = _evaluate(x)
    trajectory = [mu_norm]
    dt = step_size
    streak = 0

    steps = 0
    # A step that overflows is rejected below by its non-finite norm, so
    # numpy's overflow warnings would only name internals on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        while residual > residual_tol and steps < max_steps:
            spectra = _spectra(mu)
            # mu(x) * x rides along: the step commutes with mu(x), so it yields
            # mu(x) * y for the drift test up to the scale of y.
            pair = np.stack((x, action))
            for halvings in range(MAX_HALVINGS + 1):
                stepped = _geodesic_step(pair, spectra, dt)
                y_norm = _norm(stepped[0])
                # A step to zero or past the float range is rejected like a rise of |mu|.
                if 0.0 < y_norm < math.inf:
                    candidate, moved_action = stepped * (1.0 / y_norm)
                    evaluation = _evaluate(candidate)
                    drift = _norm(evaluation[2] - moved_action)
                    if evaluation[0] <= mu_norm + MONOTONICITY_SLACK and drift <= 0.5 * residual:
                        break
                dt *= 0.5
            else:
                break  # no step down to dt / 2**MAX_HALVINGS was accepted: stop unconverged
            x = candidate
            mu_norm, mu, action, lam, residual = evaluation
            steps += 1
            trajectory.append(mu_norm)
            streak = 0 if halvings else streak + 1
            if streak == 10:
                dt, streak = 2.0 * dt, 0

    return FlowResult(
        limit=Tensor3(x),
        steps=steps,
        final_residual=residual,
        mu_norm_trajectory=trajectory,
        converged=residual <= residual_tol,
        lam=lam,
    )

