"""Kempf-Ness flow to the minimum of |mu| over the orbit, and the Ness fixed-point test.

The flow moves a tensor along its GL-orbit by damped Newton steps on the
Kempf-Ness function log |e^X x|^2 over Hermitian triples X (Buergisser, Franks,
Garg, Oliveira, Walter and Wigderson, FOCS 2019): x <- (e^{X_1} x e^{X_2} x
e^{X_3}) x, a group element, so every iterate stays in the orbit of the input.
Each is renormalized to unit norm, and convergence is declared on the
projective gradient residual |mu(T) * T - lambda T|, since only the projective
limit is guaranteed to exist. As the damping grows, the step tends to the
geodesic step e^{-dt mu} x of the gradient flow dT/dt = -mu(T) * T.

The loop steps a plain entries array and builds a `Tensor3` only for the
limit. One evaluation per candidate, `_evaluate`, runs the moment kernels on
one set of flattenings and gives |mu| and the residual for the acceptance
test, mu and the flattenings with their adjoints for the next Newton system,
and lambda and the residual for the convergence test; the Newton system at an
accepted point is set up once, from them, and every halving only solves it
again with a larger damping. The system fixes
the layout of its vectors, (3, n, n) stacks for a cubic tensor and one packed
vector otherwise, so the conjugate-gradient loop that solves it is the same
for both and tests no layout as it iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moment import (
    HermTriple, _action, _adjoints, _flattenings, _frobenius_norm, _grams, _products,
    _squared_norm, infinitesimal_action, moment_map,
)
from .tensor import Tensor3, _apply_array, _norm, _normal_range

DEFAULT_STEP = 0.05
DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_MAX_STEPS = 200_000
# How far |mu| may rise above the least value the flow has accepted: above
# rounding noise, and well below the 1e-8 rise the tests allow a trajectory.
MONOTONICITY_SLACK = 1e-12
MAX_HALVINGS = 60
# Largest dt that steps accepted at once grow to. The damping 2 / dt bounds the
# condition of the Newton system, so the rounding error of a step grows with dt:
# without this cap, T2 and S0(4) stalled at residuals of 6e-14 and 1.4e-13.
MAX_STEP = 1024.0
# Least initial dt. Below it, e^X x rounds to x, no step is accepted, and every
# halving makes the next try smaller still: a dense 5^3 tensor stalled at step 0
# from dt = 1e-16, and S0(4) and T2 from 1e-20.
MIN_STEP = 1e-12


@dataclass(frozen=True)
class NessCertificate:
    """Fixed-point data: lambda, the scaled gradient residual and the mu(T) they rest on.

    A residual below tolerance certifies exp(t mu(T)) . T = e^{lambda t} T,
    hence that |mu(T)| is minimal over the moment polytope of T.
    """

    lam: float
    residual: float
    mu: HermTriple


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
    """lambda, the residual and mu at t, scaled first by a power of two if
    |t|^2 underflows; mu has the bits moment_map(t) gives."""
    arr, nrm, k = _normal_range(t.entries)
    if nrm == 0.0:
        raise ValueError("ness_minimality requires a nonzero tensor")
    if k:
        t = Tensor3(arr)
    mu = moment_map(t)
    action = infinitesimal_action(mu, t).entries
    return NessCertificate(*_lam_residual(arr, action, nrm), mu)


def _evaluate(x: np.ndarray):
    """|mu(x)|, mu(x) in the layout of `moment._flattenings`, lambda and the
    projective residual at x, from one set of flattenings, and those
    flattenings with their adjoints, for the Newton system at x."""
    nrm = _norm(x)
    f = _flattenings(x)
    fh = _adjoints(f)
    mu = _grams(f, fh, _squared_norm(nrm))
    return _frobenius_norm(mu), mu, *_lam_residual(x, _action(mu, f, x.shape), nrm), (f, fh)


def _spectra(mu) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs (w, v) with mu_L = v diag(w) v^*, one batched pair for three equal sizes."""
    # A cube past STACKED_GRAM_MAX_BYTES (above 13^3) gets mu as a list, and is
    # stacked here all the same, so its Newton-CG vectors are (3, n, n) stacks:
    # packed ones flowed to the same bits, but 10-23% slower at 14^3-20^3 and
    # 5-6% slower at 24^3 on a 2-core x86-64 VM.
    cubic = mu[0].shape == mu[1].shape == mu[2].shape
    return [np.linalg.eigh(np.asarray(mu))] if cubic else [np.linalg.eigh(m) for m in mu]


def _geodesic_step(arr: np.ndarray, spectra) -> np.ndarray:
    """e^X applied to a 3-axis array, for the spectra (w, v) of the triple X:
    the factors e^{X_L} = v diag(e^w) v^*, through `tensor._apply_array`."""
    f = [(v * np.exp(w)[..., None, :]) @ v.conj().swapaxes(-1, -2) for w, v in spectra]
    return _apply_array(f[0] if len(f) == 1 else f, arr)


def _newton_system(x: np.ndarray, mu, flattenings):
    """The damped Newton system at a unit-norm x with moment map mu and the
    flattenings of x with their adjoints, as `_evaluate` gives them, as
    (g, hessian, preconditioner, blocks): the gradient, p -> H p, delta -> the
    preconditioner at the damping delta, and the view of a vector as a triple.

    For the Kempf-Ness function log |e^X x|^2 over Hermitian triples X,
    g_L = 2 (mu_L - I / n_L), without the scaling directions (I on one
    factor), which the renormalization undoes, and H X = 4 (herm(F_L(X x)
    F_L(x)^*) - <X, mu> mu_L). H is never formed: a product takes one action
    X x and three Grams. The preconditioner is diagonal in the eigenbasis of
    each mu_L, with entries 2 (w_a + w_b) + delta. X lives in the basis of x,
    where the zero entries the steps keep stay exactly zero. A vector is a
    (3, n, n) stack for a cubic x, as the spectra are, and the three blocks
    packed into one otherwise. Every layout does the same arithmetic, entry
    for entry.
    """
    dims = x.shape
    spectra = _spectra(mu)
    if len(spectra) == 1:
        [(w, v)] = spectra
        blocks = vector = np.asarray
        g = 2.0 * (vector(mu) - np.eye(dims[0]) / dims[0])
        weights = 2.0 * (w[:, :, None] + w[:, None, :])

        def rotated(a, p: np.ndarray, b) -> np.ndarray:
            return a @ p @ b

    else:
        w, v = zip(*spectra)
        ends = np.cumsum([n * n for n in dims])

        def blocks(p: np.ndarray) -> list[np.ndarray]:
            return [p[e - n * n : e].reshape(n, n) for e, n in zip(ends, dims)]

        def vector(m) -> np.ndarray:
            return np.concatenate([b.ravel() for b in m])

        g = vector([2.0 * (u - np.eye(len(u)) / len(u)) for u in mu])
        weights = vector([2.0 * (u[:, None] + u) for u in w])

        def rotated(a, p: np.ndarray, b) -> np.ndarray:
            return vector(_products(_products(a, blocks(p)), b))

    vh = _adjoints(v)
    fx, fxh = flattenings
    m = vector(mu)

    def hessian(p: np.ndarray) -> np.ndarray:
        # 4 herm(F_L(X x) F_L(x)^*): dividing by 0.25 scales by 4 without rounding.
        c = vector(_grams(_flattenings(_action(blocks(p), fx, dims)), fxh, 0.25))
        c -= (4.0 * np.vdot(m, p).real) * m
        return c

    def preconditioner(delta: float):
        scale = 1.0 / (weights + delta)
        return lambda r: rotated(v, rotated(vh, r, v) * scale, vh)

    return g, hessian, preconditioner, blocks


def _newton_step(x: np.ndarray, mu, flattenings):
    """The damped Newton step at a unit-norm x with moment map mu and
    flattenings as `_evaluate` gives them, as a function (delta, tol) -> e^X x,
    unnormalized, or None for a non-finite X.

    X solves (H + delta I) X = -g for the system of `_newton_system`, set up
    once per step. Preconditioned conjugate gradients take one Hessian
    product and one preconditioning per iteration, and stop once the residual
    is at most tol, or after as many iterations as X has complex entries.
    """
    g, hessian, preconditioner, blocks = _newton_system(x, mu, flattenings)

    def step(delta: float, tol: float) -> np.ndarray | None:
        precondition = preconditioner(delta)
        step_x = np.zeros_like(g)
        r = -g
        z = precondition(r)
        p, rz = z, np.vdot(r, z).real
        for _ in range(g.size):
            if _norm(r) <= tol:
                break
            q = hessian(p)
            q += delta * p
            alpha = rz / np.vdot(p, q).real
            step_x += alpha * p
            r -= alpha * q
            z = precondition(r)
            rz, previous = np.vdot(r, z).real, rz
            p = z + (rz / previous) * p
        if not np.isfinite(step_x).all():
            return None  # no exponential to take; the flow rejects the step
        return _geodesic_step(x, _spectra(blocks(step_x)))

    return step


def flow(
    t: Tensor3,
    step_size: float = DEFAULT_STEP,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> FlowResult:
    """Run damped Newton steps until the projective gradient residual drops
    below residual_tol; non-convergence is reported in the result, not raised.

    Each step solves (H + delta I) X = -g for the Kempf-Ness function (see
    `_newton_step`) to a CG tolerance of min(1/2, sqrt(r)) r at the current
    projective residual r, and moves x to e^X x, renormalized. The damping is
    delta = 2 / dt, so as dt -> 0 the step tends to the geodesic step
    e^{-dt mu} x of the gradient flow. The initial dt is step_size, or MIN_STEP
    if step_size is smaller, since steps below it cannot move x. A candidate
    is accepted only if its |mu| is at most the least accepted |mu| plus
    MONOTONICITY_SLACK, and its |mu| or its residual is below the current
    point's: near the limit the gain in |mu| falls below rounding, while the
    residual still resolves progress. Otherwise, or if the step would leave
    the finite nonzero tensors, dt is halved. A step accepted at once
    multiplies dt by 8, up to MAX_STEP. If MAX_HALVINGS halvings find no
    acceptable step, the flow stops unconverged at the last accepted point.
    A step_size that is not positive, or a residual_tol or max_steps that is
    negative or NaN, is a ValueError.
    """
    if not (step_size > 0 and residual_tol >= 0 and max_steps >= 0):
        raise ValueError("flow needs step_size > 0, residual_tol >= 0 and max_steps >= 0")
    arr, nrm, _ = _normal_range(t.entries)
    if nrm == 0.0:
        raise ValueError("flow requires a nonzero tensor")
    # Scale by the reciprocal of the norm: dividing by it would round differently.
    x = arr * (1.0 / nrm)
    mu_norm, mu, lam, residual, flattenings = _evaluate(x)
    trajectory = [mu_norm]
    least = mu_norm
    # The damping 2 / dt itself is kept: halving a subnormal dt would reach zero.
    delta = 2.0 / max(step_size, MIN_STEP)

    steps = 0
    # A step that overflows is rejected below by its non-finite norm, so
    # numpy's warnings would only name internals on stderr.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while residual > residual_tol and steps < max_steps:
            newton = _newton_step(x, mu, flattenings)
            tol = min(0.5, math.sqrt(residual)) * residual
            for halvings in range(MAX_HALVINGS + 1):
                y = newton(delta, tol)
                y_norm = math.nan if y is None else _norm(y)
                # A step to zero or past the float range is rejected like a rise of |mu|.
                if 0.0 < y_norm < math.inf:
                    candidate = y * (1.0 / y_norm)
                    evaluation = _evaluate(candidate)
                    new_norm, _, _, new_residual, _ = evaluation
                    if new_norm <= least + MONOTONICITY_SLACK and (
                        new_norm < mu_norm or new_residual < residual
                    ):
                        break
                delta *= 2.0
            else:
                break  # no step down to dt / 2**MAX_HALVINGS was accepted: stop unconverged
            x = candidate
            mu_norm, mu, lam, residual, flattenings = evaluation
            least = min(least, mu_norm)
            steps += 1
            trajectory.append(mu_norm)
            if not halvings:
                delta = max(delta / 8.0, 2.0 / MAX_STEP)

    return FlowResult(
        limit=Tensor3(x),
        steps=steps,
        final_residual=residual,
        mu_norm_trajectory=trajectory,
        converged=residual <= residual_tol,
        lam=lam,
    )

