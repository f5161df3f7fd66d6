"""Constructive basis change carrying a generic staircase-supported tensor
onto the 0/1 representative, returning the group element.

The elementary steps are: a second-factor diagonal scaling normalizing the
a-entries, one third-factor block matrix straightening the W-part, a
third-factor column scaling, and a final diagonal normalization solved in
log space over the support incidence system. The support stays inside the
staircase throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import s0_tensor
from .family import gamma_support, staircase_index
from .supports import vertex_matrix
from .tensor import GroupTriple, SupportSet, Tensor3, apply, compose, norm, support

DEFAULT_TOL = 1e-8  # bound on the final residual |g . s - S0|
RANK_TOL = 1e-10
STAIRCASE_TOL = 1e-12  # relative cutoff for entries that count as escaping the staircase


class ReductionError(ValueError):
    """Preconditions of the reduction fail for this tensor."""


@dataclass(frozen=True)
class ReductionResult:
    g: GroupTriple
    residual: float
    log: list[str]
    success: bool


def extract_Wa(s: Tensor3) -> tuple[np.ndarray, np.ndarray]:
    """The W-map (n x (n-1)) and a-map (length n-1) values of a staircase tensor."""
    n = s.dims[0]
    if s.dims != (n, n, n):
        raise ValueError(f"expected a cubic tensor, got dims {s.dims}")
    escaped = SupportSet(support(s, STAIRCASE_TOL).mask & ~gamma_support(n).mask)
    if len(escaped):
        raise ReductionError(f"support escapes the staircase at {list(escaped)[:3]}")
    w_index, a_index = staircase_index(n)
    return s.entries[w_index], s.entries[a_index]


def _check_row_deletion_rank(w: np.ndarray) -> None:
    n = w.shape[0]
    for drop in range(n):
        sub = np.delete(w, drop, axis=0)
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            raise ReductionError(f"rows of W without row {drop + 1} are dependent")


def reduce_to_s0(s: Tensor3, tol: float = DEFAULT_TOL) -> ReductionResult:
    """Find g with g . s equal to the 0/1 representative S0 within tol.

    Requires all a-entries nonzero and every n-1 rows of the W-part linearly
    independent (generic within the staircase support), else a ReductionError.
    Step 4's log-space system always has a solution, so tol bounds only the
    final residual |g . s - S0|, and success means the residual is within it.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    n = s.dims[0]
    w, a = extract_Wa(s)
    if np.any(np.abs(a) <= 1e-14 * max(np.abs(s.entries).max(), 1e-300)):
        raise ReductionError("some a-entry vanishes; reduction undefined")
    _check_row_deletion_rank(w)
    log: list[str] = []
    target = s0_tensor(n)

    # (1) Second-factor diagonal making every a-entry 1.
    scale2 = np.ones(n, dtype=np.complex128)
    scale2[: n - 1] = 1.0 / a
    g1 = GroupTriple(np.eye(n), np.diag(scale2), np.eye(n))
    current = apply(g1, s)
    log.append("second-factor diagonal normalizes a-entries to one")

    # (2) Third-factor block matrix (M^T + [1]) with M the inverse of the first
    # n-1 rows of W; straightens the W-part to the identity over a lambda-row.
    w1, _ = extract_Wa(current)
    m = np.linalg.inv(w1[: n - 1, :])
    block = np.eye(n, dtype=np.complex128)
    block[: n - 1, : n - 1] = m.T
    g2 = GroupTriple(np.eye(n), np.eye(n), block)
    current = apply(g2, current)
    log.append("third-factor block matrix straightens the W rows")

    lambdas = extract_Wa(current)[0][n - 1, :]
    if np.any(np.abs(lambdas) <= 1e-14):
        raise ReductionError("a straightened last-row coefficient vanishes")

    # (3) Third-factor column scaling turning the last W row into all ones.
    scale3 = np.ones(n, dtype=np.complex128)
    scale3[: n - 1] = 1.0 / lambdas
    g3 = GroupTriple(np.eye(n), np.eye(n), np.diag(scale3))
    current = apply(g3, current)
    log.append("third-factor diagonal normalizes the ones row")

    # (4) Remaining diagonal normalization in log space: minimum-norm solution of
    # x_i + y_j + z_k = -Log(entry) on the 3(n-1) triples of S0, a full-row-rank system.
    target_support = support(target, 0.0)
    values = current.entries[target_support.mask]
    vanished = np.abs(values) <= 1e-14
    if vanished.any():
        triple = list(target_support)[vanished.argmax()]
        raise ReductionError(f"expected support entry {triple} vanished")
    rows = vertex_matrix(target_support).astype(np.complex128)
    solution, *_ = np.linalg.lstsq(rows, -np.log(values), rcond=None)
    g4 = GroupTriple(
        np.diag(np.exp(solution[:n])),
        np.diag(np.exp(solution[n : 2 * n])),
        np.diag(np.exp(solution[2 * n :])),
    )
    current = apply(g4, current)
    log.append("diagonal log-space normalization sets every entry to one")

    g = compose(g4, compose(g3, compose(g2, g1)))
    residual = norm(Tensor3(current.entries - target.entries))
    return ReductionResult(g=g, residual=residual, log=log, success=residual <= tol)
