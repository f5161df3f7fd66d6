"""Constructive basis change carrying a generic staircase-supported tensor
onto the 0/1 representative, returning the group element.

The two steps are: one straightening, which divides the first factor by the
peak entry and applies a third-factor block matrix that turns the W-part into
the identity over one row, and one torus solve, a diagonal normalization of all
three factors solved in log space over the support incidence system. The
support stays inside the staircase throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import s0_tensor
from .family import gamma_support, staircase_index
from .supports import vertex_matrix
from .tensor import GroupTriple, SupportSet, Tensor3, _apply_array, _norm, _normal_range, apply, support

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
    """A ReductionError naming the first row whose deletion leaves W's other rows
    dependent. The n row-deleted (n-1) x (n-1) matrices are gathered with one
    index array and decomposed in one stacked svd, matrix by matrix in LAPACK."""
    n = w.shape[0]
    rows = np.arange(n - 1)
    kept = rows + (rows >= np.arange(n)[:, None])  # row d: every row but d
    sv = np.linalg.svd(w[kept], compute_uv=False)
    dependent = sv[:, -1] <= RANK_TOL * sv[:, 0]
    if dependent.any():
        raise ReductionError(f"rows of W without row {dependent.argmax() + 1} are dependent")


def reduce_to_s0(s: Tensor3, tol: float = DEFAULT_TOL) -> ReductionResult:
    """Find g with g . s equal to the 0/1 representative S0 within tol.

    Requires all a-entries nonzero and every n-1 rows of the W-part linearly
    independent (generic within the staircase support), else a ReductionError,
    as is a g with a factor too ill-conditioned for a GroupTriple. The torus
    solve's log-space system always has a solution, so tol bounds only the
    final residual |g . s - S0|, and success means the residual is within it.
    A tensor so small that |s|^2 underflows is first scaled by an exact power
    of two 2**k, which g then carries, spread over its three factors.
    """
    if not tol >= 0:  # negated so that a NaN is refused too
        raise ValueError("tol must be nonnegative")
    n = s.dims[0]
    entries, _, k = _normal_range(s.entries)
    scaled = Tensor3(entries) if k else s
    w, a = extract_Wa(scaled)
    peak = np.abs(entries).max()
    if np.any(np.abs(a) <= 1e-14 * peak):
        raise ReductionError("some a-entry vanishes; reduction undefined")
    _check_row_deletion_rank(w)
    target = s0_tensor(n)
    target_support = support(target, 0.0)

    # (1) Straighten: (I/p, I, M^T + [1]) with M the inverse of the first n-1 rows
    # of W/p turns the W-part into [I; w_n W_top^-1] and the a-part into a/p.
    block = np.eye(n, dtype=np.complex128)
    block[: n - 1, : n - 1] = np.linalg.inv(w[: n - 1] / peak).T
    straighten = (np.eye(n) / peak, np.eye(n), block)
    values = _apply_array(straighten, entries)[target_support.mask]
    log = ["first- and third-factor matrices straighten the W rows"]

    # (2) Torus solve: minimum-norm solution of x_i + y_j + z_k = -Log(entry) on
    # the 3(n-1) triples of S0, a full-row-rank system, which absorbs any scaling.
    vanished = np.abs(values) <= 1e-14
    if vanished.any():
        triple = list(target_support)[vanished.argmax()]
        raise ReductionError(f"expected support entry {triple} vanished")
    rows = vertex_matrix(target_support).astype(np.complex128)
    solution, *_ = np.linalg.lstsq(rows, -np.log(values), rcond=None)
    torus = np.exp(solution).reshape(3, n)
    # g is the torus element times the straightening, times 2**k in thirds: a
    # subnormal peak makes k up to 1074, and 2.0**1074 overflows.
    powers = [k // 3 + (i < k % 3) for i in range(3)]
    try:
        g = GroupTriple(*(np.diag(d) @ f * 2.0**m for d, f, m in zip(torus, straighten, powers)))
    except ValueError as exc:  # a factor not finite, or of condition above 1/INVERTIBILITY_TOL
        raise ReductionError(f"the reducing element is ill-conditioned: {exc}") from exc
    log.append("diagonal log-space normalization sets every entry to one")

    residual = _norm(apply(g, s).entries - target.entries)
    return ReductionResult(g=g, residual=residual, log=log, success=residual <= tol)
