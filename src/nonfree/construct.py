"""Construction of the coefficient matrix W, the family tensor, and the 0/1
representative, as plain arrays and tensors; gram_defects checks the W-part
of a family tensor against its two Gram equations.

W is built Schur-Horn style: the target Gram matrix lambda*I - w w* has
spectrum (lambda, ..., lambda, 0) with kernel spanned by w, so its columns can
be taken as sqrt(lambda) times an orthonormal basis of the orthogonal
complement of w. The basis is produced by a single Householder reflection
mapping w/|w| to the last standard basis vector, which keeps the construction
deterministic across runs and platforms.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .family import FamilyData, staircase_index
from .tensor import Tensor3, _norm


def _householder_basis_of_orthogonal_complement(unit: np.ndarray) -> np.ndarray:
    """Columns: an orthonormal basis of unit^perp, for a real unit vector
    other than the last standard basis vector (build_W's w is positive)."""
    n = unit.shape[0]
    v = unit - np.eye(n)[:, n - 1]
    reflector = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    return reflector[:, : n - 1]


def _roots(values) -> np.ndarray:
    return np.array([sqrt(float(x)) for x in values])


def build_W(data: FamilyData) -> np.ndarray:
    """The n x (n-1) complex W with W*W = lambda I and WW* = lambda I - w w*, w = sqrt(w_sq)."""
    if data.n < 3:
        raise ValueError("build_W requires n >= 3")
    w = _roots(data.w_sq)
    basis = _householder_basis_of_orthogonal_complement(w / _norm(w))
    return (sqrt(float(data.lambda_W)) * basis).astype(np.complex128)


def gram_defects(t: Tensor3, data: FamilyData) -> tuple[float, float]:
    """Frobenius defects of W*W = lambda I and WW* = lambda I - w w* for the W-part of t."""
    lam = float(data.lambda_W)
    m = t.entries[staircase_index(data.n)[0]]
    w = _roots(data.w_sq)
    rows, cols = m.shape
    return (_norm(m.conj().T @ m - lam * np.eye(cols)),
            _norm(m @ m.conj().T - (lam * np.eye(rows) - np.outer(w, w))))


def _staircase(W: np.ndarray, a: np.ndarray) -> Tensor3:
    """Tensor with T[n+1-i, i, k] = W[i, k] for k < n and T[n-i, i, n] = a_i (1-based)."""
    n = W.shape[0]
    w_index, a_index = staircase_index(n)
    arr = np.zeros((n, n, n), dtype=np.complex128)
    arr[w_index] = W
    arr[a_index] = a
    return Tensor3(arr)


def build_family_tensor(data: FamilyData) -> Tensor3:
    """The unit-norm tensor with W-part build_W(data) and a-part sqrt(b_j), j < n."""
    return _staircase(build_W(data), _roots(data.b[: data.n - 1]))


def s0_tensor(n: int) -> Tensor3:
    """The 0/1 representative: identity block over an all-ones row, unit a-entries."""
    if n < 2:
        raise ValueError("s0_tensor requires n >= 2")
    return _staircase(np.vstack([np.eye(n - 1), np.ones((1, n - 1))]), np.ones(n - 1))
