"""Construction of the coefficient matrix W, the family tensor, and the 0/1
representative.

W is built Schur-Horn style: the target Gram matrix lambda*I - w w* has
spectrum (lambda, ..., lambda, 0) with kernel spanned by w, so its columns can
be taken as sqrt(lambda) times an orthonormal basis of the orthogonal
complement of w. The basis is produced by a single Householder reflection
mapping w/|w| to the last standard basis vector, which keeps the construction
deterministic across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .family import FamilyData, staircase_index
from .tensor import Tensor3


@dataclass(frozen=True, eq=False)
class WMatrix:
    """n x (n-1) complex matrix satisfying the two Gram equations of the family."""

    entries: np.ndarray
    lambda_W: Fraction
    w: np.ndarray

    def gram_defects(self) -> tuple[float, float]:
        """Frobenius defects of W*W = lambda I and WW* = lambda I - w w*."""
        lam = float(self.lambda_W)
        m = self.entries
        rows, cols = m.shape
        left = np.linalg.norm(m.conj().T @ m - lam * np.eye(cols))
        right = np.linalg.norm(m @ m.conj().T - (lam * np.eye(rows) - np.outer(self.w, self.w)))
        return (float(left), float(right))


@dataclass(frozen=True, eq=False)
class FamilyTensor:
    """The unit-norm tensor carrying W on the anti-diagonal slices and a on the last."""

    W: WMatrix
    a: np.ndarray
    tensor: Tensor3
    data: FamilyData


def _householder_basis_of_orthogonal_complement(unit: np.ndarray) -> np.ndarray:
    """Columns: an orthonormal basis of unit^perp, for a real unit vector."""
    n = unit.shape[0]
    v = unit - np.eye(n)[:, n - 1]
    vv = float(v @ v)
    if vv < 1e-30:
        return np.eye(n)[:, : n - 1]
    reflector = np.eye(n) - 2.0 * np.outer(v, v) / vv
    return reflector[:, : n - 1]


def build_W(data: FamilyData) -> WMatrix:
    if data.n < 3:
        raise ValueError("build_W requires n >= 3")
    lam = float(data.lambda_W)
    w = np.array([sqrt(float(x)) for x in data.w_sq])
    basis = _householder_basis_of_orthogonal_complement(w / np.linalg.norm(w))
    entries = (sqrt(lam) * basis).astype(np.complex128)
    return WMatrix(entries=entries, lambda_W=data.lambda_W, w=w)


def _staircase(W: np.ndarray, a: np.ndarray) -> Tensor3:
    """Tensor with T[n+1-i, i, k] = W[i, k] for k < n and T[n-i, i, n] = a_i (1-based)."""
    n = W.shape[0]
    w_index, a_index = staircase_index(n)
    arr = np.zeros((n, n, n), dtype=np.complex128)
    arr[w_index] = W
    arr[a_index] = a
    return Tensor3(arr)


def build_family_tensor(data: FamilyData) -> FamilyTensor:
    wm = build_W(data)
    a = np.array([sqrt(float(bj)) for bj in data.b[: data.n - 1]])
    return FamilyTensor(W=wm, a=a, tensor=_staircase(wm.entries, a), data=data)


def s0_tensor(n: int) -> Tensor3:
    """The 0/1 representative: identity block over an all-ones row, unit a-entries."""
    if n < 2:
        raise ValueError("s0_tensor requires n >= 2")
    return _staircase(np.vstack([np.eye(n - 1), np.ones((1, n - 1))]), np.ones(n - 1))
