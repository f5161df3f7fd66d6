"""Moment map of the tensor action, its infinitesimal action, and spectra.

The component of the moment map on factor L is the normalized Gram matrix of
the factor-L flattening, mu_L(T) = F_L F_L^* / |T|^2, which is Hermitian, PSD
and trace one by construction, and transforms as A mu_L(T) A^{-1} under a
unitary basis change A on factor L.

The public functions wrap the result of a private ndarray kernel once; the
gradient flow calls the kernels directly, through `_moment_action`, where for
a small cubic tensor one set of stacked flattenings serves both mu(T) and
mu(T) * T. `moment_map` takes the per-axis products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    _FLATTENING_ORDERS, DimensionMismatchError, Tensor3, _flattening, _freeze, _norm, _normal_range,
)

HERMITICITY_TOL = 1e-12
WEYL_TOL = 1e-12
# Largest stack of three flattenings `_moment_action` builds in one piece; a
# cubic tensor above it takes the per-axis products. Larger stacks can land on fresh pages that
# fault on every call: on a 2-core x86-64 VM a 32^3 moment map took 2.8 ms and
# 736 minor page faults stacked, against 1.0 ms per axis. The matmul dispatches
# the stack saves matter only for small tensors.
STACKED_GRAM_MAX_BYTES = 128 * 1024
# The inverse permutations of tensor._FLATTENING_ORDERS.
_UNFLATTENING_ORDERS = ((0, 1, 2), (1, 0, 2), (1, 2, 0))


@dataclass(frozen=True, eq=False)
class HermTriple:
    """Triple of Hermitian matrices, one per tensor factor."""

    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray

    def __post_init__(self):
        for name in ("h1", "h2", "h3"):
            m = np.ascontiguousarray(getattr(self, name), dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"component {name} must be a square matrix")
            defect = _norm(m - m.conj().T)
            # Negated so that a NaN component, whose defect is NaN, fails too.
            if not defect <= HERMITICITY_TOL:
                raise ValueError(f"component {name} not Hermitian (defect {defect:.3e})")
            object.__setattr__(self, name, _freeze(m))

    @property
    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.h1, self.h2, self.h3)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(m.shape[0] for m in self.components)  # type: ignore[return-value]

    def frobenius_norm(self) -> float:
        return _frobenius_norm(self.components)


def _frobenius_norm(components) -> float:
    return math.sqrt(sum(_norm(m) ** 2 for m in components))


@dataclass(frozen=True)
class WeylPoint:
    """Triple of non-increasing, nonnegative vectors with unit coordinate sums."""

    p1: tuple[float, ...]
    p2: tuple[float, ...]
    p3: tuple[float, ...]

    def __post_init__(self):
        for name in ("p1", "p2", "p3"):
            vec = tuple(float(x) for x in getattr(self, name))
            if any(vec[i] < vec[i + 1] - WEYL_TOL for i in range(len(vec) - 1)):
                raise ValueError(f"component {name} is not non-increasing: {vec}")
            # Negated so that a NaN or infinite entry, which spoils the sum, fails too.
            if not abs(sum(vec) - 1.0) <= WEYL_TOL:
                raise ValueError(f"component {name} sums to {sum(vec)}, expected 1")
            if any(x < -WEYL_TOL for x in vec):
                raise ValueError(f"component {name} has a negative entry: {vec}")
            object.__setattr__(self, name, vec)

    @property
    def components(self) -> tuple[tuple[float, ...], ...]:
        return (self.p1, self.p2, self.p3)


def _symmetrized(gram: np.ndarray, sq: float) -> np.ndarray:
    """(G / sq + (G / sq)^*) / 2 over the last two axes, operation for operation, in place."""
    gram /= sq
    gram += gram.conj().swapaxes(-1, -2)
    gram /= 2.0
    return gram


def _squared_norm(nrm: float) -> float:
    """|T|^2 from |T|; zero is a ValueError."""
    sq = nrm**2
    if sq == 0.0:
        raise ValueError("moment map is undefined for the zero tensor")
    return sq


@functools.lru_cache(maxsize=None)
def _stack_index(n: int) -> np.ndarray:
    """Flat indices into an n x n x n array of its three stacked flattenings."""
    flat = np.arange(n**3).reshape(n, n, n)
    index = np.concatenate([flat.transpose(order) for order in _FLATTENING_ORDERS]).reshape(3, n, -1)
    index.flags.writeable = False
    return index


def _moment_arrays(arr: np.ndarray, nrm: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three components of mu(T) for the entries array of T and its norm."""
    sq = _squared_norm(nrm)
    parts = []
    for axis in range(3):
        f = _flattening(arr, axis)
        parts.append(_symmetrized(f @ f.conj().T, sq))
    return tuple(parts)  # type: ignore[return-value]


def moment_map(t: Tensor3) -> HermTriple:
    """Normalized flattening Gram matrices; each component is PSD with unit trace.

    A tensor so small that |T|^2 underflows is first scaled by a power of two.
    """
    arr, nrm, _ = _normal_range(t.entries)
    return HermTriple(*_moment_arrays(arr, nrm))


def off_diagonal_mass(m: HermTriple) -> float:
    """Largest off-diagonal magnitude over all three components."""
    worst = 0.0
    for c in m.components:
        od = c - np.diag(np.diag(c))
        if od.size:
            worst = max(worst, float(np.abs(od).max()))
    return worst


def _action_array(h, arr: np.ndarray) -> np.ndarray:
    """(A,B,C) * T on plain arrays: h holds (A, B, C), arr the entries of T."""
    out = np.einsum("ia,ajk->ijk", h[0], arr)
    out += np.einsum("jb,ibk->ijk", h[1], arr)
    out += np.einsum("kc,ijc->ijk", h[2], arr)
    return out


def _flattenings(arr: np.ndarray) -> np.ndarray | list[np.ndarray]:
    """The three flattenings of a 3-axis array: one (3, n, n^2) stack for a
    cubic array that fits in STACKED_GRAM_MAX_BYTES, else a list of three."""
    n = arr.shape[0]
    if arr.shape != (n, n, n) or 3 * arr.nbytes > STACKED_GRAM_MAX_BYTES:
        return [_flattening(arr, axis) for axis in range(3)]
    # One gather builds the stack: at n = 3 it took 0.8 us on a 2-core x86-64
    # VM, against 3.6 us to concatenate the three transposes.
    return arr.take(_stack_index(n))


def _unflattened_sum(parts, dims) -> np.ndarray:
    """The sum over the axes L of the arrays of shape dims whose L-th flattening is parts[L]."""
    a, b, c = (
        m.reshape([dims[i] for i in order]).transpose(inverse)
        for m, order, inverse in zip(parts, _FLATTENING_ORDERS, _UNFLATTENING_ORDERS)
    )
    out = a + b
    out += c
    return out


def _moment_action(arr: np.ndarray, nrm: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """mu(T) and mu(T) * T for the entries array of T and its norm.

    A small cubic tensor's stacked flattenings serve both: one batched matmul
    gives the three Gram matrices, one batched einsum applies each to its own
    flattening, and the three parts are summed in `_action_array`'s order,
    with its bits. Other tensors take the per-axis products of `_moment_arrays`
    and `_action_array`.
    """
    f = _flattenings(arr)
    sq = _squared_norm(nrm)
    if isinstance(f, list):
        mu = tuple(_symmetrized(m @ m.conj().T, sq) for m in f)
        return mu, _action_array(mu, arr)
    # numpy calls BLAS once per matrix of a batch, so the bits equal the per-axis products.
    g = _symmetrized(f @ f.conj().swapaxes(-1, -2), sq)
    return tuple(g), _unflattened_sum(np.einsum("lia,lax->lix", g, f), arr.shape)


def infinitesimal_action(x: HermTriple, t: Tensor3) -> Tensor3:
    """Lie-algebra action (A,B,C) * T, the sum of the three one-factor actions."""
    if x.dims != t.dims:
        raise DimensionMismatchError(f"component dims {x.dims} vs tensor dims {t.dims}")
    return Tensor3(_action_array(x.components, t.entries))


def spec_point(m: HermTriple) -> WeylPoint:
    """Eigenvalues of each component, sorted non-increasingly."""
    sorted_specs = []
    for c in m.components:
        eigs = np.linalg.eigvalsh(c)
        sorted_specs.append(tuple(float(x) for x in eigs[::-1]))
    return WeylPoint(*sorted_specs)
