"""Moment map of the tensor action, its infinitesimal action, and spectra.

The component of the moment map on factor L is the normalized Gram matrix of
the factor-L flattening, mu_L(T) = F_L F_L^* / |T|^2, which is Hermitian, PSD
and trace one by construction, and transforms as A mu_L(T) A^{-1} under a
unitary basis change A on factor L.

Both mu(T) and the infinitesimal action X * T are matmuls on the flattenings
that `_flattenings` returns: `_grams` gives every Hermitian Gram and `_action`
gives X * T, and every caller goes through them, the public functions, the
flow's evaluation and the Newton step's Hessian products alike. For a small
cubic tensor the flattenings are one stack, and each kernel is one batched
matmul with the bits of the three per-axis products, and `_action`
unflattens the stack of products by one gather (`_summand_index`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import _FLATTENING_ORDERS, Tensor3, _flattening, _freeze, _norm, _normal_range

HERMITICITY_TOL = 1e-12
WEYL_TOL = 1e-12
# Largest stack of three flattenings `_flattenings` builds in one piece; a
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


@functools.lru_cache(maxsize=None)
def _summand_index(n: int) -> np.ndarray:
    """Flat indices into the (3, n, n^2) stack of the products h_L F_L for an
    n x n x n array T: entry L is the L-th summand h_L *_L T of X * T. A sum
    over the first axis of the gathered summands adds them in the order
    `_action` does, with its bits."""
    parts = np.arange(3 * n**3).reshape(3, n, n, n)
    index = np.stack([p.transpose(inverse) for p, inverse in zip(parts, _UNFLATTENING_ORDERS)])
    index.flags.writeable = False
    return index


def moment_map(t: Tensor3) -> HermTriple:
    """Normalized flattening Gram matrices; each component is PSD with unit trace.

    A tensor so small that |T|^2 underflows is first scaled by a power of two.
    """
    arr, nrm, _ = _normal_range(t.entries)
    f = _flattenings(arr)
    return HermTriple(*_grams(f, _adjoints(f), _squared_norm(nrm)))


def _flattenings(arr: np.ndarray) -> np.ndarray | list[np.ndarray]:
    """The three flattenings of a 3-axis array: one (3, n, n^2) stack for a
    cubic array that fits in STACKED_GRAM_MAX_BYTES, else a list of three."""
    n = arr.shape[0]
    if arr.shape != (n, n, n) or 3 * arr.nbytes > STACKED_GRAM_MAX_BYTES:
        return [_flattening(arr, axis) for axis in range(3)]
    # One gather builds the stack: at n = 3 it took 0.8 us on a 2-core x86-64
    # VM, against 3.6 us to concatenate the three transposes.
    return arr.take(_stack_index(n))


def _adjoints(f):
    """The conjugate transposes of the matrices f, a stack or a sequence, in
    that layout."""
    if isinstance(f, np.ndarray):
        return f.conj().swapaxes(-1, -2)
    return [m.conj().T for m in f]


def _products(h, f):
    """h_L F_L for each axis L: one batched matmul for a stack f, else three.
    numpy calls BLAS once per matrix of a batch, so both layouts give the
    same bits."""
    if isinstance(f, np.ndarray):
        return np.matmul(h, f)
    return [m @ x for m, x in zip(h, f)]


def _grams(f, fh, sq: float):
    """(G_L + G_L^*) / 2 for G_L = F_L H_L / sq, in the layout of f: mu_L for
    the adjoints H_L = F_L^* of the flattenings and sq = |T|^2. A stack is
    symmetrized in one piece, a list block by block, with the same bits."""
    grams = _products(f, fh)
    for gram in [grams] if isinstance(grams, np.ndarray) else grams:
        gram /= sq
        gram += gram.conj().swapaxes(-1, -2)
        gram /= 2.0
    return grams


def _action(h, f, dims) -> np.ndarray:
    """X * T = sum_L h_L *_L T for the flattenings f of T, of shape dims: each
    h_L F_L unflattened, summed into the first in the axis order. A stack of
    products is unflattened by one gather (`_summand_index`) and summed over
    its first axis, which adds in the same order, with the same bits."""
    parts = _products(h, f)
    if isinstance(parts, np.ndarray):
        return parts.take(_summand_index(dims[0])).sum(axis=0)
    out = parts[0].reshape(dims)
    for m, order, inverse in zip(parts[1:], _FLATTENING_ORDERS[1:], _UNFLATTENING_ORDERS[1:]):
        out += m.reshape([dims[i] for i in order]).transpose(inverse)
    return out


def infinitesimal_action(x: HermTriple, t: Tensor3) -> Tensor3:
    """Lie-algebra action (A,B,C) * T, the sum of the three one-factor actions."""
    if x.dims != t.dims:
        raise ValueError(f"component dims {x.dims} vs tensor dims {t.dims}")
    return Tensor3(_action(x.components, _flattenings(t.entries), t.dims))


def spec_point(m: HermTriple) -> WeylPoint:
    """Eigenvalues of each component, sorted non-increasingly."""
    sorted_specs = []
    for c in m.components:
        eigs = np.linalg.eigvalsh(c)
        sorted_specs.append(tuple(float(x) for x in eigs[::-1]))
    return WeylPoint(*sorted_specs)
