"""Moment map of the tensor action, its infinitesimal action, and spectra.

The component of the moment map on factor L is the normalized Gram matrix of
the factor-L flattening, mu_L(T) = F_L F_L^* / |T|^2, which is Hermitian, PSD
and trace one by construction, and transforms as A mu_L(T) A^{-1} under a
unitary basis change A on factor L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import DimensionMismatchError, Tensor3, _freeze, flattening, norm

HERMITICITY_TOL = 1e-12
WEYL_TOL = 1e-12


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
            defect = np.linalg.norm(m - m.conj().T)
            if defect > HERMITICITY_TOL:
                raise ValueError(f"component {name} not Hermitian (defect {defect:.3e})")
            object.__setattr__(self, name, _freeze(m))

    @property
    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.h1, self.h2, self.h3)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(m.shape[0] for m in self.components)  # type: ignore[return-value]

    def frobenius_norm(self) -> float:
        return float(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in self.components)))


def herm_triple(h1, h2, h3) -> HermTriple:
    return HermTriple(np.asarray(h1), np.asarray(h2), np.asarray(h3))


def diagonal_herm_triple(d1, d2, d3) -> HermTriple:
    return HermTriple(
        np.diag(np.asarray(d1, dtype=float)),
        np.diag(np.asarray(d2, dtype=float)),
        np.diag(np.asarray(d3, dtype=float)),
    )


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
            if abs(sum(vec) - 1.0) > WEYL_TOL:
                raise ValueError(f"component {name} sums to {sum(vec)}, expected 1")
            if any(x < -WEYL_TOL for x in vec):
                raise ValueError(f"component {name} has a negative entry: {vec}")
            object.__setattr__(self, name, vec)

    @property
    def components(self) -> tuple[tuple[float, ...], ...]:
        return (self.p1, self.p2, self.p3)

    def concatenated(self) -> np.ndarray:
        return np.concatenate([np.asarray(p) for p in self.components])


def moment_map(t: Tensor3) -> HermTriple:
    """Normalized flattening Gram matrices; each component is PSD with unit trace."""
    sq = norm(t) ** 2
    if sq == 0.0:
        raise ValueError("moment map is undefined for the zero tensor")
    parts = []
    for factor in (1, 2, 3):
        f = flattening(t, factor)
        gram = (f @ f.conj().T) / sq
        parts.append((gram + gram.conj().T) / 2.0)
    return HermTriple(*parts)


def diagonal_part(m: HermTriple) -> HermTriple:
    return HermTriple(*(np.diag(np.diag(c)) for c in m.components))


def off_diagonal_mass(m: HermTriple) -> float:
    """Largest off-diagonal magnitude over all three components."""
    worst = 0.0
    for c in m.components:
        od = c - np.diag(np.diag(c))
        if od.size:
            worst = max(worst, float(np.abs(od).max()))
    return worst


def infinitesimal_action(x: HermTriple, t: Tensor3) -> Tensor3:
    """Lie-algebra action (A,B,C) * T, the sum of the three one-factor actions."""
    if x.dims != t.dims:
        raise DimensionMismatchError(f"component dims {x.dims} vs tensor dims {t.dims}")
    arr = t.entries
    out = np.einsum("ia,ajk->ijk", x.h1, arr)
    out += np.einsum("jb,ibk->ijk", x.h2, arr)
    out += np.einsum("kc,ijc->ijk", x.h3, arr)
    return Tensor3(out)


def spec_point(m: HermTriple) -> WeylPoint:
    """Eigenvalues of each component, sorted non-increasingly."""
    sorted_specs = []
    for c in m.components:
        eigs = np.linalg.eigvalsh(c)
        sorted_specs.append(tuple(float(x) for x in eigs[::-1]))
    return WeylPoint(*sorted_specs)


def herm_triple_to_doc(m: HermTriple) -> dict:
    doc = {}
    for name, c in zip(("h1", "h2", "h3"), m.components):
        doc[name] = {
            "re": [[float(v.real) for v in row] for row in c],
            "im": [[float(v.imag) for v in row] for row in c],
        }
    return doc
