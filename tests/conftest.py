"""Shared helpers for the test suite: seeded random inputs, unitary and
permutation triples, and support inclusion."""

from __future__ import annotations

import numpy as np

from nonfree.tensor import GroupTriple, SupportSet, Tensor3, support_set

UNITARITY_TOL = 1e-12


class UnitaryTriple(GroupTriple):
    """GroupTriple whose factors are unitary within UNITARITY_TOL."""

    def _check(self, name: str, m: np.ndarray):
        defect = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
        if defect > UNITARITY_TOL:
            raise ValueError(f"factor {name} is not unitary (defect {defect:.3e})")


def issubset(s: SupportSet, other: SupportSet) -> bool:
    """Whether every triple of s is in other, within the same box."""
    return s.dims == other.dims and not (s.mask & ~other.mask).any()


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_complex(gen: np.random.Generator, shape) -> np.ndarray:
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_tensor(gen: np.random.Generator, dims) -> Tensor3:
    return Tensor3(random_complex(gen, tuple(dims)))


def random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(gen, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary_triple(gen: np.random.Generator, dims) -> UnitaryTriple:
    return UnitaryTriple(*(random_unitary(gen, n) for n in dims))


def permutation_triple(dims, sigma, tau, rho) -> UnitaryTriple:
    """Permutation action sending e_{i,j,k} to e_{sigma(i),tau(j),rho(k)}.

    Permutations are given as 1-based images, e.g. sigma = [2, 1, 3].
    """

    def matrix(n, perm):
        m = np.zeros((n, n))
        for src, dst in enumerate(perm):
            m[dst - 1, src] = 1.0
        return m

    return UnitaryTriple(matrix(dims[0], sigma), matrix(dims[1], tau), matrix(dims[2], rho))


def random_group_triple(gen: np.random.Generator, dims) -> GroupTriple:
    # Shift away from singularity so the invertibility check passes reliably.
    mats = []
    for n in dims:
        m = random_complex(gen, (n, n)) + 3.0 * np.eye(n)
        mats.append(m)
    return GroupTriple(*mats)


def random_free_support(gen: np.random.Generator, dims, max_size: int | None = None) -> SupportSet:
    """Greedy sample of a free support inside the given box."""
    n1, n2, n3 = dims
    cells = [(i, j, k) for i in range(1, n1 + 1) for j in range(1, n2 + 1) for k in range(1, n3 + 1)]
    order = gen.permutation(len(cells))
    chosen: list[tuple[int, int, int]] = []
    budget = max_size if max_size is not None else len(cells)
    for idx in order:
        cand = cells[idx]
        if all(sum(a != b for a, b in zip(cand, got)) >= 2 for got in chosen):
            chosen.append(cand)
            if len(chosen) >= budget:
                break
    return support_set(dims, chosen)


def tensor_on_support(gen: np.random.Generator, supp: SupportSet) -> Tensor3:
    arr = np.zeros(supp.dims, dtype=np.complex128)
    for (i, j, k) in supp:
        arr[i - 1, j - 1, k - 1] = gen.standard_normal() + 1j * gen.standard_normal()
    return Tensor3(arr)
