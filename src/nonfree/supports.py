"""Combinatorics of free supports.

A support is free when any two distinct triples in it differ in at least two
coordinates; equivalently, distinct slices, rows and columns of the tensor
have disjoint support. Every function here works on the boolean mask of a
`SupportSet` with whole-array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import SupportSet, Triple


@dataclass(frozen=True)
class FreeSupportWitness:
    """Verdict with, on failure, a pair of triples differing in one coordinate."""

    verdict: bool
    offending_pair: tuple[Triple, Triple] | None = None

    def __post_init__(self):
        if self.verdict != (self.offending_pair is None):
            raise ValueError("offending_pair must be present exactly when verdict is false")


def is_free_support(s: SupportSet) -> FreeSupportWitness:
    """Freeness from the line counts of the mask, with the least offending pair.

    Two distinct triples differ in one coordinate exactly when they lie on one
    axis-parallel line of the box, so the support is free when no line holds
    two of its triples. The pair reported is the least triple on a crowded
    line with the least other triple on its three lines: the first pair a
    pairwise scan in sorted order would meet.
    """
    m = s.mask
    crowded = m & ((m.sum(0) > 1)[None] | (m.sum(1) > 1)[:, None] | (m.sum(2) > 1)[..., None])
    if not crowded.any():
        return FreeSupportWitness(True)
    first = i, j, k = tuple(np.argwhere(crowded)[0].tolist())
    lines = np.zeros_like(m)
    lines[:, j, k] = lines[i, :, k] = lines[i, j, :] = True
    lines[first] = False
    second = np.argwhere(m & lines)[0].tolist()
    return FreeSupportWitness(False, (tuple(x + 1 for x in first), tuple(x + 1 for x in second)))


def downward_closure(s: SupportSet) -> SupportSet:
    """All triples pointwise dominated by some element of s: a suffix OR of
    the mask along each of the three axes in turn."""
    closed = s.mask
    for axis in range(3):
        closed = np.flip(np.logical_or.accumulate(np.flip(closed, axis), axis=axis), axis)
    return SupportSet(closed)


def vertex_matrix(s: SupportSet) -> np.ndarray:
    """The 0/1 int matrix whose rows are the vertices (e_i|e_j|e_k) of the
    triples of s in sorted order, over n1 + n2 + n3 columns."""
    n1, n2, _ = s.dims
    columns = np.argwhere(s.mask) + (0, n1, n1 + n2)
    rows = np.zeros((len(columns), sum(s.dims)), dtype=int)
    rows[np.arange(len(columns))[:, None], columns] = 1
    return rows
