"""Combinatorics of free supports and Sjamaar-type inner points.

A support is free when any two distinct triples in it differ in at least two
coordinates; equivalently, distinct slices, rows and columns of the tensor
have disjoint support.
"""

from __future__ import annotations

from dataclasses import dataclass

from .moment import WeylPoint
from .tensor import SupportSet, Triple, support_set


@dataclass(frozen=True)
class FreeSupportWitness:
    """Verdict with, on failure, a pair of triples differing in one coordinate."""

    verdict: bool
    offending_pair: tuple[Triple, Triple] | None = None

    def __post_init__(self):
        if self.verdict != (self.offending_pair is None):
            raise ValueError("offending_pair must be present exactly when verdict is false")


def _differing_coordinates(s: Triple, t: Triple) -> int:
    return sum(1 for a, b in zip(s, t) if a != b)


def is_free_support(s: SupportSet) -> FreeSupportWitness:
    """Pairwise scan; supports here have at most n^2 elements."""
    triples = sorted(s.triples)
    for i, first in enumerate(triples):
        for second in triples[i + 1 :]:
            if _differing_coordinates(first, second) == 1:
                return FreeSupportWitness(False, (first, second))
    return FreeSupportWitness(True)


def downward_closure(s: SupportSet) -> SupportSet:
    """All triples pointwise dominated by some element of s, each generated once."""
    closed: set[Triple] = set(s.triples)
    pending = list(closed)
    while pending:
        triple = pending.pop()
        for axis in range(3):
            if triple[axis] > 1:
                lower = triple[:axis] + (triple[axis] - 1,) + triple[axis + 1 :]
                if lower not in closed:
                    closed.add(lower)
                    pending.append(lower)
    return support_set(s.dims, closed)


def _sorted_vertex(dims: Triple, triple: Triple) -> WeylPoint:
    comps = []
    for n, _ in zip(dims, triple):
        comps.append((1.0,) + (0.0,) * (n - 1))
    return WeylPoint(*comps)


def sjamaar_inner_points(s: SupportSet) -> list[WeylPoint]:
    """Sorted support vertices; each is a certified moment-polytope member.

    Every standard basis vector sorts to (1, 0, ..., 0), so one point is
    emitted per support triple and they all coincide; callers interested in
    the full inner bound should take convex combinations before sorting.
    """
    witness = is_free_support(s)
    if not witness.verdict:
        raise ValueError(f"support is not free: {witness.offending_pair}")
    return [_sorted_vertex(s.dims, triple) for triple in s]
