"""Combinatorics of free supports and Sjamaar-type inner points.

A support is free when any two distinct triples in it differ in at least two
coordinates; equivalently, distinct slices, rows and columns of the tensor
have disjoint support.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

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


def is_free_support(s: SupportSet) -> FreeSupportWitness:
    """Freeness in one pass over the support, with the least offending pair.

    Two distinct triples differ in one coordinate exactly when they share one
    of the three projections that drop a coordinate, so the triples are
    grouped by those. The pair reported is the least triple that shares a
    group, with the least other member of its groups: the first pair a
    pairwise scan in sorted order would meet.
    """
    groups: dict[tuple, list[Triple]] = defaultdict(list)
    for i, j, k in s.triples:
        for key in ((None, j, k), (i, None, k), (i, j, None)):
            groups[key].append((i, j, k))
    shared = [members for members in groups.values() if len(members) > 1]
    if not shared:
        return FreeSupportWitness(True)
    first = min(min(members) for members in shared)
    second = min(t for members in shared if first in members for t in members if t != first)
    return FreeSupportWitness(False, (first, second))


def downward_closure(s: SupportSet) -> SupportSet:
    """All triples pointwise dominated by some element of s.

    The column height K(i, j) is the largest k of a triple (a, b, k) of s with
    a >= i and b >= j, or 0 if there is none: a 2-D suffix maximum, built in
    O(n1 n2 + |s|). The closure is every (i, j, k) with 1 <= k <= K(i, j).
    """
    n1, n2, _ = s.dims
    heights = [[0] * (n2 + 2) for _ in range(n1 + 2)]
    for i, j, k in s.triples:
        heights[i][j] = max(heights[i][j], k)
    for i in range(n1, 0, -1):
        row, below = heights[i], heights[i + 1]
        for j in range(n2, 0, -1):
            row[j] = max(row[j], row[j + 1], below[j])
    return support_set(s.dims, (
        (i, j, k)
        for i in range(1, n1 + 1)
        for j in range(1, n2 + 1)
        for k in range(1, heights[i][j] + 1)
    ))


def sjamaar_inner_points(s: SupportSet) -> list[WeylPoint]:
    """The sorted marginals of the uniform distribution on a free support.

    For a free support every sorted marginal triple of a distribution on the
    support lies in the moment polytope (Sjamaar 1998, Franz 2002). The
    marginals are summed as exact rationals; an empty support has no point.
    """
    witness = is_free_support(s)
    if not witness.verdict:
        raise ValueError(f"support is not free: {witness.offending_pair}")
    if not len(s):
        return []
    weight = Fraction(1, len(s))
    components = []
    for axis, n in enumerate(s.dims):
        marginal = [Fraction(0)] * n
        for triple in s.triples:
            marginal[triple[axis] - 1] += weight
        components.append(sorted(marginal, reverse=True))
    return [WeylPoint(*components)]
