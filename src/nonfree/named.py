"""The two named non-free 3x3x3 tensors, T2 and T5, stored once and exactly.

NAMED maps each name to one row: its support (all coefficients 1), the signed
squares of its unit-norm minimum-norm representative S, and the signed
squares of the diagonal/triangular basis change g carrying it onto S, factor
by factor and row by row. A signed square r stands for the entry
sign(r) sqrt(|r|). The four accessors take the name and generate the floats
from that row, and the diagonals of mu(S): for a unit-norm S, the diagonal of
mu_L(S) is the marginal of |S_ijk|^2 on factor L, exactly. The certificates
derive the Ness lambda from them as |q|^2.
"""

from __future__ import annotations

from fractions import Fraction
from math import copysign, sqrt

import numpy as np

from .tensor import GroupTriple, Tensor3, from_coefficients

T2_SUPPORT = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 1, 1))
T5_SUPPORT = ((1, 1, 3), (1, 3, 1), (1, 3, 2), (2, 2, 1), (3, 1, 2))

S2_SQUARES = {
    (1, 2, 3): Fraction(1, 7),
    (1, 3, 2): Fraction(11, 42),
    (2, 1, 3): Fraction(1, 7),
    (2, 2, 1): Fraction(10, 77),
    (2, 2, 2): Fraction(2, 33),
    (3, 1, 1): Fraction(5, 22),
    (3, 1, 2): Fraction(-8, 231),
}
G2_SQUARES = (
    ((Fraction(5, 22), 0, 0), (0, 1, 0), (0, 0, Fraction(77, 10))),
    ((Fraction(25, 847), 0, 0), (0, Fraction(10, 77), 0), (0, 0, 1)),
    ((1, 0, 0), (Fraction(-16, 105), Fraction(121, 105), 0), (0, 0, Fraction(121, 25))),
)

S5_SQUARES = {
    (1, 1, 3): Fraction(1, 5),
    (1, 3, 1): Fraction(4, 35),
    (1, 3, 2): Fraction(5, 42),
    (2, 2, 1): Fraction(2, 7),
    (2, 2, 2): Fraction(-1, 21),
    (3, 1, 2): Fraction(7, 30),
}
G5_SQUARES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, Fraction(4, 35))),
    ((1, 0, 0), (0, Fraction(2, 7), 0), (0, 0, Fraction(4, 35))),
    ((1, 0, 0), (Fraction(-1, 6), Fraction(49, 24), 0), (0, 0, Fraction(1, 5))),
)

# Per named tensor: its support, the signed squares of S and those of g.
NAMED = {"T2": (T2_SUPPORT, S2_SQUARES, G2_SQUARES), "T5": (T5_SUPPORT, S5_SQUARES, G5_SQUARES)}


def _root(r) -> float:
    """The entry sign(r) sqrt(|r|) that the signed square r stands for."""
    return copysign(sqrt(abs(r)), r)


def _tensor(squares) -> Tensor3:
    return from_coefficients((3, 3, 3), {triple: _root(r) for triple, r in squares.items()})


def named_tensor(which: str) -> Tensor3:
    """The SL-unstable 3x3x3 tensor T2 or T5: unit coefficients on its support."""
    return _tensor(dict.fromkeys(NAMED[which][0], 1))


def ness_form(which: str) -> Tensor3:
    """Its unit-norm minimum-norm representative S."""
    return _tensor(NAMED[which][1])


def scaling_triple(which: str) -> GroupTriple:
    """Its basis change g, with g . named_tensor(which) equal to ness_form(which)."""
    return GroupTriple(*(np.array([[_root(r) for r in row] for row in f]) for f in NAMED[which][2]))


def mu_diagonals(which: str):
    """Per factor, the sum of |r| over the triples with each index: diag mu(S), exactly."""
    squares = NAMED[which][1]
    return tuple(
        tuple(sum(abs(r) for t, r in squares.items() if t[axis] == i) for i in (1, 2, 3))
        for axis in range(3)
    )
