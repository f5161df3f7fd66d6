"""The two named non-free 3x3x3 tensors, T2 and T5, their minimum-norm
representatives, and for each the diagonal/triangular basis change carrying
it onto its representative; every entry of those is +-sqrt of a rational."""

from __future__ import annotations

from math import sqrt

import numpy as np

from .tensor import GroupTriple, Tensor3, from_coefficients


def tensor_t2() -> Tensor3:
    """Second SL-unstable 3x3x3 tensor; six unit coefficients."""
    return from_coefficients(
        (3, 3, 3),
        {
            (1, 2, 3): 1.0,
            (1, 3, 2): 1.0,
            (2, 1, 3): 1.0,
            (2, 2, 1): 1.0,
            (2, 2, 2): 1.0,
            (3, 1, 1): 1.0,
        },
    )


def tensor_t5() -> Tensor3:
    """Fifth SL-unstable 3x3x3 tensor; five unit coefficients."""
    return from_coefficients(
        (3, 3, 3),
        {
            (1, 1, 3): 1.0,
            (1, 3, 1): 1.0,
            (1, 3, 2): 1.0,
            (2, 2, 1): 1.0,
            (3, 1, 2): 1.0,
        },
    )


# Coefficients of the minimum-norm representative of T2 (unit norm).
S2_COEFFS: dict[tuple[int, int, int], float] = {
    (1, 2, 3): sqrt(1 / 7),
    (1, 3, 2): sqrt(11 / 42),
    (2, 1, 3): sqrt(1 / 7),
    (2, 2, 1): sqrt(10 / 77),
    (2, 2, 2): sqrt(2 / 33),
    (3, 1, 1): sqrt(5 / 22),
    (3, 1, 2): -sqrt(8 / 231),
}


def ness_form_t2() -> Tensor3:
    return from_coefficients((3, 3, 3), S2_COEFFS)


def t2_scaling_triple() -> GroupTriple:
    """Basis change g with g . T2 equal to ness_form_t2()."""
    g1 = np.diag([sqrt(5 / 22), 1.0, sqrt(77 / 10)])
    g2 = np.diag([sqrt(25 / (7 * 121)), sqrt(10 / 77), 1.0])
    g3 = np.array(
        [
            [1.0, 0.0, 0.0],
            [-4 / sqrt(105), sqrt(121 / 105), 0.0],
            [0.0, 0.0, 11 / 5],
        ]
    )
    return GroupTriple(g1, g2, g3)


# Coefficients of the minimum-norm representative of T5 (unit norm).
S5_COEFFS: dict[tuple[int, int, int], float] = {
    (1, 1, 3): sqrt(1 / 5),
    (1, 3, 1): sqrt(4 / 35),
    (1, 3, 2): sqrt(5 / 42),
    (2, 2, 1): sqrt(2 / 7),
    (2, 2, 2): -sqrt(1 / 21),
    (3, 1, 2): sqrt(7 / 30),
}


def ness_form_t5() -> Tensor3:
    return from_coefficients((3, 3, 3), S5_COEFFS)


def t5_scaling_triple() -> GroupTriple:
    """Basis change g with g . T5 equal to ness_form_t5()."""
    g1 = np.diag([1.0, 1.0, sqrt(4 / 35)])
    g2 = np.diag([1.0, sqrt(2 / 7), sqrt(4 / 35)])
    g3 = np.array(
        [
            [1.0, 0.0, 0.0],
            [-sqrt(1 / 6), sqrt(49 / 24), 0.0],
            [0.0, 0.0, sqrt(1 / 5)],
        ]
    )
    return GroupTriple(g1, g2, g3)


# Diagonal moment-map values of the two representatives.
MU_S2_DIAGONALS = (
    (17 / 42, 1 / 3, 11 / 42),
    (17 / 42, 1 / 3, 11 / 42),
    (5 / 14, 5 / 14, 2 / 7),
)
MU_S5_DIAGONALS = (
    (13 / 30, 1 / 3, 7 / 30),
    (13 / 30, 1 / 3, 7 / 30),
    (2 / 5, 2 / 5, 1 / 5),
)

NESS_LAMBDA_T2 = 43 / 42
NESS_LAMBDA_T5 = 16 / 15
