"""Convex hull membership whose refutations are exact.

HiGHS searches in floating point for a linear functional y that separates the
point from the vertices; the functional is then checked in exact rational
arithmetic, following Applegate, Cook, Dash and Espinoza, "Exact solutions to
linear programming problems" (Oper. Res. Lett. 2007). "Not in the hull" is
therefore an exact statement about the rational data, never a rounding
artifact; a solver failure only leaves membership unrefuted.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np


def _pairing(y: Sequence[Fraction], v: Sequence[Rational]) -> Fraction:
    return sum((yi * x for yi, x in zip(y, v) if x), Fraction(0))


def in_convex_hull(vertices: Sequence[Sequence[Rational]], point: Sequence[Rational]) -> bool:
    """Whether point may be a convex combination of the rational vertices.

    Returns False only with an exact Farkas certificate, a rational y with
    y.p < y.v for every vertex v. A point in the hull, a point too close to
    its boundary for the float solve, or a solver failure returns True. An
    empty vertex list, whose hull has no Farkas certificate, is a ValueError.
    """
    if not vertices:
        raise ValueError("convex hull membership needs at least one vertex")
    dim = len(point)
    if any(len(v) != dim for v in vertices):
        raise ValueError("vertex dimension does not match point dimension")
    # Imported here so that commands which never test membership skip scipy's import.
    from scipy.optimize import linprog

    # Boxed separation LP over (y, s): minimize y.p + s subject to y.v + s >= 0.
    a_ub = -np.hstack([np.array(vertices, dtype=float), np.ones((len(vertices), 1))])
    cost = [float(x) for x in point] + [1.0]
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(len(vertices)), bounds=(-1, 1), method="highs")
    if res.status != 0 or res.fun >= 0:
        return True
    # Floats convert to rationals exactly; the best offset s is -min_v y.v.
    y = [Fraction(x) for x in res.x[:dim]]
    return _pairing(y, point) >= min(_pairing(y, v) for v in vertices)
