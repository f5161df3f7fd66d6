"""Convex hull membership whose refutations are exact.

HiGHS, called directly through the solver core bundled with scipy, searches in
floating point for a linear functional y that separates the point from the
vertices; the functional is then checked in exact rational arithmetic,
following Applegate, Cook, Dash and Espinoza, "Exact solutions to linear
programming problems" (Oper. Res. Lett. 2007). "Not in the hull" is therefore
an exact statement about the rational data, never a rounding artifact; a
solver failure only leaves membership unrefuted.
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
    from scipy.optimize._highspy import _core as highs

    # Boxed separation LP over (y, s): minimize y.p + s subject to -(y.v + s) <= 0.
    # The nonzeros of -[V | 1] column by column and the options (output off, dual
    # simplex) are those of scipy's own LP front end, whose solutions tests compare.
    columns = -np.vstack([np.array(vertices, dtype=float).T, np.ones(len(vertices))])
    nonzero = columns != 0
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = dim + 1
    lp.num_row_ = lp.a_matrix_.num_row_ = len(vertices)
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1]
    lp.a_matrix_.value_ = columns[nonzero]
    lp.col_cost_ = [float(x) for x in point] + [1.0]
    lp.col_lower_ = np.full(dim + 1, -1.0)
    lp.col_upper_ = np.ones(dim + 1)
    lp.row_lower_ = np.full(len(vertices), -np.inf)
    lp.row_upper_ = np.zeros(len(vertices))
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("simplex_strategy", 1)  # dual simplex
    solver.passModel(lp)
    solver.run()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal or solver.getObjectiveValue() >= 0:
        return True
    # Floats convert to rationals exactly; the best offset s is -min_v y.v.
    y = [Fraction(x) for x in solver.getSolution().col_value[:dim]]
    return _pairing(y, point) >= min(_pairing(y, v) for v in vertices)
