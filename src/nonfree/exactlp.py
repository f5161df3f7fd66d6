"""The exact pairing kernel, and convex hull membership of a support whose
refutations are exact.

`_pairings` pairs a rational functional with the vertices (e_i|e_j|e_k) of a
support over one common denominator, for polytope's outer halfspaces, the
family's Ness identity and the Farkas check here. HiGHS, called directly
through the solver core bundled with scipy, searches in floating point for a
linear functional y that separates the point from the vertices; the
functional is then checked exactly, following Applegate, Cook, Dash and
Espinoza, "Exact solutions to linear programming problems" (Oper. Res. Lett.
2007). "Not in the hull" is therefore an exact statement about the rational
data, never a rounding artifact; a solver failure only leaves membership
unrefuted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .tensor import _FLATTENING_ORDERS, SupportSet

# Most digits of a common denominator of pairings, and of a printed halfspace bound or
# minimum: Python's default int-string limit, which bounds every JSON integer.
MAX_DIGITS = 4300
_DIGIT_LIMIT = 10**MAX_DIGITS
# Pairings whose components' largest |D h_L| sum below this are summed in int64.
_INT64_BOUND = 2**62


def _pairings(mask: np.ndarray, h, c) -> tuple[int, np.ndarray, int]:
    """(D, D times the pairings <(e_i|e_j|e_k), h> at the triples of mask in C
    order, D * c), with D the common denominator of the rationals h and c. A D
    of more than MAX_DIGITS digits is a ValueError.

    The pairings are an int64 array when the sum over the components of the
    largest |D h_L| is below 2**62, which bounds every pairing and partial sum,
    and an object array of Python ints otherwise. Either way the values are
    exact; callers take int() of any element, minimum or sum before it meets a
    Fraction or a Python int.
    """
    scale = 1
    for x in (c, *h[0], *h[1], *h[2]):  # one step at a time, so that a growing lcm fails early
        scale = math.lcm(scale, int(x.denominator))
        if scale >= _DIGIT_LIMIT:
            raise ValueError(f"the halfspace's common denominator has more than {MAX_DIGITS} digits")

    def scaled(x) -> int:
        return int(x.numerator) * (scale // int(x.denominator))

    components = [[scaled(x) for x in component] for component in h]
    dtype = np.int64 if sum(max(map(abs, v)) for v in components) < _INT64_BOUND else object
    h1, h2, h3 = (np.array(v, dtype=dtype) for v in components)
    i, j, k = np.nonzero(mask)
    return scale, h1[i] + h2[j] + h3[k], scaled(c)


def in_convex_hull(supp: SupportSet, point: Sequence[Rational]) -> bool:
    """Whether point may be a convex combination of the vertices (e_i|e_j|e_k)
    of the triples of supp.

    Returns False only with an exact Farkas certificate, a rational y with
    y.p < y.v for every vertex v. A point in the hull, a point too close to
    its boundary for the float solve, or a solver failure returns True. An
    empty support, whose hull has no Farkas certificate, and a point whose
    length is not n1 + n2 + n3, are ValueErrors. A model that HiGHS does not
    accept is a RuntimeError, a defect here: as an empty LP it would answer
    True every time.
    """
    if not len(supp):
        raise ValueError("convex hull membership needs at least one vertex")
    dim = sum(supp.dims)
    if len(point) != dim:
        raise ValueError(f"point length {len(point)} does not match dims {supp.dims}")
    # Imported here so that commands which never test membership skip scipy's import.
    from scipy.optimize._highspy import _core as highs

    # Boxed separation LP over (y, s): minimize y.p + s subject to -(y.v + s) <= 0,
    # passed as arrays, column by column. The rows are the triples of supp in C order,
    # and the nonzeros of -[V | 1] are -1s: the column of y at index a of a factor has
    # the rows whose index along that factor's axis is a, in row order, and the column
    # of s has every row. `start` holds the first nonzero of each column. The options
    # (output off, dual simplex) are those of scipy's own LP front end, whose
    # solutions tests compare.
    mask = supp.mask
    rows = len(supp)
    position = np.empty(mask.shape, dtype=np.int32)
    position[mask] = np.arange(rows, dtype=np.int32)
    index = np.concatenate(
        [position.transpose(order)[mask.transpose(order)] for order in _FLATTENING_ORDERS]
        + [np.arange(rows, dtype=np.int32)]
    )
    counts = np.concatenate([mask.sum(axis=order[1:]) for order in _FLATTENING_ORDERS])
    start = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    cols = dim + 1
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("simplex_strategy", 1)  # dual simplex
    status = solver.passModel(
        cols, rows, len(index), highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        np.array([float(x) for x in point] + [1.0]), np.full(cols, -1.0), np.ones(cols),
        np.full(rows, -np.inf), np.zeros(rows), start, index, np.full(len(index), -1.0),
        np.zeros(cols, dtype=np.int32),  # all continuous; an empty array is a kError
    )
    if status != highs.HighsStatus.kOk:
        raise RuntimeError(f"HiGHS rejected the separation LP: {status}")
    solver.run()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal or solver.getObjectiveValue() >= 0:
        return True
    # Floats convert to rationals exactly; the best offset s is -min_v y.v. The D of
    # the float y is at most 2**1074; y.p, whose denominator grows with the point's, is
    # compared as D * y.p outside the kernel.
    n1, n2, _ = supp.dims
    y = [Fraction(x) for x in solver.getSolution().col_value[:dim]]
    y_p = sum((yi * x for yi, x in zip(y, point) if x), Fraction(0))
    scale, pairings, _ = _pairings(supp.mask, (y[:n1], y[n1 : n1 + n2], y[n1 + n2 :]), 0)
    return scale * y_p >= int(pairings.min())
