"""Exact rational data of the staircase family: the support Gamma_n, the
halfspace (h, c), the target spectrum q, and the coefficient data b, w^2.

Everything in this module is exact: family_data computes in integers over one
common denominator and builds each public Fraction once, at the FamilyData
boundary, whose construction checks every identity without tolerance, again in
integers. Square roots are taken only when tensors are actually built (see
construct).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain

import numpy as np

from .exactlp import _pairings
from .polytope import HalfspaceCert, outer_halfspace
from .tensor import SupportSet

RationalVec = tuple[Fraction, ...]


class FamilyInvariantError(AssertionError):
    """An exact identity of the family data failed; indicates a bug."""


def staircase_index(n: int) -> tuple[tuple, tuple]:
    """The 0-based index arrays of the staircase layout on an n x n x n array.

    arr[w] is the n x (n-1) W-part, W[i, k] at T[n+1-i, i, k] (1-based), and
    arr[a] the n-1 a-entries, a_i at T[n-i, i, n]. Together they cover Gamma_n.
    """
    rows = np.arange(n)
    w = ((n - 1 - rows)[:, None], rows[:, None], np.arange(n - 1)[None, :])
    a = (n - 2 - rows[:-1], rows[:-1], n - 1)
    return w, a


def gamma_support(n: int) -> SupportSet:
    """The staircase support: i + j = n+1 on the first n-1 slices, i + j = n on the last."""
    if n < 2:
        raise ValueError("gamma_support requires n >= 2")
    mask = np.zeros((n, n, n), dtype=bool)
    for index in staircase_index(n):
        mask[index] = True
    return SupportSet(mask)


@dataclass(frozen=True)
class FamilyData:
    """All rational constants of one family member; construction checks every identity."""

    n: int
    h: tuple[RationalVec, RationalVec, RationalVec]
    c: Fraction
    norm_h_sq: Fraction
    q: tuple[RationalVec, RationalVec, RationalVec]
    b: RationalVec
    w_sq: RationalVec
    lambda_W: Fraction

    def __post_init__(self):
        _validate(self)

    @property
    def ness_lambda(self) -> Fraction:
        """Constant weight pairing over Gamma_n, equal to 3/n + c^2/|h|^2."""
        return Fraction(3, self.n) + self.c * self.c / self.norm_h_sq


def family_data(n: int) -> FamilyData:
    """The family data of size n >= 2, in integers over one common denominator.

    With A = n^4 - n^2 + 6n - 6, |h|^2 = A / 6n, so q_i = 1/n + c x_i / |h|^2 =
    (A + 6n x_i) / nA for the entries x_i of h, and 6n x_i is an integer on h12
    and on h3. So q, its prefix sums b, lambda_W and w^2 are integers over D = nA,
    and each becomes a Fraction once, here.
    """
    if n < 2:
        raise ValueError("family_data requires n >= 2")
    a = n**4 - n**2 + 6 * n - 6
    den = n * a
    # Numerators over D: (q1)_i = (q2)_i, b_j, lambda_W (each (q3)_i, i < n) and w_j^2.
    q12 = [a + 3 * n * (n - 1 - 2 * i) for i in range(n)]
    b = list(accumulate(q12[j] - q12[n - 1 - j] for j in range(n)))
    lam = a + 6  # (1 - (q3)_n) / (n - 1)
    w_sq = [lam - q2j + bj for q2j, bj in zip(q12, b)]

    def over(nums: list[int]) -> RationalVec:
        return tuple(Fraction(x, den) for x in nums)

    h12 = tuple(Fraction(n - 1 - 2 * i, 2) for i in range(n))
    h3 = (Fraction(1, n),) * (n - 1) + (Fraction(1 - n, n),)
    lambda_w = Fraction(lam, den)
    q = (over(q12),) * 2 + ((lambda_w,) * (n - 1) + (Fraction(lam - 6 * n, den),),)
    return FamilyData(
        n, (h12, h12, h3), Fraction(1, n), Fraction(a, 6 * n), q, over(b), over(w_sq), lambda_w
    )


def _validate(data: FamilyData) -> None:
    """Every identity of the family data, checked exactly on its rational fields.

    The fields are read once, as integers over the lcm s of all their
    denominators, so no check trusts the denominator family_data chose and each
    compares integers; the Ness pairing on Gamma_n goes through
    exactlp._pairings. A failed check is a FamilyInvariantError naming it.
    """
    n = data.n
    vectors = (*data.h, *data.q, data.b, data.w_sq)
    scalars = (data.c, data.norm_h_sq, data.lambda_W)
    s = math.lcm(*(x.denominator for x in chain(scalars, *vectors)))
    c, norm_h_sq, lam = (x.numerator * (s // x.denominator) for x in scalars)
    h1, h2, h3, q1, q2, q3, b, w_sq = (
        [x.numerator * (s // x.denominator) for x in v] for v in vectors
    )
    q = (q1, q2, q3)
    d = [q2j - bj for q2j, bj in zip(q2, b)]
    q_norm_sq = sum(x * x for qi in q for x in qi)  # s^2 |q|^2

    checks = [
        ("norm_h_sq closed form", 6 * n * norm_h_sq == (n * n * (n * n - 1) + 6 * (n - 1)) * s),
        ("b_n = 0", b[n - 1] == 0),
        ("b_j > 0 for j < n", all(bj > 0 for bj in b[: n - 1])),
        ("sum b = (q3)_n", sum(b[: n - 1]) == q3[n - 1]),
        ("shift identity", all(
            q2[j] - b[j] == q1[n - 1 - j] - (b[j - 1] if j else 0) for j in range(n))),
        ("0 <= q2_j - b_j < lambda", all(0 <= dj < lam for dj in d)),
        ("w_sq = lambda - q2 + b >= 0",
         all(wj == lam - dj and wj >= 0 for wj, dj in zip(w_sq, d))),
        ("q components sum to 1", all(sum(qi) == s for qi in q)),
        ("q nonnegative non-increasing",
         all(all(x >= 0 for x in qi) and all(qi[i] >= qi[i + 1] for i in range(n - 1))
             for qi in q)),
        ("q1 = q2 strictly decreasing",
         q1 == q2 and all(q1[i] > q1[i + 1] for i in range(n - 1))),
        ("q3 flat then small", all(x == lam for x in q3[: n - 1]) and n * q3[n - 1] < s),
        ("<q, h> = c",
         sum(hx * qx for hi, qi in zip((h1, h2, h3), q) for hx, qx in zip(hi, qi)) == c * s),
        # q_norm_sq / s^2 = 3/n + (c/s)^2 / (norm_h_sq/s), times n s^2 norm_h_sq.
        ("|q|^2 = 3/n + c^2/|h|^2",
         n * norm_h_sq * q_norm_sq == 3 * s * s * norm_h_sq + n * s * c * c),
    ]
    # s q pairs to s |q|^2 with every vertex of Gamma_n.
    _, pairings, scaled_norm_sq = _pairings(gamma_support(n).mask, q, Fraction(q_norm_sq, s))
    checks.append(("<(e_i|e_j|e_k), q> constant on Gamma_n", (pairings == scaled_norm_sq).all()))

    failed = [name for name, ok in checks if not ok]
    if failed:
        raise FamilyInvariantError(f"n={n}: failed {failed}")


def halfspace_check(data: FamilyData) -> HalfspaceCert:
    """Exact check of <p, h> >= c over the downward closure of Gamma_n."""
    return outer_halfspace(gamma_support(data.n), data.h, data.c)


# --- JSON serialization (jsonio writes each Fraction as decimal strings) -----


def family_to_doc(data: FamilyData) -> dict:
    # The fields in their order (a dataclass sets them in __init__ in that order), then ness_lambda.
    return {**vars(data), "ness_lambda": data.ness_lambda}
