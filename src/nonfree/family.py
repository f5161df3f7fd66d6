"""Exact rational data of the staircase family: the support Gamma_n, the
halfspace (h, c), the target spectrum q, and the coefficient data b, w^2.

Everything in this module is computed over the rationals and every identity
is checked without tolerance; square roots are taken only when tensors are
actually built (see construct).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

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
    def d(self) -> RationalVec:
        """Diagonal entries q2_j - b_j of the Gram matrix W W*."""
        return tuple(q2j - bj for q2j, bj in zip(self.q[1], self.b))

    @property
    def q_norm_sq(self) -> Fraction:
        return sum((x * x for qi in self.q for x in qi), Fraction(0))

    @property
    def ness_lambda(self) -> Fraction:
        """Constant weight pairing over Gamma_n, equal to 3/n + c^2/|h|^2."""
        return Fraction(3, self.n) + self.c * self.c / self.norm_h_sq


def family_data(n: int) -> FamilyData:
    if n < 2:
        raise ValueError("family_data requires n >= 2")
    half = Fraction(n - 1, 2)
    h12 = tuple(half - i for i in range(n))
    h3 = tuple(Fraction(1, n) - (1 if i == n - 1 else 0) for i in range(n))
    h = (h12, h12, h3)
    c = Fraction(1, n)
    norm_h_sq = 2 * sum(x * x for x in h12) + sum(x * x for x in h3)

    u = Fraction(1, n)
    q = tuple(tuple(u + c * x / norm_h_sq for x in hi) for hi in h)
    q1, q2, q3 = q

    b = []
    acc = Fraction(0)
    for j in range(1, n + 1):
        acc += q2[j - 1] - q1[n - j]
        b.append(acc)
    b = tuple(b)

    lambda_w = (1 - q3[n - 1]) / (n - 1)
    w_sq = tuple(lambda_w - q2j + bj for q2j, bj in zip(q2, b))

    return FamilyData(n, h, c, norm_h_sq, q, b, w_sq, lambda_w)


def _validate(data: FamilyData) -> None:
    n = data.n
    q1, q2, q3 = data.q
    b, w_sq = data.b, data.w_sq
    q_norm_sq = data.q_norm_sq
    checks: list[tuple[str, bool]] = []

    checks.append(("norm_h_sq closed form",
                   data.norm_h_sq == Fraction(n * (n * n - 1), 6) + Fraction(n - 1, n)))
    checks.append(("b_n = 0", b[n - 1] == 0))
    checks.append(("b_j > 0 for j < n", all(bj > 0 for bj in b[: n - 1])))
    checks.append(("sum b = (q3)_n", sum(b[: n - 1], Fraction(0)) == q3[n - 1]))
    shift_ok = all(
        q2[j - 1] - b[j - 1] == q1[n - j] - (b[j - 2] if j >= 2 else Fraction(0))
        for j in range(1, n + 1)
    )
    checks.append(("shift identity", shift_ok))
    checks.append(("0 <= q2_j - b_j < lambda",
                   all(0 <= dj < data.lambda_W for dj in data.d)))
    checks.append(("w_sq = lambda - q2 + b >= 0",
                   all(wj == data.lambda_W - dj and wj >= 0 for wj, dj in zip(w_sq, data.d))))
    checks.append(("q components sum to 1",
                   all(sum(qi, Fraction(0)) == 1 for qi in data.q)))
    checks.append(("q nonnegative non-increasing",
                   all(all(x >= 0 for x in qi)
                       and all(qi[i] >= qi[i + 1] for i in range(n - 1))
                       for qi in data.q)))
    checks.append(("q1 = q2 strictly decreasing",
                   q1 == q2 and all(q1[i] > q1[i + 1] for i in range(n - 1))))
    checks.append(("q3 flat then small",
                   all(x == data.lambda_W for x in q3[: n - 1]) and q3[n - 1] < Fraction(1, n)))
    checks.append(("<q, h> = c", sum(
        (hx * qx for hi, qi in zip(data.h, data.q) for hx, qx in zip(hi, qi)),
        Fraction(0)) == data.c))
    checks.append(("|q|^2 = 3/n + c^2/|h|^2", q_norm_sq == data.ness_lambda))
    _, pairings, scaled_norm_sq = _pairings(gamma_support(n).mask, data.q, q_norm_sq)
    checks.append(("<(e_i|e_j|e_k), q> constant on Gamma_n", (pairings == scaled_norm_sq).all()))

    failed = [name for name, ok in checks if not ok]
    if failed:
        raise FamilyInvariantError(f"n={n}: failed {failed}")


def halfspace_check(data: FamilyData) -> HalfspaceCert:
    """Exact check of <p, h> >= c over the downward closure of Gamma_n."""
    return outer_halfspace(gamma_support(data.n), data.h, data.c)


# --- JSON serialization (jsonio writes each Fraction as decimal strings) -----


def family_to_doc(data: FamilyData) -> dict:
    return {**asdict(data), "ness_lambda": data.ness_lambda}
