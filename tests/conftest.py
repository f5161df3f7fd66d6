"""Shared helpers for the test suite: seeded random inputs, unitary and
permutation triples, supports from triples and support inclusion, and
reference oracles the library does not need: norms, flattening ranks,
off-diagonal mass, the Sjamaar inner points of a free support, hull
membership through scipy's linprog and the separation LP's matrix built
dense, unit-triangular draws one factor at a time, the refuter's rational
target and product cells summed as Fractions, the packed Newton step, the
family data computed one Fraction at a time, the tensor document
written as a dict of entry dicts and read one entry at a time, the pairings
summed over object arrays of Python ints (and a recorder of the dtypes the
library's kernel returns), and the row-deletion rank check one np.delete at
a time."""

from __future__ import annotations

import importlib
import math
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from nonfree.exactlp import _DIGIT_LIMIT, MAX_DIGITS, _pairings
from nonfree.family import FamilyData
from nonfree.moment import HermTriple, WeylPoint, _action, _adjoints, _flattenings, _grams, _products
from nonfree.polytope import RATIONALIZE_DENOMINATOR
from nonfree.reduction import RANK_TOL, ReductionError
from nonfree.supports import is_free_support, vertex_matrix
from nonfree.tensor import MAX_ENTRIES, GroupTriple, SupportSet, Tensor3, _flattening, _norm, support

FLOW_MODULE = importlib.import_module("nonfree.flow")  # the attribute nonfree.flow is the function

UNITARITY_TOL = 1e-12
RANK_CUTOFF = 1e-8  # relative singular-value cutoff for numerical ranks


class UnitaryTriple(GroupTriple):
    """GroupTriple whose factors are unitary within UNITARITY_TOL."""

    def __post_init__(self):
        super().__post_init__()
        for name, m in zip("abc", self.factors):
            defect = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
            if defect > UNITARITY_TOL:
                raise ValueError(f"factor {name} is not unitary (defect {defect:.3e})")


def support_set(dims, triples) -> SupportSet:
    """The support of the given 1-based triples, all inside the box dims."""
    mask = np.zeros(dims, dtype=bool)
    for i, j, k in triples:
        mask[i - 1, j - 1, k - 1] = True
    return SupportSet(mask)


def issubset(s: SupportSet, other: SupportSet) -> bool:
    """Whether every triple of s is in other, within the same box."""
    return s.dims == other.dims and not (s.mask & ~other.mask).any()


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_complex(gen: np.random.Generator, shape) -> np.ndarray:
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_tensor(gen: np.random.Generator, dims) -> Tensor3:
    return Tensor3(random_complex(gen, tuple(dims)))


def random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(gen, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary_triple(gen: np.random.Generator, dims) -> UnitaryTriple:
    return UnitaryTriple(*(random_unitary(gen, n) for n in dims))


def permutation_triple(dims, sigma, tau, rho) -> UnitaryTriple:
    """Permutation action sending e_{i,j,k} to e_{sigma(i),tau(j),rho(k)}.

    Permutations are given as 1-based images, e.g. sigma = [2, 1, 3].
    """

    def matrix(n, perm):
        m = np.zeros((n, n))
        for src, dst in enumerate(perm):
            m[dst - 1, src] = 1.0
        return m

    return UnitaryTriple(matrix(dims[0], sigma), matrix(dims[1], tau), matrix(dims[2], rho))


def random_group_triple(gen: np.random.Generator, dims) -> GroupTriple:
    # Shift away from singularity so the invertibility check passes reliably.
    mats = []
    for n in dims:
        m = random_complex(gen, (n, n)) + 3.0 * np.eye(n)
        mats.append(m)
    return GroupTriple(*mats)


def random_free_support(gen: np.random.Generator, dims, max_size: int | None = None) -> SupportSet:
    """Greedy sample of a free support inside the given box."""
    n1, n2, n3 = dims
    cells = [(i, j, k) for i in range(1, n1 + 1) for j in range(1, n2 + 1) for k in range(1, n3 + 1)]
    order = gen.permutation(len(cells))
    chosen: list[tuple[int, int, int]] = []
    budget = max_size if max_size is not None else len(cells)
    for idx in order:
        cand = cells[idx]
        if all(sum(a != b for a, b in zip(cand, got)) >= 2 for got in chosen):
            chosen.append(cand)
            if len(chosen) >= budget:
                break
    return support_set(dims, chosen)


def tensor_on_support(gen: np.random.Generator, supp: SupportSet) -> Tensor3:
    arr = np.zeros(supp.dims, dtype=np.complex128)
    for (i, j, k) in supp:
        arr[i - 1, j - 1, k - 1] = gen.standard_normal() + 1j * gen.standard_normal()
    return Tensor3(arr)


def norm(t: Tensor3) -> float:
    """|T|, with the bits of the library's own norm."""
    return _norm(t.entries)


def flattening_ranks(t: Tensor3) -> tuple[int, int, int]:
    """Numerical ranks of the three flattenings at the relative cutoff RANK_CUTOFF."""
    ranks = []
    for axis in range(3):
        s = np.linalg.svd(_flattening(t.entries, axis), compute_uv=False)
        ranks.append(int(np.sum(s > RANK_CUTOFF * s[0])) if s.size and s[0] > 0 else 0)
    return tuple(ranks)  # type: ignore[return-value]


def off_diagonal_mass(m: HermTriple) -> float:
    """Largest off-diagonal magnitude over all three components."""
    return max(float(np.abs(c - np.diag(np.diag(c))).max()) for c in m.components)


def inner_points(t: Tensor3) -> list[WeylPoint]:
    """The sorted marginals of the uniform distribution on the free support of t.

    For a free support every sorted marginal triple of a distribution on the
    support lies in the moment polytope (Sjamaar 1998, Franz 2002). Each
    marginal is exact: the triple counts of the mask per index of an axis,
    over the support size. An empty support has no point, and a support that
    is not free is a ValueError.
    """
    s = support(t)
    witness = is_free_support(s)
    if not witness.verdict:
        raise ValueError(f"support is not free: {witness.offending_pair}")
    size = len(s)
    if not size:
        return []
    components = []
    for axis in range(3):
        counts = s.mask.sum(axis=tuple(other for other in range(3) if other != axis))
        components.append(sorted((Fraction(c, size) for c in counts.tolist()), reverse=True))
    return [WeylPoint(*components)]


def _pairing(y: Sequence[Fraction], v: Sequence[Rational]) -> Fraction:
    return sum((yi * x for yi, x in zip(y, v) if x), Fraction(0))


def linprog_in_convex_hull(vertices: Sequence[Sequence[Rational]], point: Sequence[Rational]) -> bool:
    """The reference for exactlp.in_convex_hull, on a generic vertex list: its
    boxed separation LP solved by scipy.optimize.linprog(method="highs"), with
    the Farkas check as a Fraction dot product per vertex."""
    from scipy.optimize import linprog

    dim = len(point)
    a_ub = -np.hstack([np.array(vertices, dtype=float), np.ones((len(vertices), 1))])
    cost = [float(x) for x in point] + [1.0]
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(len(vertices)), bounds=(-1, 1), method="highs")
    if res.status != 0 or res.fun >= 0:
        return True
    y = [Fraction(x) for x in res.x[:dim]]
    return _pairing(y, point) >= min(_pairing(y, v) for v in vertices)


def dense_lp_columns(supp: SupportSet) -> tuple[np.ndarray, np.ndarray]:
    """The reference for the matrix exactlp.in_convex_hull passes: the column
    starts (num_col + 1 of them) and row indices of the nonzeros of the dense
    -[V | 1], V the vertex rows of supp, taken column by column."""
    vertices = vertex_matrix(supp)
    columns = -np.vstack([vertices.T.astype(float), np.ones(len(vertices))])
    nonzero = columns != 0
    return np.concatenate(([0], np.cumsum(nonzero.sum(axis=1)))), np.nonzero(nonzero)[1]


def unit_triangular_factors(gen: np.random.Generator, dims, upper: bool) -> list[np.ndarray]:
    """The reference for polytope._draw: per factor, one (2, n, n) draw of real
    and imaginary parts, masked to the strict triangle and added to the identity."""
    factors = []
    for n in dims:
        re, im = gen.standard_normal((2, n, n))
        mask = np.triu(np.ones((n, n)), 1) if upper else np.tril(np.ones((n, n)), -1)
        factors.append(np.eye(n, dtype=np.complex128) + (re + 1j * im) * mask)
    return factors


def fraction_rationalize(x: float) -> Fraction:
    """The reference for polytope._rationalize: Fraction's own limit_denominator."""
    return Fraction(0) if abs(x) <= 1e-12 else Fraction(x).limit_denominator(RATIONALIZE_DENOMINATOR)


def fraction_rational_target(point: WeylPoint) -> list[Fraction]:
    """The reference for polytope._rational_target: each leading coordinate is
    1 minus a Fraction sum of the rest."""
    target = []
    for comp in point.components:
        rest = [fraction_rationalize(x) for x in comp[1:]]
        target += [1 - sum(rest, Fraction(0))] + rest
    return target


def fraction_product_cells(dims, target: Sequence[Rational]):
    """The reference for polytope._product_cells, with Fraction sums: the
    nonzero positions of each component, or None when a coordinate is negative
    or a component does not sum to 1."""
    n1, n2, _ = dims
    blocks = (target[:n1], target[n1 : n1 + n2], target[n1 + n2 :])
    if any(x < 0 for x in target) or any(sum(block, Fraction(0)) != 1 for block in blocks):
        return None
    return [[i for i, x in enumerate(block) if x] for block in blocks]


def packed_newton_step(x: np.ndarray, mu, _flattenings_of_x):
    """The reference for flow._newton_step: the same preconditioned CG on
    triples packed into one vector in every layout, each Hessian product
    through `moment._action` and `moment._flattenings` of X x. It builds the
    flattenings of x itself and ignores the ones the flow hands on."""
    spectra = FLOW_MODULE._spectra(mu)
    dims = x.shape
    cubic = len(spectra) == 1
    w, v = spectra[0] if cubic else zip(*spectra)
    vh = _adjoints(v)
    ends = np.cumsum([n * n for n in dims])

    def blocks(p: np.ndarray):
        if cubic:
            return p.reshape(3, *dims[1:])
        return [p[e - n * n : e].reshape(n, n) for e, n in zip(ends, dims)]

    def packed(m) -> np.ndarray:
        return m.ravel() if isinstance(m, np.ndarray) else np.concatenate([b.ravel() for b in m])

    fx = _flattenings(x)
    fxh = _adjoints(fx)
    m = packed(mu)
    g = packed([2.0 * (u - np.eye(len(u)) / len(u)) for u in mu])
    weights = packed([2.0 * (u[:, None] + u) for u in w])

    def hessian(p: np.ndarray) -> np.ndarray:
        c = packed(_grams(_flattenings(_action(blocks(p), fx, dims)), fxh, 0.25))
        c -= (4.0 * np.vdot(m, p).real) * m
        return c

    def step(delta: float, tol: float) -> np.ndarray | None:
        scale = 1.0 / (weights + delta)

        def precondition(r: np.ndarray) -> np.ndarray:
            z = packed(_products(_products(vh, blocks(r)), v)) * scale
            return packed(_products(_products(v, blocks(z)), vh))

        step_x = np.zeros_like(g)
        r = -g
        z = precondition(r)
        p, rz = z, np.vdot(r, z).real
        for _ in range(len(g)):
            if _norm(r) <= tol:
                break
            q = hessian(p)
            q += delta * p
            alpha = rz / np.vdot(p, q).real
            step_x += alpha * p
            r -= alpha * q
            z = precondition(r)
            rz, previous = np.vdot(r, z).real, rz
            p = z + (rz / previous) * p
        if not np.isfinite(step_x).all():
            return None
        return FLOW_MODULE._geodesic_step(x, FLOW_MODULE._spectra(blocks(step_x)))

    return step


def fraction_family_data(n: int) -> FamilyData:
    """The reference for family.family_data: every field computed from h and c
    one Fraction operation at a time."""
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


def tensor_to_doc(t: Tensor3) -> dict:
    """The reference for jsonio's tensor writer: the document as a dict, one
    dict per entry of support(t, 0.0), in its sorted order."""
    supp = support(t, 0.0)
    entries = [
        {"i": i, "j": j, "k": k, "re": value.real, "im": value.imag}
        for (i, j, k), value in zip(supp, t.entries[supp.mask].tolist())
    ]
    return {"dims": list(t.dims), "entries": entries}


def loop_tensor_from_doc(doc: dict) -> Tensor3:
    """The reference for tensor.tensor_from_doc: every entry checked and
    stored one at a time, and the first bad one named."""
    if not (isinstance(doc, dict) and isinstance(doc.get("dims"), list)
            and isinstance(doc.get("entries", []), list)):
        raise ValueError("a tensor document is a JSON object with 'dims' and 'entries' lists")
    dims = tuple(doc["dims"])
    if not all(type(n) is int for n in dims):
        raise ValueError(f"bad dims {doc['dims']!r}: each must be a JSON integer "
                         "(true and false are not numbers)")
    if len(dims) != 3 or any(n < 1 for n in dims):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    if dims[0] * dims[1] * dims[2] > MAX_ENTRIES:
        raise ValueError(f"dims {dims} exceed the limit of {MAX_ENTRIES} entries")
    arr = np.zeros(dims, dtype=np.complex128)
    seen = set()
    for entry in doc.get("entries", []):
        try:
            i, j, k = entry["i"], entry["j"], entry["k"]
            re, im = entry.get("re", 0.0), entry.get("im", 0.0)
            if not (all(type(x) is int for x in (i, j, k))
                    and all(type(x) in (int, float) for x in (re, im))):
                raise TypeError("i, j and k must be JSON integers and re and im JSON numbers "
                                "(true and false are not numbers)")
            value = float(re) + 1j * float(im)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"bad entry {entry!r}: {exc}") from exc
        if not (1 <= i <= dims[0] and 1 <= j <= dims[1] and 1 <= k <= dims[2]):
            raise ValueError(f"index ({i},{j},{k}) outside dims {dims}")
        if (i, j, k) in seen:
            raise ValueError(f"duplicate entry at ({i},{j},{k})")
        seen.add((i, j, k))
        arr[i - 1, j - 1, k - 1] = value
    return Tensor3(arr)


def object_pairings(mask: np.ndarray, h, c) -> tuple[int, np.ndarray, int]:
    """The reference for exactlp._pairings: the same D, always over object
    arrays of Python ints."""
    scale = 1
    for x in (c, *h[0], *h[1], *h[2]):
        scale = math.lcm(scale, int(x.denominator))
        if scale >= _DIGIT_LIMIT:
            raise ValueError(f"the halfspace's common denominator has more than {MAX_DIGITS} digits")

    def scaled(x) -> int:
        return int(x.numerator) * (scale // int(x.denominator))

    h1, h2, h3 = (np.array([scaled(x) for x in component], dtype=object) for component in h)
    i, j, k = np.nonzero(mask)
    return scale, h1[i] + h2[j] + h3[k], scaled(c)


def recording_pairings(monkeypatch, module) -> list:
    """Wrap exactlp._pairings as `module` sees it; returns the list of the
    dtypes of the pairings it computes."""
    dtypes = []

    def recording(mask, h, c):
        scale, values, bound = _pairings(mask, h, c)
        dtypes.append(values.dtype)
        return scale, values, bound

    monkeypatch.setattr(module, "_pairings", recording)
    return dtypes


def delete_loop_rank_check(w: np.ndarray) -> None:
    """The reference for reduction._check_row_deletion_rank: one np.delete and
    one svd per deleted row, stopping at the first dependent one."""
    for drop in range(w.shape[0]):
        sv = np.linalg.svd(np.delete(w, drop, axis=0), compute_uv=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            raise ReductionError(f"rows of W without row {drop + 1} are dependent")
