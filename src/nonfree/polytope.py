"""One-sided moment polytope certificates.

Supports are `SupportSet` masks of the tensor box. Outer bounds: a halfspace
containing the downward closure of the support contains the whole polytope.
Refutation: sampled supports of triangular basis changes whose convex hulls
must contain every polytope point. The point is read as exact rationals
whose components each sum to 1. A hull contains it outright when it is the
product of its components over the support; otherwise exactlp answers for
the support, and a hull excludes the point only through an exact Farkas
certificate, checked by the pairing kernel the halfspaces use. A "refuted"
verdict is sound up to the genericity of the sampled upper-triangular
change, which is reported.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactlp import _DIGIT_LIMIT, MAX_DIGITS, _pairings, in_convex_hull
from .moment import WeylPoint
from .supports import downward_closure
from .tensor import GroupTriple, SupportSet, Tensor3, apply, support

RATIONALIZE_DENOMINATOR = 10**12
DEFAULT_SAMPLES = 100
MAX_SAMPLES = 10**4  # most lower-triangular samples one refutation may draw
# A halfspace string's decimal exponent is at most MAX_DIGITS too: Fraction("1e-N")
# builds 10**N, in time superlinear in N.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


@dataclass(frozen=True)
class HalfspaceCert:
    """Certified outer bound <p, h> >= c on every polytope point, or its failure.

    `min_support_value` is the exact minimum of the pairings over the
    closure, a Fraction; `equality_set` holds the closure triples whose
    pairing equals c exactly.
    """

    min_support_value: Fraction
    valid: bool
    vertex_count: int
    equality_set: SupportSet


def rational(x) -> Fraction:
    """Fraction(x); a string whose decimal exponent is above MAX_DIGITS is a
    ValueError, raised before Fraction builds the power of ten."""
    if isinstance(x, str) and (exp := _EXPONENT.search(x)) and abs(int(exp[1])) > MAX_DIGITS:
        raise ValueError(f"the decimal exponent is above the limit of {MAX_DIGITS}")
    return Fraction(x)


def outer_halfspace(supp: SupportSet, h, c) -> HalfspaceCert:
    """Check <(e_i|e_j|e_k), h> >= c on the downward closure of supp.

    The boundary for outside values: h and c are read here as rationals,
    floats included, and exactlp._pairings puts them over one common
    denominator, so every pairing is an int and the minimum is reported as a
    Fraction. The closure is a mask, paired in C order, and the equality set
    is built as a mask. An empty support, a non-finite value, or a component
    of h whose length is not its side of the box, is a ValueError, and so is
    a D, a c or a minimum whose numerator or denominator has more than
    MAX_DIGITS digits, which no report could print.
    """
    closure = downward_closure(supp).mask
    if not closure.any():
        raise ValueError("outer halfspace check needs a nonempty support; the support is empty")
    try:
        h, c = tuple(tuple(map(rational, component)) for component in h), rational(c)
    except OverflowError as exc:  # Fraction(inf); Fraction(nan) is a ValueError
        raise ValueError(f"halfspace values must be finite: {exc}") from exc
    if (lengths := tuple(map(len, h))) != closure.shape:
        raise ValueError(f"halfspace lengths {lengths} do not match dims {closure.shape}")
    scale, values, bound = _pairings(closure, h, c)
    min_value = int(values.min())  # a Python int, also from an int64 array
    minimum = Fraction(min_value, scale)
    for name, value in (("bound c", Fraction(bound, scale)), ("minimum", minimum)):
        if max(abs(value.numerator), value.denominator) >= _DIGIT_LIMIT:
            raise ValueError(f"the halfspace's {name} has more than {MAX_DIGITS} digits")
    equality = np.zeros_like(closure)
    equality[closure] = values == bound
    return HalfspaceCert(
        min_support_value=minimum,
        valid=min_value >= bound,
        vertex_count=len(values),
        equality_set=SupportSet(equality),
    )


@dataclass(frozen=True)
class HullRefutation:
    outcome: str  # "refuted" | "inconclusive"
    refuting_sample: int | None
    samples_checked: int
    upper_triple: GroupTriple
    support_sizes: list[int]


def _draw(gen: np.random.Generator, dims, upper: bool, index: int, seed: int) -> GroupTriple:
    """A random unit-triangular triple for sample `index`, or a ValueError naming it.

    Each factor's strict upper (or lower) triangle is drawn as complex
    Gaussians, from n^2 real parts and then n^2 imaginary parts, in one draw
    for the triple: the stream of one (2, n, n) draw per factor.
    """
    values = gen.standard_normal(2 * sum(n * n for n in dims))
    factors, start = [], 0
    for n in dims:
        real, imag = values[start : start + 2 * n * n].reshape(2, n, n)
        start += 2 * n * n
        u = real + 1j * imag
        r = np.arange(n)
        u[r[:, None] >= r if upper else r[:, None] <= r] = 0.0
        u.flat[:: n + 1] = 1.0
        factors.append(u)
    try:
        return GroupTriple(*factors)
    except ValueError as exc:  # det 1, but the condition number grows with the side
        raise ValueError(
            f"the unit-triangular change drawn for sample {index} at seed {seed} is too "
            f"ill-conditioned at sides {dims} ({exc}); another seed may draw a usable change"
        ) from exc


def _rationalize(x: float) -> Fraction:
    """Fraction(x).limit_denominator(RATIONALIZE_DENOMINATOR), or 0 near 0:
    limit_denominator's continued fraction, run on x.as_integer_ratio() in ints."""
    if abs(x) <= 1e-12:
        return Fraction(0)
    n, den = x.as_integer_ratio()
    if den <= RATIONALIZE_DENOMINATOR:
        return Fraction(n, den)
    p0, q0, p1, q1, d = 0, 1, 1, 0, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > RATIONALIZE_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (RATIONALIZE_DENOMINATOR - q0) // q1
    # CPython 3.12's test for the nearer candidate: p1/q1 lies d/(q1*den) from x,
    # and (p0+k*p1)/(q0+k*q1) lies 1/(q1*(q0+k*q1)) from p1/q1, on x's other side.
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def _lcm_sum(values) -> tuple[int, int]:
    """(D times the sum of the rationals, D), summed in ints over D, the lcm of
    their denominators."""
    scale = math.lcm(*(x.denominator for x in values))
    return sum(x.numerator * (scale // x.denominator) for x in values), scale


def _rational_target(point: WeylPoint) -> list[Fraction]:
    """The point as rationals whose components, like every hull vertex, sum to exactly 1.

    The first (largest) coordinate of each component absorbs the rounding of the rest.
    """
    target = []
    for comp in point.components:
        rest = [_rationalize(x) for x in comp[1:]]
        total, scale = _lcm_sum(rest)
        target += [Fraction(scale - total, scale)] + rest
    return target


def _product_cells(dims, target: list[Fraction]):
    """The cells supp(p1) x supp(p2) x supp(p3) of the box, as an np.ix_
    index, when target has nonnegative components that each sum to 1; else None.

    Then target is, exactly, the convex combination of the vertices of a
    support with the product weights p1_i * p2_j * p3_k if every one of these
    cells is in the support.
    """
    n1, n2, _ = dims
    blocks = (target[:n1], target[n1 : n1 + n2], target[n1 + n2 :])
    if any(x < 0 for x in target) or any(total != scale for total, scale in map(_lcm_sum, blocks)):
        return None
    return np.ix_(*([i for i, x in enumerate(block) if x] for block in blocks))


def _product_witness(supp: SupportSet, cells) -> bool:
    """Whether the cells of `_product_cells` exist and all lie in supp."""
    return cells is not None and bool(supp.mask[cells].all())


def hull_refute(
    t: Tensor3, p: WeylPoint, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> HullRefutation:
    """Try to certify p outside the moment polytope of t.

    Draws one random unit-diagonal upper-triangular triple U and tests p for
    membership in conv supp(L U . t) for L ranging over the identity (sample
    0, which realizes the downward-closure outer bound) followed by `samples`
    random unit-diagonal lower-triangular triples. Any failed membership
    certifies refutation.

    For a nonzero t and generic U and L, L U . t has full support: the
    coefficient of L1_{i1} L2_{j1} L3_{k1} in every entry is (U . t)_{111}.
    Its hull is then the whole product of simplices, which contains p. So
    each membership is first tried as a product witness, p = sum of
    p1_i p2_j p3_k (e_i|e_j|e_k) over the support, whose cells are found
    once for p (`_product_cells`), and which answers only "in the hull";
    only when that fails does exactlp.in_convex_hull take the
    support, and its LP stays the one source of refutations. `samples`
    outside 0..MAX_SAMPLES, a negative seed, the zero tensor, whose polytope
    is empty, a p whose component lengths are not t.dims, or a drawn change
    too ill-conditioned to apply (see _draw), is a ValueError.
    """
    lengths = tuple(map(len, p.components))
    if lengths != t.dims:
        raise ValueError(f"point lengths {lengths} do not match tensor dims {t.dims}")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples = {samples} is above the limit of {MAX_SAMPLES}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not t.entries.any():
        raise ValueError("hull refutation is undefined for the zero tensor")
    gen = np.random.Generator(np.random.PCG64(seed))
    dims = t.dims
    u = _draw(gen, dims, True, 0, seed)
    ut = apply(u, t)

    target = _rational_target(p)
    cells = _product_cells(dims, target)
    sizes = []
    for index in range(samples + 1):
        moved = ut
        if index:  # each lower triple is drawn when its sample is reached
            moved = apply(_draw(gen, dims, False, index, seed), ut)
        supp = support(moved)
        sizes.append(len(supp))
        if not (_product_witness(supp, cells) or in_convex_hull(supp, target)):
            return HullRefutation("refuted", index, index + 1, u, sizes)
    return HullRefutation("inconclusive", None, samples + 1, u, sizes)
