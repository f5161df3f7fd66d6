from __future__ import annotations

import re
from fractions import Fraction as F
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    dense_lp_columns,
    fraction_product_cells,
    fraction_rational_target,
    inner_points,
    issubset,
    linprog_in_convex_hull,
    norm,
    object_pairings,
    random_complex,
    random_free_support,
    random_tensor,
    recording_pairings,
    rng,
    support_set,
    tensor_on_support,
    unit_triangular_factors,
)
from nonfree.construct import build_family_tensor, s0_tensor
from nonfree.exactlp import MAX_DIGITS, _pairings, in_convex_hull
from nonfree.family import family_data, gamma_support
from nonfree.moment import WeylPoint, moment_map, spec_point
from nonfree.named import mu_diagonals, named_tensor
from nonfree.polytope import (
    RATIONALIZE_DENOMINATOR,
    _draw,
    _product_cells,
    _product_witness,
    _rational_target,
    _rationalize,
    hull_refute,
    outer_halfspace,
)
from nonfree.supports import downward_closure
from nonfree.tensor import (
    GroupTriple,
    SupportSet,
    Tensor3,
    apply,
    from_coefficients,
    support,
)


def _box_point(a, b):
    """The point (a, 1 - a | b, 1 - b | 1) of a 2 x 2 x 1 box: its first
    coordinates a and b range over the unit square of the four box triples."""
    return [F(a), 1 - F(a), F(b), 1 - F(b), F(1)]


def test_exact_hull_membership_basics():
    box = support_set((2, 2, 1), _cells((2, 2, 1)))
    assert in_convex_hull(box, _box_point(F(1, 2), F(1, 2)))
    assert in_convex_hull(box, _box_point(1, 1))  # the vertex of the triple (1, 1, 1)
    assert not in_convex_hull(box, _box_point(F(3, 2), F(1, 2)))
    assert not in_convex_hull(box, _box_point(F(1, 2), F(-1, 100)))
    with pytest.raises(ValueError):  # no vertices, so no Farkas certificate either way
        in_convex_hull(SupportSet(np.zeros((2, 2, 1), dtype=bool)), _box_point(F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):  # a point of other length than the columns 2 + 2 + 1
        in_convex_hull(box, _box_point(F(1, 2), F(1, 2))[:4])


def test_exact_hull_membership_boundary_point():
    # The segment of the triples (1, 1, 1) and (2, 2, 1) holds the points with a = b.
    segment = support_set((2, 2, 1), [(1, 1, 1), (2, 2, 1)])
    assert in_convex_hull(segment, _box_point(F(1, 2), F(1, 2)))
    assert not in_convex_hull(segment, _box_point(F(1, 2), F(51, 100)))
    # Weights of the third component sum to 101/100, so no convex combination reaches it.
    assert not in_convex_hull(segment, _box_point(F(1, 2), F(1, 2))[:4] + [F(101, 100)])


def test_a_refutation_is_exact_at_any_denominator_of_the_point():
    # The point's common denominator has more digits than a halfspace may have; the
    # Farkas check still compares D * y.p with the pairings over the float y's D.
    a = F(1, 3) + F(1, 10 ** (MAX_DIGITS + 100) + 1)
    triangle = support_set((2, 2, 1), [(1, 1, 1), (2, 1, 1), (1, 2, 1)])
    # The hull is a + b >= 1 in the unit square.
    assert not in_convex_hull(triangle, _box_point(a, F(1, 2)))
    assert in_convex_hull(triangle, _box_point(a, 1 - a))  # on its boundary


def test_outer_halfspace_family_is_tight():
    for n in (3, 4, 6):
        data = family_data(n)
        cert = outer_halfspace(support(build_family_tensor(family_data(n))), data.h, data.c)
        assert cert.valid
        assert cert.min_support_value == data.c  # exact rationals throughout


def test_outer_halfspace_agrees_with_ness_certificate():
    # The halfspace is tight exactly where the Ness pairing is attained, and
    # the minimal mu-norm squared equals the Ness lambda.
    from nonfree.flow import ness_minimality

    for n in (3, 5):
        data = family_data(n)
        t = build_family_tensor(family_data(n))
        cert = outer_halfspace(support(t), data.h, data.c)
        ness = ness_minimality(t)
        assert cert.valid and cert.min_support_value == data.c
        assert ness.lam == pytest.approx(float(data.ness_lambda), abs=1e-12)


def test_outer_halfspace_strengthened_fails():
    data = family_data(3)
    cert = outer_halfspace(support(build_family_tensor(family_data(3))), data.h, data.c + 1)
    assert not cert.valid


def test_outer_halfspace_trivial_zero_halfspace():
    t = from_coefficients((3, 3, 3), {(1, 1, 1): 1.0})
    zero = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    cert = outer_halfspace(support(t), zero, 0)
    assert cert.valid
    assert cert.equality_set == downward_closure(support(t))


def test_outer_halfspace_compares_a_float_h_exactly():
    # The closure of {(2, 1, 1)} pairs to the float 1/3 at (1, 1, 1) and to 0 at (2, 1, 1).
    # That float is not the rational 1/3, so only the float bound is attained there.
    supp = support_set((2, 2, 2), [(2, 1, 1)])
    h = ((1 / 3, 0.0), (0.0, 0.0), (0.0, 0.0))
    cert = outer_halfspace(supp, h, F(1, 3))
    assert cert.min_support_value == 0 and isinstance(cert.min_support_value, F)
    assert not cert.valid and cert.vertex_count == 2
    assert len(cert.equality_set) == 0
    cert = outer_halfspace(supp, h, 1 / 3)
    assert not cert.valid
    assert cert.equality_set == support_set((2, 2, 2), [(1, 1, 1)])


@pytest.mark.parametrize("lengths", [(2, 3, 2), (2, 1, 2), (2, 2)], ids=["long", "short", "two"])
def test_outer_halfspace_rejects_h_of_other_lengths(lengths):
    h = tuple((0,) * n for n in lengths)
    message = f"halfspace lengths {lengths} do not match dims (2, 2, 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        outer_halfspace(support_set((2, 2, 2), [(1, 1, 1)]), h, 0)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("where", ["h", "c"])
def test_outer_halfspace_rejects_non_finite_values(where, value):
    h = ((value if where == "h" else 0, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError, match="finite|NaN"):
        outer_halfspace(support_set((2, 2, 2), [(1, 1, 1)]), h, value if where == "c" else 0)


def test_outer_halfspace_exact_path_matches_a_fraction_reference():
    # Non-cubic dims, h over mixed coprime denominators, and c below the minimum,
    # at it, and at a higher attained level, whose equality set is not the minimal
    # one. Float values of h and c are compared as the rationals Fraction(x).
    for kind in ("fraction", "float", "mixed"):
        _check_outer_halfspace_against_a_fraction_reference(rng(41), kind)


def _check_outer_halfspace_against_a_fraction_reference(gen, kind):
    denominators = (1, 2, 3, 5, 7, 11, 13)
    higher_levels = 0
    for _ in range(60):
        dims = tuple(int(x) for x in gen.integers(1, 6, size=3))
        cells = [(i, j, k) for i in range(1, dims[0] + 1) for j in range(1, dims[1] + 1)
                 for k in range(1, dims[2] + 1)]
        pick = gen.random(len(cells)) < 0.15
        supp = support_set(dims, [c for c, take in zip(cells, pick) if take] or [cells[-1]])
        h = tuple(
            tuple(F(int(gen.integers(-20, 21)), int(gen.choice(denominators))) for _ in range(n))
            for n in dims
        )
        if kind != "fraction":  # floats, all of h or a random half of its values
            h = tuple(tuple(float(x) if kind == "float" or gen.random() < 0.5 else x
                            for x in component) for component in h)
        pairings = {
            (i, j, k): F(h[0][i - 1]) + F(h[1][j - 1]) + F(h[2][k - 1])
            for (i, j, k) in cells
            if any(i <= a and j <= b and k <= c for (a, b, c) in supp)
        }
        levels = sorted(set(pairings.values()))
        low = levels[0]
        bounds = [low - F(1, 17), low]
        if len(levels) > 1:
            bounds.append(levels[1])
            higher_levels += 1
        if kind != "fraction":  # the float nearest each bound, which the pairings may miss
            bounds += [float(c) for c in bounds]
        for c in bounds:
            cert = outer_halfspace(supp, h, c)
            assert isinstance(cert.min_support_value, F) and cert.min_support_value == low
            assert cert.valid == (F(c) <= low)
            assert cert.vertex_count == len(pairings)
            assert cert.equality_set.dims == dims
            assert set(cert.equality_set) == {t for t, v in pairings.items() if v == F(c)}
    assert higher_levels > 40


@pytest.mark.parametrize("factor, dtype", [(1, np.int64), (10**20, object)], ids=["int64", "object"])
def test_the_halfspace_minimum_is_a_fraction_of_python_ints(monkeypatch, factor, dtype):
    import nonfree.polytope as polytope

    dtypes = recording_pairings(monkeypatch, polytope)
    data = family_data(3)
    h = tuple(tuple(x * factor for x in component) for component in data.h)
    cert = outer_halfspace(gamma_support(3), h, data.c * factor)
    assert dtypes == [dtype]
    assert cert.valid is True and cert.min_support_value == data.c * factor
    assert type(cert.min_support_value.numerator) is int
    assert type(cert.min_support_value.denominator) is int


def test_a_small_denominator_functional_refutes_a_point_of_large_denominators(monkeypatch):
    # The float y of the Farkas check is of small D here, so its pairings are int64,
    # while y.p has the denominator 3**50 > 2**63: the comparison must be in Python ints.
    import nonfree.exactlp as exactlp

    dtypes = recording_pairings(monkeypatch, exactlp)
    quarter = F(3**50 // 4, 3**50)
    vertex = support_set((2, 2, 1), [(1, 1, 1)])
    point = _box_point(1 - quarter, 1)
    assert in_convex_hull(vertex, point) is False
    assert linprog_in_convex_hull([[1, 0, 1, 0, 1]], point) is False
    assert dtypes == [np.int64]


_INT64_SWITCH = 2**62


@st.composite
def _pairing_inputs(draw):
    """A mask on a box of sides 1-4 and rationals h and c whose D h_L lie on both
    sides of the int64 switch, or past any int64 for c."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)))
    size = dims[0] * dims[1] * dims[2]
    mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(dims)
    bits = draw(st.sampled_from([4, 40, 58, 60, 61, 62, 63, 64, 100]))
    denominators = st.integers(1, 12) | st.sampled_from([2**20, 3**40, 10**30])
    value = st.builds(F, st.integers(-(2**bits), 2**bits), denominators)
    h = tuple(tuple(draw(value) for _ in range(n)) for n in dims)
    c = draw(value | st.sampled_from([F(10**40), F(-(10**40), 7), F(2**63), F(-(2**63) - 1)]))
    return mask, h, c


_ONE = np.ones((1, 1, 1), dtype=bool)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(args=_pairing_inputs())
@example(args=(_ONE, ((F(1),), (F(2),), (F(3),)), F(10**40)))  # one-entry components
@example(args=(_ONE, ((F(2**61),), (F(2**60),), (F(2**60) - 1,)), F(0)))  # just under 2**62
@example(args=(_ONE, ((F(2**61),), (F(2**60),), (F(2**60),)), F(0)))  # at it
@example(args=(_ONE, ((F(-(2**61)),), (F(-(2**60)),), (F(-(2**60)),)), F(0)))
@example(args=(np.ones((2, 1, 1), dtype=bool), ((F(1, 10**4299), F(-3)), (F(0),), (F(1, 7),)),
               F(5, 10**4299)))  # a D of 4 300 digits, small pairings
@example(args=(_ONE, ((F(1, 7 * 10**4299),), (F(1, 9 * 10**4299),), (F(0),)), F(0)))  # D past it
def test_the_pairings_are_those_of_the_object_arrays(args):
    mask, h, c = args
    try:
        want = object_pairings(mask, h, c)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _pairings(mask, h, c)
        return
    scale, values, bound = _pairings(mask, h, c)
    assert (scale, bound) == (want[0], want[2])
    assert type(scale) is int and type(bound) is int
    assert values.tolist() == want[1].tolist()
    assert (values == bound).tolist() == [v == bound for v in want[1].tolist()]  # c past int64 too
    below = sum(max(abs(x.numerator * scale // x.denominator) for x in v) for v in h) < _INT64_SWITCH
    assert values.dtype == (np.int64 if below else object)
    if len(values):
        assert int(values.min()) == min(want[1].tolist())


def free_moment_twin() -> Tensor3:
    """Free-support tensor whose moment map image coincides with that of
    ness_form("T2"); shows the family spectrum also arises from a free tensor."""
    return from_coefficients(
        (3, 3, 3),
        {
            (1, 1, 1): sqrt(5 / 14),
            (1, 2, 2): sqrt(1 / 21),
            (2, 1, 2): sqrt(1 / 21),
            (2, 2, 3): sqrt(2 / 7),
            (3, 3, 2): sqrt(11 / 42),
        },
    )


def test_inner_points_of_w_state():
    t = from_coefficients((2, 2, 2), {(1, 1, 2): 1.0, (1, 2, 1): 1.0, (2, 1, 1): 1.0})
    (point,) = inner_points(t)
    assert point.components == ((2 / 3, 1 / 3), (2 / 3, 1 / 3), (2 / 3, 1 / 3))


def test_inner_points_of_diagonal_tensor():
    n = 3
    t = from_coefficients((n, n, n), {(i, i, i): 1.0 for i in range(1, n + 1)})
    (point,) = inner_points(t)
    assert point.components == ((1 / 3,) * 3,) * 3


def test_inner_points_of_free_twin_and_its_moment_image():
    twin = free_moment_twin()
    (point,) = inner_points(twin)
    first = (2 / 5, 2 / 5, 1 / 5)
    assert point.components == (first, first, (3 / 5, 1 / 5, 1 / 5))
    mu = moment_map(twin)
    for comp, expected in zip(mu.components, mu_diagonals("T2")):
        np.testing.assert_allclose(np.diag(comp).real, [float(x) for x in expected], atol=1e-12)


def test_inner_points_reject_non_free_tensor():
    with pytest.raises(ValueError):
        inner_points(build_family_tensor(family_data(3)))


def test_hull_refute_uniform_point_on_family_tensor():
    u3 = (1 / 3, 1 / 3, 1 / 3)
    result = hull_refute(build_family_tensor(family_data(3)), WeylPoint(u3, u3, u3), samples=10, seed=0)
    assert result.outcome == "refuted"
    assert result.refuting_sample == 0  # the identity sample realizes the outer bound


def test_a_point_refuted_at_sample_0_draws_no_lower_triple(monkeypatch):
    import nonfree.polytope as polytope

    built = []

    class Counting(GroupTriple):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(polytope, "GroupTriple", Counting)
    u3 = (1 / 3, 1 / 3, 1 / 3)
    result = hull_refute(build_family_tensor(family_data(3)), WeylPoint(u3, u3, u3))
    assert result.outcome == "refuted" and result.refuting_sample == 0
    assert len(built) == 1  # the upper triple U; sample 0 is U . t itself


def test_hull_refute_rejects_a_point_of_other_lengths():
    # Uniform components of lengths (3, 2, 4) on a 2 x 3 x 4 tensor came back refuted.
    t = random_tensor(rng(3), (2, 3, 4))
    assert hull_refute(t, WeylPoint(*([1 / n] * n for n in (2, 3, 4))), samples=2).outcome != "refuted"
    message = "point lengths (3, 2, 4) do not match tensor dims (2, 3, 4)"
    with pytest.raises(ValueError, match=re.escape(message)):
        hull_refute(t, WeylPoint(*([1 / n] * n for n in (3, 2, 4))), samples=2)


def test_hull_refute_moment_point_is_inconclusive():
    t = build_family_tensor(family_data(3))
    result = hull_refute(t, spec_point(moment_map(t)), samples=10, seed=0)
    assert result.outcome == "inconclusive"


def test_hull_refute_rank_one_vertex_is_inconclusive():
    t = from_coefficients((3, 3, 3), {(1, 1, 1): 1.0})
    p = WeylPoint((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert hull_refute(t, p, samples=10, seed=1).outcome == "inconclusive"


def test_float_points_inside_a_full_support_are_never_refuted():
    # Every hull of a full 3x3x3 support is the whole product of simplices.
    # Rounding each coordinate on its own left components summing to 1 +- eps,
    # which the exact check then refuted.
    gen = rng(73)
    t = random_tensor(gen, (3, 3, 3))
    for seed in range(50):
        p = WeylPoint(*(sorted(gen.dirichlet(np.ones(3)), reverse=True) for _ in range(3)))
        result = hull_refute(t, p, samples=0, seed=seed)
        assert result.outcome == "inconclusive"
        assert result.support_sizes == [27]
        # The product witness answers the refuter above, so ask the LP directly too.
        assert in_convex_hull(support_set((3, 3, 3), _cells((3, 3, 3))), _rational_target(p))


def _cells(dims):
    n1, n2, n3 = dims
    return [(i, j, k) for i in range(1, n1 + 1) for j in range(1, n2 + 1) for k in range(1, n3 + 1)]


def _vertices(dims, cells):
    """The hull vertices (e_i|e_j|e_k) of the cells, built apart from supports.vertex_matrix."""
    return [
        [int(a == i) for a in range(1, dims[0] + 1)]
        + [int(b == j) for b in range(1, dims[1] + 1)]
        + [int(c == k) for c in range(1, dims[2] + 1)]
        for (i, j, k) in cells
    ]


def _random_block(gen, n):
    """Exact weights summing to 1: a random prefix is nonzero, and now and then
    the rest outweighs 1, so that the leading weight is negative."""
    nonzero = int(gen.integers(1, n + 1))
    rest = [F(int(gen.integers(1, 6)), 7) for _ in range(nonzero - 1)]
    if rest and gen.random() < 0.2:
        rest[0] += 1
    return [1 - sum(rest, F(0))] + rest + [F(0)] * (n - nonzero)


def _random_case(gen, dims):
    """Random cells that keep (1, 1, 1), and a target of `_random_block`s."""
    box = _cells(dims)
    keep = gen.random(len(box)) < gen.choice([0.5, 0.8, 1.0])
    keep[0] = True
    return [c for c, take in zip(box, keep) if take], [x for n in dims for x in _random_block(gen, n)]


def test_the_product_witness_agrees_with_the_lp():
    gen = rng(75)
    fired = refuted = 0
    for dims in [(2, 3, 3), (3, 3, 3)] * 60:
        cells, target = _random_case(gen, dims)
        supp = support_set(dims, cells)
        lp = in_convex_hull(supp, target)
        if _product_witness(supp, _product_cells(dims, target)):
            fired += 1
            assert lp
        refuted += not lp
    assert fired > 20 and refuted > 20
    # Weights summing to 1/2 in one component are no convex combination, full support or not.
    dims = (2, 3, 3)
    half = [F(1, 4), F(1, 4)] + [F(1, 3)] * 6
    assert _product_cells(dims, half) is None
    assert not in_convex_hull(support_set(dims, _cells(dims)), half)


def test_the_product_cells_are_those_of_the_fraction_sums():
    gen = rng(77)
    for dims in [(1, 2, 3), (2, 3, 3), (3, 3, 3), (4, 2, 5)] * 40:
        _, target = _random_case(gen, dims)
        if gen.random() < 0.3:  # a component that sums to 1 + 1/7, or to 1 - 1/7
            target[int(gen.integers(len(target)))] += F(int(gen.choice([-1, 1])), 7)
        cells = _product_cells(dims, target)
        want = fraction_product_cells(dims, target)
        assert (None if cells is None else [a.ravel().tolist() for a in cells]) == want


_NEAR_CUTOFF = [float(np.nextafter(1e-12, 1.0)), 1e-12 * (1 + 2**-40), 1.0000001e-12, 2e-12]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(x=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(lambda a, b: a / b, st.integers(-10**6, 10**6), st.integers(1, 60)),
    st.floats(min_value=1e12, max_value=1e308),
    st.floats(min_value=1e-12, max_value=1e-11),
    st.sampled_from(_NEAR_CUTOFF),
).flatmap(lambda x: st.sampled_from([x, -x])))
@example(x=1 / 3)
@example(x=-2 / 7)
@example(x=0.1)
@example(x=1e-12)  # at the cutoff: 0
@example(x=1.7976931348623157e308)
@example(x=5e-324)
@example(x=float(2**53 + 1))
def test_rationalize_is_limit_denominator(x):
    got = _rationalize(x)
    assert type(got) is F
    if abs(x) <= 1e-12:
        assert got == 0
    else:
        assert got == F(x).limit_denominator(RATIONALIZE_DENOMINATOR)


def _weyl_components():
    """A non-increasing component of 1 to 5 coordinates: integer weights over
    their sum, small ones (a/b with a small b) or large ones, or a random split of 1."""
    small = st.lists(st.integers(0, 12), min_size=1, max_size=5).filter(any)
    weights = st.lists(st.integers(0, 10**6), min_size=1, max_size=5).filter(any)
    floats = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5).filter(
        lambda v: sum(v) > 1e-6
    )
    return st.one_of(weights, small, floats).map(lambda v: sorted((x / sum(v) for x in v), reverse=True))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(components=st.tuples(_weyl_components(), _weyl_components(), _weyl_components()))
@example(components=([1 / 9] * 9, [1.0], [0.5, 0.5]))
@example(components=([0.7, 0.3 - 1e-13, 1e-13], [1.0], [1 / 3] * 3))
def test_the_rational_target_and_its_cells_are_those_of_the_fraction_sums(components):
    try:
        p = WeylPoint(*components)
    except ValueError:  # a float sum more than WEYL_TOL off 1
        return
    target = _rational_target(p)
    assert target == fraction_rational_target(p)
    assert all(type(x) is F for x in target)
    dims = tuple(map(len, components))
    cells = _product_cells(dims, target)
    assert cells is not None
    assert [a.ravel().tolist() for a in cells] == fraction_product_cells(dims, target)


def _latin_square_cases(gen, n):
    """The closure of a seeded Latin square on n^3 with the marginals of random
    weights on the square, sorted down and up."""
    row, col, sym = (gen.permutation(n) for _ in range(3))
    cells = [(i + 1, j + 1, int(sym[(row[i] + col[j]) % n]) + 1) for i in range(n) for j in range(n)]
    closure = list(downward_closure(support_set((n, n, n), cells)))
    weights = [int(w) for w in gen.integers(1, 6, len(cells))]
    total = sum(weights)
    marginals = []
    for axis in range(3):
        sums = [0] * n
        for cell, w in zip(cells, weights):
            sums[cell[axis] - 1] += w
        marginals.append([F(x, total) for x in sums])
    for reverse in (True, False):
        yield (n, n, n), closure, [x for m in marginals for x in sorted(m, reverse=reverse)]


def _oracle_cases():
    """Seeded (dims, cells, point) cases with refuted and feasible answers."""
    gen = rng(77)
    for n in (3, 4) * 4:
        yield from _latin_square_cases(gen, n)
    for t in (named_tensor("T2"), named_tensor("T5"), s0_tensor(3), s0_tensor(4)):
        uniform = [F(1, n) for n in t.dims for _ in range(n)]
        for supp in (support(t), downward_closure(support(t))):
            yield t.dims, list(supp), uniform
    for n in (3, 4):
        data = family_data(n)
        supp = support(build_family_tensor(data))
        yield supp.dims, list(downward_closure(supp)), [x for q in data.q for x in q]
    gen = rng(75)
    for dims in [(2, 3, 3), (3, 3, 3)] * 20:
        cells, target = _random_case(gen, dims)
        yield dims, cells, target
    dims = (9, 9, 9)
    yield dims, [c for c in _cells(dims) if c[2] < 9], [F(1, 9)] * 27


def test_the_direct_highs_call_agrees_with_linprog():
    # The support goes to in_convex_hull, the rows of its cells to the vertex-list oracle.
    answers = [
        (in_convex_hull(support_set(dims, cells), point),
         linprog_in_convex_hull(_vertices(dims, cells), point))
        for dims, cells, point in _oracle_cases()
    ]
    assert len(answers) == 67
    assert [new for new, _ in answers] == [old for _, old in answers]
    assert 20 < sum(new for new, _ in answers) < len(answers) - 20


def test_full_supports_are_answered_without_an_lp(monkeypatch):
    import nonfree.polytope as polytope

    def no_lp(supp, point):
        raise AssertionError("the product witness should have answered")

    monkeypatch.setattr(polytope, "in_convex_hull", no_lp)
    u3 = (1 / 3, 1 / 3, 1 / 3)
    result = hull_refute(random_tensor(rng(76), (3, 3, 3)), WeylPoint(u3, u3, u3), samples=5)
    assert result.outcome == "inconclusive"
    assert result.samples_checked == 6
    assert result.support_sizes == [27] * 6


def test_the_uniform_point_on_t2_needs_exactly_one_lp(monkeypatch):
    import nonfree.polytope as polytope

    calls = []

    def recording(supp, point):
        calls.append(len(supp))
        return in_convex_hull(supp, point)

    monkeypatch.setattr(polytope, "in_convex_hull", recording)
    u3 = (1 / 3, 1 / 3, 1 / 3)
    result = hull_refute(named_tensor("T2"), WeylPoint(u3, u3, u3))
    assert result.outcome == "refuted" and result.refuting_sample == 0
    assert len(calls) == 1


def test_refutation_above_600_vertices_is_exact(monkeypatch):
    import nonfree.polytope as polytope

    answers = []

    def recording(supp, point):
        answers.append((len(supp), in_convex_hull(supp, point)))
        return answers[-1][1]

    monkeypatch.setattr(polytope, "in_convex_hull", recording)
    arr = random_complex(rng(74), (9, 9, 9))
    arr[:, :, 8] = 0  # 648 vertices, none with weight on the last third-factor index
    u9 = (1 / 9,) * 9
    result = hull_refute(Tensor3(arr), WeylPoint(u9, u9, u9), samples=10, seed=0)
    assert result.outcome == "refuted" and result.refuting_sample == 0
    assert answers == [(648, False)]


def _recording_solver(monkeypatch, drop_integrality=False):
    """Swap HiGHS's solver class for one that records the arguments of each
    passModel and the matrix HiGHS then holds; with drop_integrality, it passes
    an empty integrality array instead."""
    from scipy.optimize._highspy import _core as highs

    passed = []

    class Recording(highs._Highs):
        def passModel(self, *args):
            if drop_integrality:
                args = args[:-1] + (np.zeros(0, dtype=np.int32),)
            status = super().passModel(*args)
            matrix = self.getLp().a_matrix_
            passed.append((args, status, matrix.start_, matrix.index_, matrix.value_))
            return status

    monkeypatch.setattr(highs, "_Highs", Recording)
    return passed


def test_the_lp_holds_the_nonzeros_of_the_dense_matrix(monkeypatch):
    passed = _recording_solver(monkeypatch)
    gen = rng(78)
    masks = []
    for _ in range(80):
        dims = tuple(int(n) for n in gen.integers(1, 7, 3))
        mask = gen.random(dims) < gen.choice([0.1, 0.5, 0.9, 1.0])
        mask.flat[int(gen.integers(mask.size))] = True
        masks.append(mask)
    single = np.zeros((2, 5, 7), dtype=bool)
    single[1, 3, 2] = True  # one vertex
    masks += [single, np.ones((1, 1, 1), dtype=bool)]
    for mask in masks:
        supp = SupportSet(mask)
        in_convex_hull(supp, [F(1, n) for n in supp.dims for _ in range(n)])
        args, status, held_start, held_index, held_value = passed.pop()
        start, index = dense_lp_columns(supp)
        assert args[:3] == (sum(supp.dims) + 1, len(supp), len(index))
        assert args[11].tolist() == start[:-1].tolist() and args[12].tolist() == index.tolist()
        assert args[13].tolist() == [-1.0] * len(index)
        assert held_start == start.tolist() and held_index == index.tolist()
        assert held_value == [-1.0] * len(index)
    assert not passed


def test_a_model_highs_rejects_is_a_runtime_error(monkeypatch):
    # Left unchecked, the rejected model runs as an empty LP and answers "in
    # the hull": this point, outside the box's hull, would not be refuted.
    box = support_set((2, 2, 1), _cells((2, 2, 1)))
    outside = _box_point(F(3, 2), F(1, 2))
    assert not in_convex_hull(box, outside)
    passed = _recording_solver(monkeypatch, drop_integrality=True)
    with pytest.raises(RuntimeError, match="HiGHS rejected the separation LP"):
        in_convex_hull(box, outside)
    from scipy.optimize._highspy import _core as highs

    assert [status for _, status, *_ in passed] == [highs.HighsStatus.kError]


def test_inner_points_never_refuted():
    gen = rng(70)
    for seed in range(4):
        supp = random_free_support(gen, (3, 3, 3), max_size=5)
        if len(supp) == 0:
            continue
        t = tensor_on_support(gen, supp)
        for p in set(inner_points(t)):
            result = hull_refute(t, p, samples=100, seed=seed)
            assert result.outcome == "inconclusive"


@pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
def test_the_unit_triangular_draw_keeps_the_stream_and_the_bits(upper):
    # One draw for the triple takes the same values from the generator as one
    # (2, n, n) draw per factor, and each triangle keeps the masked sum's bits,
    # signed zeros included, on cubic and unequal sides.
    for case, dims in enumerate([(n, n, n) for n in range(1, 10)] + [(2, 5, 7), (1, 3, 2)]):
        gen, ref = rng(90 + case), rng(90 + case)
        got = _draw(gen, dims, upper, 0, 0).factors
        for mine, want in zip(got, unit_triangular_factors(ref, dims, upper), strict=True):
            assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes()
        assert gen.bit_generator.state == ref.bit_generator.state


def _unit_triangular_triple(gen, n, upper):
    return GroupTriple(*unit_triangular_factors(gen, (n, n, n), upper))


def _reflect(supp):
    n1, n2, n3 = supp.dims
    return support_set(
        supp.dims, ((n1 + 1 - i, n2 + 1 - j, n3 + 1 - k) for (i, j, k) in supp)
    )


def test_triangular_actions_move_supports_along_the_order():
    # Unit upper-triangular actions keep supports in the downward closure;
    # unit lower-triangular ones, in the mirrored (upward) closure.
    gen = rng(71)
    for _ in range(10):
        t = tensor_on_support(gen, random_free_support(gen, (3, 3, 3), max_size=4))
        if norm(t) == 0:
            continue
        u = _unit_triangular_triple(gen, 3, True)
        lo = _unit_triangular_triple(gen, 3, False)
        ut = apply(u, t)
        assert issubset(support(ut, 1e-9), downward_closure(support(t, 0.0)))
        lut = apply(lo, ut)
        mirrored = _reflect(downward_closure(_reflect(support(ut, 1e-9))))
        assert issubset(support(lut, 1e-9), mirrored)


def test_upper_triangular_keeps_staircase_inside_its_closure():
    gen = rng(72)
    t = build_family_tensor(family_data(3))
    closure = downward_closure(gamma_support(3))
    for _ in range(10):
        u = _unit_triangular_triple(gen, 3, True)
        assert issubset(support(apply(u, t), 1e-9), closure)
