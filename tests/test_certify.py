from __future__ import annotations

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import fraction_family_data, permutation_triple, random_unitary, rng
from nonfree import certify
from nonfree.certify import (
    certify_family,
    certify_named,
    family_block_pattern,
    stabilizer_blocks,
    two_column_obstruction,
)
from nonfree.construct import build_W, build_family_tensor, s0_tensor
from nonfree.family import family_data
from nonfree.moment import moment_map
from nonfree.exactlp import _pairings
from nonfree.named import (
    NAMED,
    S2_SQUARES,
    S5_SQUARES,
    mu_diagonals,
    named_tensor,
    ness_form,
    scaling_triple,
)
from nonfree.reduction import reduce_to_s0
from nonfree.tensor import (
    GroupTriple,
    Tensor3,
    apply,
    from_coefficients,
)


def test_blocks_of_exact_named_diagonals():
    for which in NAMED:
        assert stabilizer_blocks(mu_diagonals(which)) == family_block_pattern(3)


def test_blocks_of_rational_q():
    for n in (3, 5, 9):
        blocks = stabilizer_blocks(family_data(n).q)
        assert blocks == family_block_pattern(n)
        sizes = tuple(tuple(map(len, factor)) for factor in blocks)
        assert sizes == ((1,) * n, (1,) * n, (n - 1, 1))


def _squared_norm(diagonals) -> Fraction:
    return sum((x * x for d in diagonals for x in d), Fraction(0))


def test_the_expected_lambda_is_the_exact_squared_norm_of_the_diagonals():
    # lambda(T) = |mu(T)|^2 for every tensor, so the certificates expect |q|^2.
    assert _squared_norm(mu_diagonals("T2")) == Fraction(43, 42)
    assert _squared_norm(mu_diagonals("T5")) == Fraction(16, 15)
    for n in range(3, 13):
        data = family_data(n)
        assert _squared_norm(data.q) == data.ness_lambda


def test_the_expected_family_lambda_has_the_bits_of_the_exact_squared_norm():
    for n in range(3, 41):
        got = certify_family(n).details["lambda_expected"]
        want = float(_squared_norm(fraction_family_data(n).q))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# The diagonals of mu(S2) and mu(S5) as they were once stored by hand: the oracle
# for the ones named now derives from the signed squares of S.
HAND_KEPT_DIAGONALS = {
    "S2": (
        (Fraction(17, 42), Fraction(1, 3), Fraction(11, 42)),
        (Fraction(17, 42), Fraction(1, 3), Fraction(11, 42)),
        (Fraction(5, 14), Fraction(5, 14), Fraction(2, 7)),
    ),
    "S5": (
        (Fraction(13, 30), Fraction(1, 3), Fraction(7, 30)),
        (Fraction(13, 30), Fraction(1, 3), Fraction(7, 30)),
        (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)),
    ),
}


@pytest.mark.parametrize(
    "name, squares, diagonals, norm_sq",
    [
        ("S2", S2_SQUARES, mu_diagonals("T2"), Fraction(43, 42)),
        ("S5", S5_SQUARES, mu_diagonals("T5"), Fraction(16, 15)),
    ],
)
def test_named_diagonals_are_derived_exactly_from_the_squares(name, squares, diagonals, norm_sq):
    assert diagonals == HAND_KEPT_DIAGONALS[name]
    assert sum(abs(r) for r in squares.values()) == 1  # S has unit norm
    # Ness: <(e_i|e_j|e_k), q> = |q|^2 on every support triple, as family._validate
    # checks on Gamma_n.
    mask = np.zeros((3, 3, 3), dtype=bool)
    for i, j, k in squares:
        mask[i - 1, j - 1, k - 1] = True
    _, pairings, scaled_norm_sq = _pairings(mask, diagonals, norm_sq)
    assert len(pairings) == len(squares) and (pairings == scaled_norm_sq).all()


@pytest.mark.parametrize("which", NAMED)
def test_the_scaling_triple_carries_the_named_tensor_onto_its_ness_form(which):
    moved = apply(scaling_triple(which), named_tensor(which))
    assert np.linalg.norm(moved.entries - ness_form(which).entries) <= certify.VALUE_TOL


@pytest.mark.parametrize("which", NAMED)
def test_mu_diagonals_are_the_diagonals_of_mu_of_the_ness_form(which):
    mu = moment_map(ness_form(which))
    for comp, exact in zip(mu.components, mu_diagonals(which)):
        assert sum(exact) == 1
        np.testing.assert_allclose(
            np.diag(comp).real, [float(x) for x in exact], rtol=0, atol=1e-15
        )


def test_blocks_of_uniform_rational_triple():
    n = 4
    blocks = stabilizer_blocks([[Fraction(1, n)] * n] * 3)
    one_block = (tuple(range(1, n + 1)),)
    assert blocks == (one_block, one_block, one_block)


def test_blocks_reject_herm_triple():
    # A float mu is tied to its exact diagonal by the moment_map stage, not here.
    mu = moment_map(ness_form("T2"))
    with pytest.raises(TypeError):
        stabilizer_blocks(mu)
    with pytest.raises(ValueError):
        stabilizer_blocks([np.diag(c).real for c in mu.components])


def test_blocks_reject_float_vectors():
    # Plain vectors are compared exactly, so they must be rational.
    with pytest.raises(ValueError):
        stabilizer_blocks(([0.5, 0.5], [0.5, 0.5], [0.5, 0.5]))


def test_obstruction_on_s2_lists_the_three_vectors():
    witness = two_column_obstruction(ness_form("T2"))
    assert witness.kind == "pairwise-nonparallel-triple"
    got = sorted(
        (round(v[0].real, 6), round(v[1].real, 6))
        for v in witness.data["vectors"]
    )
    expected = sorted(
        (round(x, 6), round(y, 6))
        for x, y in [
            (0.0, np.sqrt(11 / 42)),
            (np.sqrt(10 / 77), np.sqrt(2 / 33)),
            (np.sqrt(5 / 22), -np.sqrt(8 / 231)),
        ]
    )
    assert got == expected


def test_obstruction_single_parallel_class_has_no_obstruction():
    # Both block vectors proportional to (1, 1): one class, rotatable to an axis.
    t = from_coefficients(
        (2, 2, 2), {(1, 1, 1): 1.0, (1, 1, 2): 1.0, (2, 2, 1): 0.5, (2, 2, 2): 0.5}
    )
    assert two_column_obstruction(t) is None


def test_obstruction_two_orthogonal_classes_has_no_obstruction():
    t = from_coefficients((2, 2, 2), {(1, 1, 1): 1.0, (2, 2, 2): 2.0})
    assert two_column_obstruction(t) is None


def test_obstruction_two_nonorthogonal_classes():
    t = from_coefficients(
        (2, 2, 2), {(1, 1, 1): 1.0, (2, 2, 1): 1.0, (2, 2, 2): 1.0}
    )
    assert two_column_obstruction(t).kind == "nonorthogonal-pair"


@pytest.mark.parametrize("scale", [1e-20, 1e-5, 1.0, 1e6])
def test_obstruction_on_s2_does_not_depend_on_scale(scale):
    witness = two_column_obstruction(Tensor3(scale * ness_form("T2").entries))
    assert witness.kind == "pairwise-nonparallel-triple"


@pytest.mark.parametrize("scale", [1.0, 1e-165, 1e-300, 1e-310, 1e-318])
@pytest.mark.parametrize("which", ["T2", "T5"])
def test_obstruction_of_a_named_form_does_not_depend_on_its_scale(which, scale):
    # Below about 1e-154 the parallel test's determinant and bound both underflow
    # to 0; the witness is the rows of the scaled tensor at the unscaled positions.
    rows = [tuple(map(complex, v)) for v in ness_form(which).entries[:, :, :2].reshape(-1, 2)]
    positions = [rows.index(v) for v in two_column_obstruction(ness_form(which)).data["vectors"]]
    s = Tensor3(scale * ness_form(which).entries)
    witness = two_column_obstruction(s)
    assert witness.kind == "pairwise-nonparallel-triple"
    scaled_rows = [tuple(map(complex, v)) for v in s.entries[:, :, :2].reshape(-1, 2)]
    assert witness.data["vectors"] == [scaled_rows[p] for p in positions]


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-152, 1e-160])
def test_obstruction_separates_rows_near_the_cutoff_at_every_scale(scale):
    # Rows about 1e-12 times the peak: at 1e-150 their products underflow, though |S|^2 does not.
    t = from_coefficients((2, 2, 2), {(1, 1, 1): 1.0, (1, 2, 1): 2e-12, (1, 2, 2): 1e-12,
                                      (2, 1, 1): 1e-12, (2, 1, 2): 1e-12})
    witness = two_column_obstruction(Tensor3(scale * t.entries))
    assert witness.kind == "pairwise-nonparallel-triple"


def test_obstruction_verdict_stable_under_local_permutations_and_phases():
    gen = rng(60)
    s2 = ness_form("T2")
    for _ in range(10):
        sigma = list(gen.permutation(3) + 1)
        tau = list(gen.permutation(3) + 1)
        swap = bool(gen.integers(2))
        rho = [2, 1, 3] if swap else [1, 2, 3]
        phases = [
            np.diag(np.exp(1j * gen.uniform(0, 2 * np.pi, 3))) for _ in range(3)
        ]
        g = GroupTriple(*(p @ f for p, f in zip(
            phases, permutation_triple((3, 3, 3), sigma, tau, rho).factors
        )))
        moved = apply(g, s2)
        assert two_column_obstruction(moved) is not None


def test_right_unitary_closure_keeps_a_doubly_occupied_row():
    gen = rng(61)
    for n in (3, 5):
        W = build_W(family_data(n))
        for _ in range(20):
            u = random_unitary(gen, n - 1)
            rotated = W @ u.T
            heavy_rows = np.sum(np.abs(rotated) > 1e-8, axis=1)
            assert heavy_rows.max() >= 2


def test_certify_family_accepts_all_desk_sizes():
    for n in range(3, 13):
        report = certify_family(n)
        assert report.verdict, (n, report.failed_stage)
        assert report.failed_stage is None
        assert report.ness.residual <= 1e-10


def test_certify_family_rejects_n2():
    with pytest.raises(ValueError):
        certify_family(2)


def test_certify_named_t2():
    report = certify_named("T2")
    assert report.verdict
    assert report.ness.lam == pytest.approx(43 / 42, abs=1e-12)
    assert report.obstruction.kind == "pairwise-nonparallel-triple"


def test_certify_named_t5():
    report = certify_named("T5")
    assert report.verdict
    assert report.ness.lam == pytest.approx(16 / 15, abs=1e-12)
    assert report.details["s5_coefficient_defect"] <= certify.VALUE_TOL
    assert not [key for key in report.details if key.startswith("flow")]


@pytest.mark.parametrize("which", ["T2", "T5"], ids=["t2_scaling_triple", "t5_scaling_triple"])
def test_scaling_triples_are_triangular_with_square_roots_of_small_rationals(which):
    g1, g2, g3 = (np.array(m) for m in scaling_triple(which).factors)
    assert np.array_equal(g1, np.diag(np.diag(g1))) and np.array_equal(g2, np.diag(np.diag(g2)))
    assert np.array_equal(g3, np.tril(g3))
    for entry in np.concatenate([g1.ravel(), g2.ravel(), g3.ravel()]):
        square = float(entry.real) ** 2
        assert entry.imag == 0.0
        assert abs(square - float(Fraction(square).limit_denominator(1000))) <= 1e-15


def test_certify_named_rejects_unknown_name():
    with pytest.raises(ValueError):
        certify_named("T7")


def _corrupted(monkeypatch, which):
    g = scaling_triple(which)
    g3 = np.array(g.c)
    g3[1, 0] = -g3[1, 0]  # one sign flipped
    wrong = GroupTriple(np.array(g.a), np.array(g.b), g3)
    monkeypatch.setattr(certify, "scaling_triple", lambda name: wrong)
    return certify_named(which)


def test_corrupted_group_element_fails_certification(monkeypatch):
    report = _corrupted(monkeypatch, "T2")
    assert not report.verdict
    assert report.failed_stage == "s2_coefficients"


def test_nonfreeness_transfers_to_s0_through_reduction():
    # Certificate for the family member plus a successful reduction jointly
    # certify the 0/1 representative as non-free.
    for n in (3, 4):
        assert certify_family(n).verdict
        assert reduce_to_s0(build_family_tensor(family_data(n))).success


def test_certificate_report_is_rechecable_from_details():
    report = certify_named("T2")
    assert report.details["mu_defect"] <= 1e-12
    assert report.details["ness_residual"] <= 1e-10
    assert report.details["lambda_expected"] == pytest.approx(43 / 42)
    assert report.blocks == (((1,), (2,), (3,)), ((1,), (2,), (3,)), ((1, 2), (3,)))


def _family_with_other_block_pattern(monkeypatch):
    monkeypatch.setattr(certify, "family_block_pattern", lambda n: ((), (), ()))
    return certify_family(3)


def _t2_with_swapped_diagonal(monkeypatch):
    first, *rest = mu_diagonals("T2")
    swapped = ((first[1], first[0], first[2]), *rest)
    monkeypatch.setattr(certify, "mu_diagonals", lambda which: swapped)
    return certify_named("T2")


def _t2_with_free_decision(monkeypatch):
    monkeypatch.setattr(certify, "two_column_obstruction", lambda s: None)
    return certify_named("T2")


def _family_with_small_offdiagonal(monkeypatch):
    monkeypatch.setattr(certify, "PARALLEL_TOL", 1.0)
    return certify_family(3)


FAMILY_KEYS = ["n", "tol", "mu_defect", "lambda", "lambda_expected", "ness_residual"]
NAMED_KEYS = ["tol", "value_tol", "mu_defect", "lambda", "lambda_expected", "ness_residual"]
T2_KEYS = NAMED_KEYS[:2] + ["s2_coefficient_defect"] + NAMED_KEYS[2:]
T5_KEYS = NAMED_KEYS[:2] + ["s5_coefficient_defect"] + NAMED_KEYS[2:]


@pytest.mark.parametrize(
    "make, stage, keys, present",
    [
        (lambda mp: certify_family(3, tol=1e-20), "moment_map", FAMILY_KEYS[:3], ""),
        (_t2_with_swapped_diagonal, "moment_map", T2_KEYS[:4], ""),
        (lambda mp: certify_named("T2", tol=1e-20), "ness", T2_KEYS, "n"),
        (lambda mp: _corrupted(mp, "T2"), "s2_coefficients", T2_KEYS[:3], ""),
        (lambda mp: _corrupted(mp, "T5"), "s5_coefficients", T5_KEYS[:3], ""),
        (_family_with_other_block_pattern, "stabilizer_blocks", FAMILY_KEYS + ["blocks"], "nb"),
        (_t2_with_free_decision, "obstruction", T2_KEYS + ["blocks"], "nb"),
        (_family_with_small_offdiagonal, "obstruction",
         FAMILY_KEYS + ["blocks", "min_offdiagonal"], "nb"),
        (lambda mp: certify_family(3), None, FAMILY_KEYS + ["blocks", "min_offdiagonal"], "nbo"),
        (lambda mp: certify_named("T2"), None, T2_KEYS + ["blocks", "obstruction_vectors"], "nbo"),
        (lambda mp: certify_named("T5"), None, T5_KEYS + ["blocks", "obstruction_vectors"], "nbo"),
    ],
    ids=["moment_map", "moment_map-named", "ness", "s2_coefficients", "s5_coefficients", "stabilizer_blocks",
         "obstruction-named", "obstruction-family", "family", "T2", "T5"],
)
def test_each_stage_reports_its_failure_and_details_in_order(monkeypatch, make, stage, keys, present):
    # present: which of ness (n), blocks (b) and obstruction (o) the report carries.
    report = make(monkeypatch)
    assert report.verdict == (stage is None)
    assert report.failed_stage == stage
    assert list(report.details) == keys
    carried = "".join(
        flag for flag, value in zip("nbo", (report.ness, report.blocks, report.obstruction))
        if value is not None
    )
    assert carried == present


def test_a_corrupted_family_fails_at_the_moment_map_and_refuses_a_nan_tolerance(monkeypatch):
    # The third factor scaled by linspace(1, 2, n): mu(S) is no longer diag(q).
    monkeypatch.setattr(certify, "build_family_tensor", lambda data: Tensor3(
        build_family_tensor(data).entries * np.linspace(1.0, 2.0, data.n)))
    report = certify_family(4)
    assert report.failed_stage == "moment_map" and report.ness is None
    assert report.details["mu_defect"] > 0.1
    with pytest.raises(ValueError, match="^tol must be nonnegative$"):
        certify_family(4, tol=math.nan)


@pytest.mark.parametrize(
    "call",
    [
        lambda: certify_family(3, tol=math.nan),
        lambda: certify_named("T2", tol=math.nan),
        lambda: reduce_to_s0(s0_tensor(4), tol=math.nan),
    ],
    ids=["certify_family", "certify_named", "reduce_to_s0"],
)
def test_a_nan_tolerance_is_refused(call):
    with pytest.raises(ValueError, match="^tol must be nonnegative$"):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: certify_named("T2"), lambda: certify_named("T5"),
     *(lambda n=n: certify_family(n) for n in (3, 14, 17))],
    ids=["T2", "T5", "family-3", "family-14", "family-17"],
)
def test_a_certificate_evaluates_one_moment_map(monkeypatch, call):
    # The moment_map stage reads the Ness test's mu. The attribute nonfree.flow
    # is the flow function, so the module is looked up by name.
    flow_module, calls = importlib.import_module("nonfree.flow"), []
    original = flow_module.moment_map
    monkeypatch.setattr(flow_module, "moment_map", lambda t: calls.append(t.dims) or original(t))
    report = call()
    assert report.verdict
    assert len(calls) == 1
    assert not hasattr(certify, "moment_map")
