from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import permutation_triple, random_unitary, rng
from nonfree import certify
from nonfree.certify import (
    TwoColumnDecision,
    certify_family,
    certify_named,
    family_block_pattern,
    stabilizer_blocks,
    two_column_obstruction,
)
from nonfree.construct import build_W
from nonfree.family import family_data
from nonfree.moment import HermTriple, moment_map
from nonfree.named import ness_form_t2, t2_scaling_triple, t5_scaling_triple
from nonfree.tensor import (
    GroupTriple,
    Tensor3,
    UnitaryTriple,
    apply,
    from_coefficients,
)


def test_blocks_of_mu_s2():
    blocks = stabilizer_blocks(moment_map(ness_form_t2()))
    assert blocks == (((1,), (2,), (3,)), ((1,), (2,), (3,)), ((1, 2), (3,)))


def test_blocks_of_rational_q():
    for n in (3, 5, 9):
        blocks = stabilizer_blocks(family_data(n).q)
        assert blocks == family_block_pattern(n)
        sizes = tuple(tuple(map(len, factor)) for factor in blocks)
        assert sizes == ((1,) * n, (1,) * n, (n - 1, 1))


def test_blocks_of_maximally_mixed_triple():
    n = 4
    m = HermTriple(*(np.eye(n) / n for _ in range(3)))
    blocks = stabilizer_blocks(m)
    one_block = (tuple(range(1, n + 1)),)
    assert blocks == (one_block, one_block, one_block)


def test_blocks_reject_non_diagonal_input():
    m = HermTriple(np.array([[0.5, 0.2], [0.2, 0.5]]), np.eye(2) / 2, np.eye(2) / 2)
    with pytest.raises(ValueError):
        stabilizer_blocks(m)


def test_blocks_reject_float_vectors():
    # Plain vectors are compared exactly, so they must be rational.
    with pytest.raises(ValueError):
        stabilizer_blocks(([0.5, 0.5], [0.5, 0.5], [0.5, 0.5]))


def test_obstruction_on_s2_lists_the_three_vectors():
    decision = two_column_obstruction(ness_form_t2(), 3, (1, 2))
    assert not decision.free_possible
    assert decision.obstruction.kind == "pairwise-nonparallel-triple"
    got = sorted(
        (round(v[0].real, 6), round(v[1].real, 6))
        for v in decision.obstruction.data["vectors"]
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


def test_obstruction_single_parallel_class_yields_unitary():
    # Both block vectors proportional to (1, 1): one class, rotatable to an axis.
    t = from_coefficients(
        (2, 2, 2), {(1, 1, 1): 1.0, (1, 1, 2): 1.0, (2, 2, 1): 0.5, (2, 2, 2): 0.5}
    )
    decision = two_column_obstruction(t, 3, (1, 2))
    assert decision.free_possible
    u = decision.unitary
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    rotated = apply(UnitaryTriple(np.eye(2), np.eye(2), u), t)
    for i in range(1, 3):
        for j in range(1, 3):
            row = [abs(rotated[i, j, 1]), abs(rotated[i, j, 2])]
            assert min(row) <= 1e-12


def test_obstruction_two_orthogonal_classes_yields_unitary():
    t = from_coefficients((2, 2, 2), {(1, 1, 1): 1.0, (2, 2, 2): 2.0})
    decision = two_column_obstruction(t, 3, (1, 2))
    assert decision.free_possible
    np.testing.assert_allclose(
        decision.unitary @ decision.unitary.conj().T, np.eye(2), atol=1e-12
    )


def test_obstruction_two_nonorthogonal_classes():
    t = from_coefficients(
        (2, 2, 2), {(1, 1, 1): 1.0, (2, 2, 1): 1.0, (2, 2, 2): 1.0}
    )
    decision = two_column_obstruction(t, 3, (1, 2))
    assert not decision.free_possible
    assert decision.obstruction.kind == "nonorthogonal-pair"


def test_obstruction_block_size_validation():
    with pytest.raises(ValueError):
        two_column_obstruction(ness_form_t2(), 3, (1, 2, 3))  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "factor, block",
    [(0, (1, 2)), (4, (1, 2)), (3, (0, 1)), (3, (1, 1)), (3, (2, 4)), (1, (3, 4))],
)
def test_obstruction_rejects_bad_factor_and_block(factor, block):
    with pytest.raises(ValueError):
        two_column_obstruction(ness_form_t2(), factor, block)


@pytest.mark.parametrize("scale", [1e-20, 1e-5, 1.0, 1e6])
def test_obstruction_on_s2_does_not_depend_on_scale(scale):
    decision = two_column_obstruction(Tensor3(scale * ness_form_t2().entries), 3, (1, 2))
    assert not decision.free_possible
    assert decision.obstruction.kind == "pairwise-nonparallel-triple"


def test_obstruction_verdict_stable_under_local_permutations_and_phases():
    gen = rng(60)
    s2 = ness_form_t2()
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
        decision = two_column_obstruction(moved, 3, (1, 2))
        assert not decision.free_possible


def test_right_unitary_closure_keeps_a_doubly_occupied_row():
    gen = rng(61)
    for n in (3, 5):
        wm = build_W(family_data(n))
        for _ in range(20):
            u = random_unitary(gen, n - 1)
            rotated = wm.entries @ u.T
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


@pytest.mark.parametrize("triple", [t2_scaling_triple, t5_scaling_triple])
def test_scaling_triples_are_triangular_with_square_roots_of_small_rationals(triple):
    g1, g2, g3 = (np.array(m) for m in triple().factors)
    assert np.array_equal(g1, np.diag(np.diag(g1))) and np.array_equal(g2, np.diag(np.diag(g2)))
    assert np.array_equal(g3, np.tril(g3))
    for entry in np.concatenate([g1.ravel(), g2.ravel(), g3.ravel()]):
        square = float(entry.real) ** 2
        assert entry.imag == 0.0
        assert abs(square - float(Fraction(square).limit_denominator(1000))) <= 1e-15


def test_certify_named_rejects_unknown_name():
    with pytest.raises(ValueError):
        certify_named("T7")


def _corrupted(which, triple):
    g = triple()
    g3 = np.array(g.c)
    g3[1, 0] = -g3[1, 0]  # one sign flipped
    return certify_named(which, group_element=GroupTriple(np.array(g.a), np.array(g.b), g3))


def test_corrupted_group_element_fails_certification():
    report = _corrupted("T2", t2_scaling_triple)
    assert not report.verdict
    assert report.failed_stage == "s2_coefficients"


def test_nonfreeness_transfers_to_s0_through_reduction():
    # Certificate for the family member plus a successful reduction jointly
    # certify the 0/1 representative as non-free.
    from nonfree.construct import build_family_tensor
    from nonfree.reduction import reduce_to_s0

    for n in (3, 4):
        assert certify_family(n).verdict
        assert reduce_to_s0(build_family_tensor(family_data(n)).tensor).success


def test_certificate_report_is_rechecable_from_details():
    report = certify_named("T2")
    assert report.details["mu_defect"] <= 1e-12
    assert report.details["ness_residual"] <= 1e-10
    assert report.details["lambda_expected"] == pytest.approx(43 / 42)
    assert report.blocks == (((1,), (2,), (3,)), ((1,), (2,), (3,)), ((1, 2), (3,)))


def _family_with_other_block_pattern(monkeypatch):
    monkeypatch.setattr(certify, "family_block_pattern", lambda n: ((), (), ()))
    return certify_family(3)


def _t2_with_free_decision(monkeypatch):
    free = TwoColumnDecision(True, np.eye(2, dtype=np.complex128), None)
    monkeypatch.setattr(certify, "two_column_obstruction", lambda s, factor, block: free)
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
        (lambda mp: certify_named("T2", tol=1e-20), "ness", T2_KEYS, "n"),
        (lambda mp: _corrupted("T2", t2_scaling_triple), "s2_coefficients", T2_KEYS[:3], ""),
        (lambda mp: _corrupted("T5", t5_scaling_triple), "s5_coefficients", T5_KEYS[:3], ""),
        (_family_with_other_block_pattern, "stabilizer_blocks", FAMILY_KEYS + ["blocks"], "nb"),
        (_t2_with_free_decision, "obstruction", T2_KEYS + ["blocks"], "nb"),
        (_family_with_small_offdiagonal, "obstruction",
         FAMILY_KEYS + ["blocks", "min_offdiagonal"], "nb"),
        (lambda mp: certify_family(3), None, FAMILY_KEYS + ["blocks", "min_offdiagonal"], "nbo"),
        (lambda mp: certify_named("T2"), None, T2_KEYS + ["blocks", "obstruction_vectors"], "nbo"),
        (lambda mp: certify_named("T5"), None, T5_KEYS + ["blocks", "obstruction_vectors"], "nbo"),
    ],
    ids=["moment_map", "ness", "s2_coefficients", "s5_coefficients", "stabilizer_blocks",
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
