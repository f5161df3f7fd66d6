"""Non-freeness certificates.

A certificate combines three independently checkable facts about a
minimum-norm representative S: the Ness fixed-point residual (so |mu(S)| is
minimal over the moment polytope), the eigenvalue block structure of mu(S)
(pinning down the unitary stabilizer), and an obstruction showing that no
residual unitary freedom can produce a free support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .construct import FamilyTensor, build_family_tensor
from .family import family_data
from .flow import NessCertificate, flow, ness_minimality
from .moment import HermTriple, _frobenius_norm, moment_map, off_diagonal_mass
from .named import (
    MU_S2_DIAGONALS,
    MU_S5_DIAGONALS,
    NESS_LAMBDA_T2,
    NESS_LAMBDA_T5,
    ness_form_t2,
    ness_form_t5,
    t2_scaling_triple,
    tensor_t2,
    tensor_t5,
)
from .tensor import GroupTriple, Tensor3, apply, norm

DEFAULT_TOL = 1e-10  # Ness residual (and family mu defect) a certificate accepts
BLOCK_TOL = 1e-10
PARALLEL_TOL = 1e-10
VALUE_TOL = 1e-12

Blocks = tuple[tuple[int, ...], ...]

# Eigenvalue blocks of mu(S) for both named tensors: singletons, then a (2, 1) split.
NAMED_BLOCKS = (((1,), (2,), (3,)), ((1,), (2,), (3,)), ((1, 2), (3,)))


def _runs(values: Sequence, equal) -> Blocks:
    blocks: list[tuple[int, ...]] = []
    current = [1]
    for idx in range(1, len(values)):
        if equal(values[idx - 1], values[idx]):
            current.append(idx + 1)
        else:
            blocks.append(tuple(current))
            current = [idx + 1]
    blocks.append(tuple(current))
    return tuple(blocks)


def stabilizer_blocks(m) -> tuple[Blocks, Blocks, Blocks]:
    """Per factor, the ordered partition of [n] into runs of equal eigenvalues
    of a diagonal triple.

    Accepts a HermTriple that is diagonal within BLOCK_TOL, whose eigenvalues
    are compared at BLOCK_TOL, or a triple of rational vectors, which are
    compared exactly.
    """
    if isinstance(m, HermTriple):
        mass = off_diagonal_mass(m)
        if mass > BLOCK_TOL:
            raise ValueError(f"input is not diagonal (off-diagonal mass {mass:.3e})")
        vectors = [tuple(np.diag(c).real) for c in m.components]
        equal = lambda a, b: abs(a - b) <= BLOCK_TOL
    else:
        vectors = [tuple(component) for component in m]
        if not all(isinstance(x, (Fraction, int)) for vec in vectors for x in vec):
            raise ValueError("stabilizer_blocks needs a HermTriple or rational vectors")
        equal = lambda a, b: a == b
    return tuple(_runs(vec, equal) for vec in vectors)  # type: ignore[return-value]


def family_block_pattern(n: int) -> tuple[Blocks, Blocks, Blocks]:
    """Singletons on the first two factors, (n-1, 1) split on the third."""
    singletons = tuple((i,) for i in range(1, n + 1))
    return (singletons, singletons, (tuple(range(1, n)), (n,)))


@dataclass(frozen=True)
class ObstructionWitness:
    """Concrete data refuting the existence of a support-freeing unitary."""

    kind: str  # pairwise-nonparallel-triple | nonorthogonal-pair | ww-star-offdiagonal
    data: dict

    def __post_init__(self):
        if self.kind == "pairwise-nonparallel-triple":
            vectors = self.data["vectors"]
            if len(vectors) != 3:
                raise ValueError("triple obstruction needs exactly three vectors")
            for a in range(3):
                for b in range(a + 1, 3):
                    det = abs(
                        vectors[a][0] * vectors[b][1] - vectors[a][1] * vectors[b][0]
                    )
                    if det < PARALLEL_TOL:
                        raise ValueError("obstruction vectors are nearly parallel")
        elif self.kind == "ww-star-offdiagonal":
            if self.data["min_offdiagonal"] < PARALLEL_TOL:
                raise ValueError("off-diagonal magnitude below certificate threshold")
            if self.data["n"] - 1 < 2:
                raise ValueError("off-diagonal obstruction needs n - 1 >= 2")


@dataclass(frozen=True)
class TwoColumnDecision:
    """Either a 2x2 unitary making every block vector single-entry, or an obstruction."""

    free_possible: bool
    unitary: np.ndarray | None
    obstruction: ObstructionWitness | None


def _parallel(v: np.ndarray, w: np.ndarray) -> bool:
    det = v[0] * w[1] - v[1] * w[0]
    return abs(det) <= PARALLEL_TOL * np.linalg.norm(v) * np.linalg.norm(w)


def two_column_obstruction(s: Tensor3, factor: int, block: tuple[int, int]) -> TwoColumnDecision:
    """Decide whether a 2x2 unitary on the given eigenvalue block can make
    every restricted 2-vector of s have at most one nonzero entry.

    That happens exactly when the nonzero vectors fall into at most two
    parallel classes which, if there are two, are orthogonal.
    """
    if len(block) != 2:
        raise ValueError("block must consist of exactly two indices")
    moved = np.moveaxis(s.entries, factor - 1, 2)
    rows = moved[:, :, [block[0] - 1, block[1] - 1]].reshape(-1, 2)
    cutoff = 1e-12 * max(float(np.abs(s.entries).max()), 1e-300)
    vectors = [v for v in rows if np.linalg.norm(v) > cutoff]

    classes: list[list[np.ndarray]] = []
    for v in vectors:
        for members in classes:
            if _parallel(v, members[0]):
                members.append(v)
                break
        else:
            classes.append([v])
    reps = [max(members, key=np.linalg.norm) for members in classes]

    if len(reps) == 0:
        return TwoColumnDecision(True, np.eye(2, dtype=np.complex128), None)
    if len(reps) == 1:
        a = reps[0] / np.linalg.norm(reps[0])
        u = np.array([[np.conj(a[0]), np.conj(a[1])], [-a[1], a[0]]])
        return TwoColumnDecision(True, u, None)
    if len(reps) == 2:
        a = reps[0] / np.linalg.norm(reps[0])
        b = reps[1] / np.linalg.norm(reps[1])
        if abs(np.vdot(a, b)) <= PARALLEL_TOL:
            b = b - np.vdot(a, b) * a
            b /= np.linalg.norm(b)
            u = np.vstack([a.conj(), b.conj()])
            return TwoColumnDecision(True, u, None)
        witness = ObstructionWitness(
            "nonorthogonal-pair",
            {"vectors": [tuple(map(complex, r)) for r in reps]},
        )
        return TwoColumnDecision(False, None, witness)
    witness = ObstructionWitness(
        "pairwise-nonparallel-triple",
        {"vectors": [tuple(map(complex, r)) for r in reps[:3]]},
    )
    return TwoColumnDecision(False, None, witness)


@dataclass(frozen=True)
class NonFreenessReport:
    input_id: str
    verdict: bool
    failed_stage: str | None
    ness: NessCertificate | None
    blocks: tuple[Blocks, Blocks, Blocks] | None
    obstruction: ObstructionWitness | None
    details: dict = field(default_factory=dict)


def family_mu_defect(ft: FamilyTensor) -> float:
    """Frobenius distance of mu(T) from the diagonal triple diag(q) of the family."""
    q = [np.diag([float(x) for x in qi]) for qi in ft.data.q]
    return _frobenius_norm([c - qd for c, qd in zip(moment_map(ft.tensor).components, q)])


def certify_family(n: int, tol: float = DEFAULT_TOL) -> NonFreenessReport:
    """Full certificate for the staircase family member of size n >= 3."""
    if n < 3:
        raise ValueError("certify_family requires n >= 3 (the n = 2 support is free)")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    details: dict = {"n": n, "tol": tol}
    ft = build_family_tensor(family_data(n))
    data = ft.data

    mu_defect = family_mu_defect(ft)
    details["mu_defect"] = mu_defect
    if mu_defect > tol:
        return NonFreenessReport(f"family-{n}", False, "moment_map", None, None, None, details)

    ness = ness_minimality(ft.tensor)
    details["lambda"] = ness.lam
    details["lambda_expected"] = float(data.ness_lambda)
    details["ness_residual"] = ness.residual
    if ness.residual > tol or abs(ness.lam - float(data.ness_lambda)) > tol:
        return NonFreenessReport(f"family-{n}", False, "ness", ness, None, None, details)

    blocks = stabilizer_blocks(data.q)
    details["blocks"] = blocks
    if blocks != family_block_pattern(n):
        return NonFreenessReport(f"family-{n}", False, "stabilizer_blocks", ness, blocks, None, details)

    gram = ft.W.entries @ ft.W.entries.conj().T
    off = np.abs(gram - np.diag(np.diag(gram)))
    min_off = float(off[~np.eye(n, dtype=bool)].min())
    details["min_offdiagonal"] = min_off
    try:
        obstruction = ObstructionWitness(
            "ww-star-offdiagonal",
            {"n": n, "min_offdiagonal": min_off, "w": [float(x) for x in ft.W.w]},
        )
    except ValueError:
        return NonFreenessReport(f"family-{n}", False, "obstruction", ness, blocks, None, details)

    return NonFreenessReport(f"family-{n}", True, None, ness, blocks, obstruction, details)


def _diag_defect(mu: HermTriple, expected) -> float:
    worst = off_diagonal_mass(mu)
    for comp, exp in zip(mu.components, expected):
        worst = max(worst, float(np.abs(np.diag(comp).real - np.asarray(exp)).max()))
    return worst


def certify_named(
    which: str,
    tol: float = DEFAULT_TOL,
    group_element: GroupTriple | None = None,
) -> NonFreenessReport:
    """Certificates for the two named 3x3x3 tensors, T2 and T5.

    T2 is carried onto its minimum-norm representative by the stored basis
    change (injectable for negative controls); T5 is certified through its
    stored representative plus the gradient flow started at T5 itself.
    """
    which = which.upper()
    if which not in ("T2", "T5"):
        raise ValueError(f"unknown named tensor {which!r}")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    details: dict = {"tol": tol, "value_tol": VALUE_TOL}

    if which == "T2":
        g = group_element if group_element is not None else t2_scaling_triple()
        s = apply(g, tensor_t2())
        expected_mu = MU_S2_DIAGONALS
        expected_lambda = NESS_LAMBDA_T2
        coeff_defect = norm(Tensor3(s.entries - ness_form_t2().entries))
        details["s2_coefficient_defect"] = coeff_defect
        if coeff_defect > VALUE_TOL:
            return NonFreenessReport("T2", False, "s2_coefficients", None, None, None, details)
    else:
        s = ness_form_t5()
        expected_mu = MU_S5_DIAGONALS
        expected_lambda = NESS_LAMBDA_T5

    mu = moment_map(s)
    mu_defect = _diag_defect(mu, expected_mu)
    details["mu_defect"] = mu_defect
    if mu_defect > VALUE_TOL:
        return NonFreenessReport(which, False, "moment_map", None, None, None, details)

    ness = ness_minimality(s)
    details["lambda"] = ness.lam
    details["lambda_expected"] = expected_lambda
    details["ness_residual"] = ness.residual
    if ness.residual > tol or abs(ness.lam - expected_lambda) > VALUE_TOL:
        return NonFreenessReport(which, False, "ness", ness, None, None, details)

    if which == "T5":
        result = flow(tensor_t5())
        limit_gap = abs(result.mu_norm_trajectory[-1] - mu.frobenius_norm())
        details["flow_steps"] = result.steps
        details["flow_mu_norm_gap"] = limit_gap
        if not result.converged or limit_gap > 1e-6:
            return NonFreenessReport(which, False, "flow", ness, None, None, details)

    blocks = stabilizer_blocks(mu)
    details["blocks"] = blocks
    if blocks != NAMED_BLOCKS:
        return NonFreenessReport(which, False, "stabilizer_blocks", ness, blocks, None, details)

    decision = two_column_obstruction(s, 3, (1, 2))
    if decision.free_possible or decision.obstruction is None:
        return NonFreenessReport(which, False, "obstruction", ness, blocks, None, details)
    details["obstruction_vectors"] = decision.obstruction.data.get("vectors")

    return NonFreenessReport(which, True, None, ness, blocks, decision.obstruction, details)
