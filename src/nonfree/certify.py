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
# flow is unused here but stays bound: perfbench's tracer test reads certify.flow.
from .flow import NessCertificate, flow, ness_minimality  # noqa: F401
from .moment import HermTriple, _frobenius_norm, moment_map, off_diagonal_mass
from .named import (
    MU_S2_DIAGONALS,
    MU_S5_DIAGONALS,
    NESS_LAMBDA_T2,
    NESS_LAMBDA_T5,
    ness_form_t2,
    ness_form_t5,
    t2_scaling_triple,
    t5_scaling_triple,
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
    if factor not in (1, 2, 3):
        raise ValueError(f"factor must be 1, 2 or 3, got {factor!r}")
    size = s.dims[factor - 1]
    if len(block) != 2 or block[0] == block[1] or not all(1 <= b <= size for b in block):
        raise ValueError(f"block must be two distinct indices in 1..{size}, got {block!r}")
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
    kind = "nonorthogonal-pair" if len(reps) == 2 else "pairwise-nonparallel-triple"
    vectors = [tuple(map(complex, r)) for r in reps[:3]]
    return TwoColumnDecision(False, None, ObstructionWitness(kind, {"vectors": vectors}))


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


def _certify(
    input_id: str,
    details: dict,
    s: Tensor3,
    tol: float,
    value_tol: float,
    mu_defect: float,
    lam_expected: float,
    spectrum,
    expected_blocks: tuple[Blocks, Blocks, Blocks],
    obstruction: tuple[dict, ObstructionWitness | None],
) -> NonFreenessReport:
    """The shared stages on the representative s, in order; the first failure ends the report.

    mu_defect (the distance of mu(s) from its expected diagonal) and lambda
    are held to value_tol, the Ness residual to tol, and the eigenvalue
    blocks of spectrum must be expected_blocks. The obstruction is the
    details it adds and its witness, None if it fails.
    """
    ness = blocks = witness = None

    def report(stage: str | None) -> NonFreenessReport:
        return NonFreenessReport(input_id, stage is None, stage, ness, blocks, witness, details)

    details["mu_defect"] = mu_defect
    if mu_defect > value_tol:
        return report("moment_map")

    ness = ness_minimality(s)
    details["lambda"] = ness.lam
    details["lambda_expected"] = lam_expected
    details["ness_residual"] = ness.residual
    if ness.residual > tol or abs(ness.lam - lam_expected) > value_tol:
        return report("ness")

    blocks = stabilizer_blocks(spectrum)
    details["blocks"] = blocks
    if blocks != expected_blocks:
        return report("stabilizer_blocks")

    found, witness = obstruction
    details.update(found)
    return report(None if witness is not None else "obstruction")


def certify_family(n: int, tol: float = DEFAULT_TOL) -> NonFreenessReport:
    """Full certificate for the staircase family member of size n >= 3."""
    if n < 3:
        raise ValueError("certify_family requires n >= 3 (the n = 2 support is free)")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    ft = build_family_tensor(family_data(n))
    gram = ft.W.entries @ ft.W.entries.conj().T
    min_off = float(np.abs(gram)[~np.eye(n, dtype=bool)].min())
    witness = ObstructionWitness(
        "ww-star-offdiagonal", {"n": n, "min_offdiagonal": min_off, "w": [float(x) for x in ft.W.w]}
    )
    return _certify(
        f"family-{n}", {"n": n, "tol": tol}, ft.tensor, tol, tol,
        mu_defect=family_mu_defect(ft), lam_expected=float(ft.data.ness_lambda),
        spectrum=ft.data.q, expected_blocks=family_block_pattern(n),
        obstruction=({"min_offdiagonal": min_off}, witness if min_off >= PARALLEL_TOL else None),
    )


def _diag_defect(mu: HermTriple, expected) -> float:
    worst = off_diagonal_mass(mu)
    for comp, exp in zip(mu.components, expected):
        worst = max(worst, float(np.abs(np.diag(comp).real - np.asarray(exp)).max()))
    return worst


# Per named tensor T: T, its stored basis change g, its stored minimum-norm
# representative S, the expected diagonals of mu(S) and lambda, and whether the
# stages after the coefficient check run on S (True) or on g . T. The check holds
# the two within VALUE_TOL; each tensor keeps the one its reports were always
# computed on, whose last bits they print.
_NAMED = {
    "T2": (tensor_t2, t2_scaling_triple, ness_form_t2, MU_S2_DIAGONALS, NESS_LAMBDA_T2, False),
    "T5": (tensor_t5, t5_scaling_triple, ness_form_t5, MU_S5_DIAGONALS, NESS_LAMBDA_T5, True),
}


def certify_named(
    which: str,
    tol: float = DEFAULT_TOL,
    group_element: GroupTriple | None = None,
) -> NonFreenessReport:
    """Certificates for the two named 3x3x3 tensors, T2 and T5.

    Each is carried onto its minimum-norm representative by its stored basis
    change (injectable for negative controls); the coefficient stage,
    s2_coefficients or s5_coefficients, checks g . T against the stored
    representative before the shared stages run. A vanishing Ness residual
    on that GL-orbit point makes its mu the minimum-norm point of the moment
    polytope (Kempf-Ness), so no flow is needed.
    """
    which = which.upper()
    if which not in _NAMED:
        raise ValueError(f"unknown named tensor {which!r}")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    tensor, default_g, stored, expected_mu, expected_lambda, on_stored = _NAMED[which]
    details: dict = {"tol": tol, "value_tol": VALUE_TOL}

    g = group_element if group_element is not None else default_g()
    moved, representative = apply(g, tensor()), stored()
    coeff_defect = norm(Tensor3(moved.entries - representative.entries))
    details[f"s{which[1]}_coefficient_defect"] = coeff_defect
    if coeff_defect > VALUE_TOL:
        return NonFreenessReport(which, False, f"s{which[1]}_coefficients", None, None, None, details)
    s = representative if on_stored else moved

    mu = moment_map(s)
    witness = two_column_obstruction(s, 3, (1, 2)).obstruction
    found = {} if witness is None else {"obstruction_vectors": witness.data["vectors"]}
    return _certify(
        which, details, s, tol, VALUE_TOL,
        mu_defect=_diag_defect(mu, expected_mu), lam_expected=expected_lambda,
        spectrum=mu, expected_blocks=NAMED_BLOCKS, obstruction=(found, witness),
    )
