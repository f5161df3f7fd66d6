"""Non-freeness certificates.

A certificate's inputs are a minimum-norm representative S, the exact
diagonals q of mu(S) and an obstruction. From q alone come the mu-defect
|mu(S) - diag(q)|, the expected Ness lambda |q|^2 (lambda(T) = |mu(T)|^2 for
every tensor) and the eigenvalue blocks. It combines three independently
checkable facts about S: the Ness fixed-point residual (so |mu(S)| is minimal
over the moment polytope), the eigenvalue block structure of mu(S) (pinning
down the unitary stabilizer), and an obstruction showing that no residual
unitary freedom can produce a free support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, sqrt
from typing import Sequence

import numpy as np

from .construct import build_family_tensor
from .family import family_data, staircase_index
# flow is unused here but stays bound: perfbench's tracer test reads certify.flow.
from .flow import NessCertificate, flow, ness_minimality  # noqa: F401
from .moment import HermTriple, _frobenius_norm
from .named import NAMED, mu_diagonals, named_tensor, ness_form, scaling_triple
from .tensor import Tensor3, _norm, _unit_peak, apply

DEFAULT_TOL = 1e-10  # Ness residual (and family mu defect) a certificate accepts
PARALLEL_TOL = 1e-10
VALUE_TOL = 1e-12

Blocks = tuple[tuple[int, ...], ...]


def _runs(values: Sequence) -> Blocks:
    blocks: list[tuple[int, ...]] = []
    current = [1]
    for idx in range(1, len(values)):
        if values[idx - 1] == values[idx]:
            current.append(idx + 1)
        else:
            blocks.append(tuple(current))
            current = [idx + 1]
    blocks.append(tuple(current))
    return tuple(blocks)


def stabilizer_blocks(m) -> tuple[Blocks, Blocks, Blocks]:
    """Per factor, the ordered partition of [n] into runs of equal eigenvalues
    of a diagonal triple, given as three rational vectors and compared exactly.
    """
    vectors = [tuple(component) for component in m]
    if not all(isinstance(x, (Fraction, int)) for vec in vectors for x in vec):
        raise ValueError("stabilizer_blocks needs three rational vectors")
    return tuple(_runs(vec) for vec in vectors)  # type: ignore[return-value]


def family_block_pattern(n: int) -> tuple[Blocks, Blocks, Blocks]:
    """Singletons on the first two factors, (n-1, 1) split on the third."""
    singletons = tuple((i,) for i in range(1, n + 1))
    return (singletons, singletons, (tuple(range(1, n)), (n,)))


@dataclass(frozen=True)
class ObstructionWitness:
    """Concrete data refuting the existence of a support-freeing unitary."""

    kind: str  # pairwise-nonparallel-triple | nonorthogonal-pair | ww-star-offdiagonal
    data: dict


def two_column_obstruction(s: Tensor3) -> ObstructionWitness | None:
    """The obstruction to a 2x2 unitary on the eigenvalue block (1, 2) of
    factor 3, the one block of two of family_block_pattern(3), that makes
    every 2-vector (S_ij1, S_ij2) have at most one nonzero entry, or None
    when such a unitary exists.

    It exists exactly when the nonzero vectors fall into at most two
    parallel classes which, if there are two, are orthogonal. The decisions
    are made on s times the exact power of two that brings its peak entry
    into [1/2, 1), so that no product of two entries above the cutoff
    underflows and they do not depend on the scale of s; the witness
    vectors are rows of s itself.
    """
    scaled, _ = _unit_peak(s.entries)
    rows = scaled[:, :, :2].reshape(-1, 2)
    norms = [_norm(v) for v in rows]
    cutoff = 1e-12 * float(np.abs(scaled).max())
    vectors = [i for i, r in enumerate(norms) if r > cutoff]

    classes: list[list[int]] = []
    for i in vectors:
        for members in classes:
            j = members[0]
            det = rows[i, 0] * rows[j, 1] - rows[i, 1] * rows[j, 0]
            if abs(det) <= PARALLEL_TOL * norms[i] * norms[j]:
                members.append(i)
                break
        else:
            classes.append([i])
    reps = [max(members, key=lambda i: norms[i]) for members in classes]

    if len(reps) < 2:
        return None
    if len(reps) == 2:
        a, b = (rows[i] / norms[i] for i in reps)
        if abs(np.vdot(a, b)) <= PARALLEL_TOL:
            return None
    kind = "nonorthogonal-pair" if len(reps) == 2 else "pairwise-nonparallel-triple"
    own = s.entries[:, :, :2].reshape(-1, 2)
    return ObstructionWitness(kind, {"vectors": [tuple(map(complex, own[i])) for i in reps[:3]]})


@dataclass(frozen=True)
class NonFreenessReport:
    input_id: str
    verdict: bool
    failed_stage: str | None
    ness: NessCertificate | None
    blocks: tuple[Blocks, Blocks, Blocks] | None
    obstruction: ObstructionWitness | None
    details: dict = field(default_factory=dict)


def mu_defect(mu: HermTriple, diagonals) -> float:
    """Frobenius distance of the moment map mu from the diagonal triple diag(diagonals)."""
    expected = [np.diag([float(x) for x in d]) for d in diagonals]
    return _frobenius_norm([c - e for c, e in zip(mu.components, expected)])


def _certify(
    input_id: str,
    details: dict,
    s: Tensor3,
    tol: float,
    value_tol: float,
    diagonals,
    obstruction: tuple[dict, ObstructionWitness | None],
) -> NonFreenessReport:
    """The shared stages on the representative s, in order; the first failure ends the report.

    Everything expected is read from the exact diagonals of mu(s): the
    mu_defect, held to value_tol; lambda, held to value_tol of the exact |q|^2
    compared as a float, with the Ness residual held to tol; and the
    eigenvalue blocks, which must be family_block_pattern of the size of s (T2
    and T5 share the n = 3 pattern). The obstruction is the details it adds
    and its witness, None if it fails.
    """
    ness = blocks = witness = None

    def report(stage: str | None) -> NonFreenessReport:
        return NonFreenessReport(input_id, stage is None, stage, ness, blocks, witness, details)

    # The Ness test's mu(s) is the one moment map; ness joins the report at its own stage.
    test = ness_minimality(s)
    details["mu_defect"] = defect = mu_defect(test.mu, diagonals)
    if defect > value_tol:
        return report("moment_map")

    ness = test
    # |q|^2 as one integer sum over the lcm of the denominators, divided once:
    # int / int rounds correctly, so this is float of the exact Fraction.
    values = [x for d in diagonals for x in d]
    scale = lcm(*(x.denominator for x in values))
    lam = sum((x.numerator * (scale // x.denominator)) ** 2 for x in values) / (scale * scale)
    details["lambda"] = ness.lam
    details["lambda_expected"] = lam
    details["ness_residual"] = ness.residual
    if ness.residual > tol or abs(ness.lam - lam) > value_tol:
        return report("ness")

    blocks = stabilizer_blocks(diagonals)
    details["blocks"] = blocks
    if blocks != family_block_pattern(s.dims[0]):
        return report("stabilizer_blocks")

    found, witness = obstruction
    details.update(found)
    return report(None if witness is not None else "obstruction")


def certify_family(n: int, tol: float = DEFAULT_TOL) -> NonFreenessReport:
    """Full certificate for the staircase family member of size n >= 3."""
    if n < 3:
        raise ValueError("certify_family requires n >= 3 (the n = 2 support is free)")
    if not tol >= 0:  # negated so that a NaN is refused too
        raise ValueError("tol must be nonnegative")
    data = family_data(n)
    t = build_family_tensor(data)
    W = t.entries[staircase_index(n)[0]]
    gram = W @ W.conj().T
    min_off = float(np.abs(gram)[~np.eye(n, dtype=bool)].min())
    witness = ObstructionWitness(
        "ww-star-offdiagonal",
        {"n": n, "min_offdiagonal": min_off, "w": [sqrt(float(x)) for x in data.w_sq]},
    )
    return _certify(
        f"family-{n}", {"n": n, "tol": tol}, t, tol, tol, data.q,
        ({"min_offdiagonal": min_off}, witness if min_off >= PARALLEL_TOL else None),
    )


def certify_named(which: str, tol: float = DEFAULT_TOL) -> NonFreenessReport:
    """Certificates for the two named 3x3x3 tensors, T2 and T5.

    Each is carried onto its minimum-norm representative S by its basis
    change g = scaling_triple(which), both generated from its row of
    named.NAMED; the coefficient stage, s2_coefficients or s5_coefficients,
    holds g . T to S within VALUE_TOL before the shared stages run on S. A
    vanishing Ness residual on that GL-orbit point makes its mu the
    minimum-norm point of the moment polytope (Kempf-Ness), so no flow is
    needed. The stages read everything they expect from the diagonals
    of mu(S), derived exactly from the squares of S, as certify_family does from q.
    """
    which = which.upper()
    if which not in NAMED:
        raise ValueError(f"unknown named tensor {which!r}")
    if not tol >= 0:  # negated so that a NaN is refused too
        raise ValueError("tol must be nonnegative")
    details: dict = {"tol": tol, "value_tol": VALUE_TOL}

    s = ness_form(which)
    coeff_defect = _norm(apply(scaling_triple(which), named_tensor(which)).entries - s.entries)
    details[f"s{which[1]}_coefficient_defect"] = coeff_defect
    if coeff_defect > VALUE_TOL:
        return NonFreenessReport(which, False, f"s{which[1]}_coefficients", None, None, None, details)

    witness = two_column_obstruction(s)
    found = {} if witness is None else {"obstruction_vectors": witness.data["vectors"]}
    return _certify(which, details, s, tol, VALUE_TOL, mu_diagonals(which), (found, witness))
