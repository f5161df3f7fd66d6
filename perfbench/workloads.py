"""Seeded inputs, fixed op lists and per-op correctness oracles.

Every input file is generated here from the seed, independently of the
library under test: the family tensor, S0(n), T2 and T5 are written from
their defining formulas, and every expected value an oracle compares against
(|h|^2, the Ness lambda, q, the limit |mu|^2 of a flow, hull outcomes) comes
from closed forms in this module. The program only ever sees the files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

WORKLOADS = ("family_exact", "flow_converge", "polytope_refute")

# Flow ops use a step cap of 1.0: at the CLI default of 0.05 a single seeded
# dense flow takes 1.3-8 s, too long to repeat a pass inside one run. The
# certify-nonfree --named T5 op still integrates at the library default.
FLOW_STEP = "1.0"
# Lower-triangular samples per refutation op, each one more LP after sample 0
# (CLI default: 100). Many ops with few samples average the seeded LP costs.
REFUTE_SAMPLES = 1

NESS_TOL = 1e-10  # Ness residuals and lambdas, as in the acceptance suite
GRAM_TOL = 1e-10
FLOW_LIMIT_TOL = 1e-6  # limit |mu|^2 of a flow
FLOW_RESIDUAL_TOL = 1e-8  # the CLI's default --residual-tol
REDUCTION_TOL = 1e-8

T2_COEFFS = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 1, 1))
T5_COEFFS = ((1, 1, 3), (1, 3, 1), (1, 3, 2), (2, 2, 1), (3, 1, 2))
NESS_LAMBDA = {"T2": Fraction(43, 42), "T5": Fraction(16, 15)}


# --- closed forms -----------------------------------------------------------


@dataclass(frozen=True)
class FamilyClosedForm:
    """The staircase family's rationals, computed from their definitions."""

    n: int
    h: tuple[tuple[Fraction, ...], ...]
    c: Fraction
    norm_h_sq: Fraction
    q: tuple[tuple[Fraction, ...], ...]
    ness_lambda: Fraction
    b: tuple[Fraction, ...]
    lambda_w: Fraction
    w_sq: tuple[Fraction, ...]


def family_closed_form(n: int) -> FamilyClosedForm:
    """|h|^2 = n(n^2-1)/6 + (n-1)/n and lambda = 3/n + c^2/|h|^2 with c = 1/n."""
    c = Fraction(1, n)
    h12 = tuple(Fraction(n - 1, 2) - i for i in range(n))
    h3 = tuple(Fraction(1, n) - (1 if i == n - 1 else 0) for i in range(n))
    h = (h12, h12, h3)
    norm_h_sq = Fraction(n * (n * n - 1), 6) + Fraction(n - 1, n)
    q = tuple(tuple(Fraction(1, n) + c * x / norm_h_sq for x in hi) for hi in h)
    q1, q2, q3 = q
    b, acc = [], Fraction(0)
    for j in range(n):
        acc += q2[j] - q1[n - 1 - j]
        b.append(acc)
    lambda_w = (1 - q3[n - 1]) / (n - 1)
    w_sq = tuple(lambda_w - q2j + bj for q2j, bj in zip(q2, b))
    return FamilyClosedForm(
        n, h, c, norm_h_sq, q, Fraction(3, n) + c * c / norm_h_sq, tuple(b), lambda_w, w_sq
    )


def gamma(n: int) -> set[tuple[int, int, int]]:
    """The staircase support Gamma_n, 1-based."""
    triples = {(i, n + 1 - i, k) for i in range(1, n + 1) for k in range(1, n)}
    return triples | {(i, n - i, n) for i in range(1, n)}


def downward_closure_size(support) -> int:
    closed = set()
    for a, b, c in support:
        closed.update(
            (i, j, k) for i in range(1, a + 1) for j in range(1, b + 1) for k in range(1, c + 1)
        )
    return len(closed)


# --- tensors ------------------------------------------------------------------


def s0_array(n: int) -> np.ndarray:
    arr = np.zeros((n, n, n), dtype=np.complex128)
    for i in range(1, n):
        arr[n - i, i - 1, i - 1] = 1.0  # identity rows of W
        arr[0, n - 1, i - 1] = 1.0  # the all-ones last row of W
        arr[n - i - 1, i - 1, n - 1] = 1.0  # unit a-entries
    return arr


def family_array(n: int) -> np.ndarray:
    """Family tensor: W on the anti-diagonal slices, a = sqrt(b) on the last.

    W = sqrt(lambda_W) times an orthonormal basis of w^perp, taken from the
    Householder reflection sending w/|w| to e_n.
    """
    form = family_closed_form(n)
    w = np.sqrt([float(x) for x in form.w_sq])
    v = w / np.linalg.norm(w)
    v[n - 1] -= 1.0
    reflector = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v) if v @ v > 1e-30 else np.eye(n)
    wmat = math.sqrt(float(form.lambda_w)) * reflector[:, : n - 1]
    arr = np.zeros((n, n, n), dtype=np.complex128)
    for i in range(1, n + 1):
        arr[n - i, i - 1, : n - 1] = wmat[i - 1]
    for i in range(1, n):
        arr[n - i - 1, i - 1, n - 1] = math.sqrt(float(form.b[i - 1]))
    return arr


def coefficient_array(triples) -> np.ndarray:
    arr = np.zeros((3, 3, 3), dtype=np.complex128)
    for i, j, k in triples:
        arr[i - 1, j - 1, k - 1] = 1.0
    return arr


def tensor_doc(arr: np.ndarray) -> dict:
    entries = []
    for i, j, k in np.argwhere(arr != 0):
        value = arr[i, j, k]
        entries.append({"i": int(i) + 1, "j": int(j) + 1, "k": int(k) + 1,
                        "re": float(value.real), "im": float(value.imag)})
    return {"dims": list(arr.shape), "entries": entries}


def array_from_doc(doc: dict) -> np.ndarray:
    arr = np.zeros(doc["dims"], dtype=np.complex128)
    for e in doc["entries"]:
        arr[e["i"] - 1, e["j"] - 1, e["k"] - 1] = complex(e["re"], e["im"])
    return arr


def mu_norm_sq(arr: np.ndarray) -> float:
    """|mu(T)|^2 with mu_L = F_L F_L^* / |T|^2 over the three flattenings."""
    sq = float(np.vdot(arr, arr).real)
    total = 0.0
    for axis in range(3):
        f = np.moveaxis(arr, axis, 0).reshape(arr.shape[axis], -1)
        total += float(np.linalg.norm(f @ f.conj().T / sq) ** 2)
    return total


def apply_triple(g: dict, arr: np.ndarray) -> np.ndarray:
    a, b, c = (np.array(g[x]["re"]) + 1j * np.array(g[x]["im"]) for x in ("a", "b", "c"))
    return np.einsum("ia,jb,kc,abc->ijk", a, b, c, arr)


def random_phases(gen: np.random.Generator, shape) -> np.ndarray:
    return np.exp(2j * np.pi * gen.random(shape))


def staircase_array(gen: np.random.Generator, n: int) -> np.ndarray:
    """Generic tensor on Gamma_n: magnitudes in [0.5, 1.5], random phases."""
    arr = np.zeros((n, n, n), dtype=np.complex128)
    for i, j, k in sorted(gamma(n)):
        arr[i - 1, j - 1, k - 1] = (0.5 + gen.random()) * random_phases(gen, ())
    return arr


def dense_array(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.standard_normal((n, n, n)) + 1j * gen.standard_normal((n, n, n))


def free_support_point(gen: np.random.Generator, n: int):
    """A tensor on a random free support and a point inside its polytope.

    The support is a random Latin square, so any two triples differ in at
    least two coordinates. (Random subsets of it made the exact LP time of a
    4x4x4 op vary by a CV of 0.38 across seeds, full squares by 0.21.) For a
    free support mu(T) is
    diagonal, with the marginals of |T_ijk|^2 / |T|^2 on the diagonal; their
    sorted values are exactly a point of the moment polytope.
    """
    p1, p2, p3 = (gen.permutation(n) for _ in range(3))
    square = [(i + 1, j + 1, int(p3[(p1[i] + p2[j]) % n]) + 1) for i in range(n) for j in range(n)]
    weights = [int(w) for w in gen.integers(1, 10, size=n * n)]
    arr = np.zeros((n, n, n), dtype=np.complex128)
    for (i, j, k), w in zip(square, weights):
        arr[i - 1, j - 1, k - 1] = math.sqrt(w) * random_phases(gen, ())
    total = sum(weights)
    point = []
    for axis in range(3):
        marginal = [Fraction(0)] * n
        for triple, w in zip(square, weights):
            marginal[triple[axis] - 1] += Fraction(w, total)
        point.append(sorted(marginal, reverse=True))
    return arr, point


def uniform_point(n: int) -> list[list[Fraction]]:
    return [[Fraction(1, n)] * n for _ in range(3)]


# --- ops and oracles ----------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI invocation, the oracle that checks it, and what it expects."""

    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)


def _rat(doc) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


def _rats(docs) -> tuple[Fraction, ...]:
    return tuple(_rat(x) for x in docs)


def check_family(code: int, doc: dict, n: int) -> str | None:
    form = family_closed_form(n)
    if code != 0:
        return f"exit {code}"
    fd = doc["family_data"]
    if _rat(fd["norm_h_sq"]) != form.norm_h_sq:
        return f"|h|^2 {_rat(fd['norm_h_sq'])} != {form.norm_h_sq}"
    if _rat(fd["ness_lambda"]) != form.ness_lambda:
        return f"lambda {_rat(fd['ness_lambda'])} != {form.ness_lambda}"
    if _rat(fd["c"]) != form.c or tuple(_rats(qi) for qi in fd["q"]) != form.q:
        return "c or q differ from the closed form"
    v = doc["verification"]
    for key in ("gram_defect_wsw", "gram_defect_wws"):
        if not v[key] <= GRAM_TOL:
            return f"{key} {v[key]}"
    for key in ("mu_defect", "ness_residual"):
        if not v[key] <= NESS_TOL:
            return f"{key} {v[key]}"
    if not abs(v["ness_lambda"] - float(form.ness_lambda)) <= NESS_TOL:
        return f"ness_lambda {v['ness_lambda']} vs {float(form.ness_lambda)}"
    if v["halfspace_valid"] is not True or v["halfspace_equality_is_gamma"] is not True:
        return "halfspace check failed"
    if not np.array_equal(array_from_doc(doc["s0"]), s0_array(n)):
        return "S0 differs"
    return None


def check_certify_family(code: int, doc: dict, n: int) -> str | None:
    form = family_closed_form(n)
    report = doc["report"]
    if code != 0 or report["verdict"] is not True or report["failed_stage"] is not None:
        return f"exit {code}, verdict {report['verdict']}, stage {report['failed_stage']}"
    if not abs(report["ness"]["lambda"] - float(form.ness_lambda)) <= NESS_TOL:
        return f"lambda {report['ness']['lambda']} vs {float(form.ness_lambda)}"
    if not report["ness"]["residual"] <= NESS_TOL:
        return f"ness residual {report['ness']['residual']}"
    singletons = [[i] for i in range(1, n + 1)]
    if report["stabilizer_blocks"] != [singletons, singletons, [list(range(1, n)), [n]]]:
        return f"blocks {report['stabilizer_blocks']}"
    if report["obstruction"]["kind"] != "ww-star-offdiagonal":
        return f"obstruction {report['obstruction']['kind']}"
    return None


def check_reduce(code: int, doc: dict, path: str, n: int) -> str | None:
    if code != 0 or doc.get("success") is not True:
        return f"exit {code}, success {doc.get('success')}"
    if not doc["residual"] <= REDUCTION_TOL:
        return f"residual {doc['residual']}"
    with open(path, encoding="utf-8") as handle:
        moved = apply_triple(doc["g"], array_from_doc(json.load(handle)))
    gap = float(np.linalg.norm(moved - s0_array(n)))
    if not gap <= REDUCTION_TOL:
        return f"g . T misses S0 by {gap}"
    return None


def check_free_support(code: int, doc: dict, path: str, free: bool) -> str | None:
    if code != (0 if free else 1) or doc["free"] is not free:
        return f"exit {code}, free {doc['free']}"
    if not free:
        with open(path, encoding="utf-8") as handle:
            supp = {(e["i"], e["j"], e["k"]) for e in json.load(handle)["entries"]}
        first, second = map(tuple, doc["offending_pair"])
        differ = sum(a != b for a, b in zip(first, second))
        if first not in supp or second not in supp or differ != 1:
            return f"offending pair {doc['offending_pair']} is no witness"
    return None


def check_named(code: int, doc: dict, lam: Fraction) -> str | None:
    report = doc["report"]
    if code != 0 or report["verdict"] is not True:
        return f"exit {code}, verdict {report['verdict']}"
    if not abs(report["ness"]["lambda"] - float(lam)) <= NESS_TOL:
        return f"lambda {report['ness']['lambda']} vs {float(lam)}"
    gap = report["details"].get("flow_mu_norm_gap")
    if gap is not None and not gap <= FLOW_LIMIT_TOL:
        return f"flow limit gap {gap}"
    return None


def check_flow(code: int, doc: dict, lam: float) -> str | None:
    result = doc["result"]
    if code != 0 or result["converged"] is not True:
        return f"exit {code}, converged {result['converged']}"
    if not result["final_residual"] <= FLOW_RESIDUAL_TOL:
        return f"final residual {result['final_residual']}"
    values = {
        "lambda": result["lambda"],
        "trajectory": result["mu_norm_trajectory"][-1] ** 2,
        "limit": mu_norm_sq(array_from_doc(result["limit"])),
    }
    for name, value in values.items():
        if not abs(value - lam) <= FLOW_LIMIT_TOL:
            return f"limit |mu|^2 by {name} {value} vs {lam}"
    return None


def check_refute(code: int, doc: dict, outcome: str, samples: int) -> str | None:
    r = doc["refutation"]
    if code != 0:
        return f"exit {code}"
    if r["outcome"] != outcome:
        unsound = " (unsound: point is inside)" if outcome == "inconclusive" else ""
        return f"outcome {r['outcome']}, expected {outcome}{unsound}"
    if outcome == "refuted" and (r["refuting_sample"], r["samples_checked"]) != (0, 1):
        return f"refuted at sample {r['refuting_sample']}, expected 0"
    if outcome == "inconclusive" and r["samples_checked"] != samples + 1:
        return f"checked {r['samples_checked']} samples"
    return None


def check_halfspace(code: int, doc: dict, c: Fraction, vertices: int) -> str | None:
    hs = doc["halfspace"]
    if code != 0 or hs["valid"] is not True:
        return f"exit {code}, valid {hs['valid']}"
    if _rat(hs["c"]) != c or _rat(hs["min_support_value"]) != c:
        return f"min {hs['min_support_value']} vs c {c}"
    if hs["vertices_checked"] != vertices:
        return f"{hs['vertices_checked']} vertices, expected {vertices}"
    return None


CHECKS = {
    "family": check_family,
    "certify_family": check_certify_family,
    "reduce": check_reduce,
    "free_support": check_free_support,
    "named": check_named,
    "flow": check_flow,
    "refute": check_refute,
    "halfspace": check_halfspace,
}


def check(op: Op, code: int, stdout: str) -> str | None:
    """The oracle's complaint about one op's outcome, or None when it is right."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON document: {exc}"
    if "error" in doc:
        return f"exit {code}, error {doc['error']}"
    try:
        return CHECKS[op.kind](code, doc, **op.expect)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"report lacks expected fields: {exc!r}"


# --- workload definitions -----------------------------------------------------


class Inputs:
    """Writes seeded input documents into one directory."""

    def __init__(self, directory: str, seed: int):
        self.directory = directory
        self.seed = seed
        os.makedirs(directory, exist_ok=True)

    def rng(self, *tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *tag])

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.directory, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def tensor(self, name: str, arr: np.ndarray) -> str:
        return self.write(name, tensor_doc(arr))

    def point(self, name: str, point) -> str:
        # Floats of small-denominator rationals; the CLI recovers them exactly.
        return self.write(name, {f"p{i + 1}": [float(x) for x in p] for i, p in enumerate(point)})


def family_exact(inp: Inputs, tiny: bool) -> list[Op]:
    """The Fraction layers: family data, supports and the W construction."""
    ladder = (3, 4) if tiny else (3, 4, 6, 8, 12, 16, 24, 32)
    staircase = [(3, 0)] if tiny else [(n, index) for n in range(3, 9) for index in range(2)]
    ops = [Op(("family", "--n", str(n), "--verify"), "family", {"n": n}) for n in ladder]
    ops += [Op(("certify-nonfree", "--family", str(n)), "certify_family", {"n": n}) for n in ladder]
    for n, index in staircase:
        path = inp.tensor(f"staircase{n}_{index}", staircase_array(inp.rng(1, n, index), n))
        ops.append(Op(("reduce-s0", "--input", path), "reduce", {"path": path, "n": n}))
        ops.append(Op(("free-support", "--input", path), "free_support",
                      {"path": path, "free": False}))
    return ops


def flow_converge(inp: Inputs, tiny: bool) -> list[Op]:
    """The flow kernel: RK4 steps, each computing about six moment maps."""
    ops = [Op(("certify-nonfree", "--named", "T2"), "named", {"lam": NESS_LAMBDA["T2"]})]
    if not tiny:
        ops.append(Op(("certify-nonfree", "--named", "T5"), "named", {"lam": NESS_LAMBDA["T5"]}))
    flows = [("T2", coefficient_array(T2_COEFFS), float(NESS_LAMBDA["T2"]))]
    for n in (3,) if tiny else (3, 4, 5):
        flows.append((f"s0_{n}", s0_array(n), float(family_closed_form(n).ness_lambda)))
    # Seeded dense flows start at n = 4: a Gaussian 3x3x3 tensor takes from 129
    # to 985 steps (30 seeds, step cap 1.0), so two of them would move a pass by
    # a third between seeds. n = 3 is covered by T2, T5 and S0(3).
    dense_counts = {4: 1} if tiny else {4: 10, 5: 10, 6: 10}
    for n, count in dense_counts.items():
        for index in range(count):
            flows.append((f"dense{n}_{index}", dense_array(inp.rng(2, n, index), n), 3.0 / n))
    for name, arr, lam in flows:
        path = inp.tensor(name, arr)
        ops.append(Op(("flow", "--input", path, "--step", FLOW_STEP), "flow", {"lam": lam}))
    return ops


def polytope_refute(inp: Inputs, tiny: bool) -> list[Op]:
    """The exact LP: feasible, infeasible early-exit and float-fallback solves."""
    samples = 1 if tiny else REFUTE_SAMPLES
    seed = str(inp.seed)

    def refute(name: str, arr: np.ndarray, point, outcome: str) -> Op:
        tensor_path = inp.tensor(name, arr)
        point_path = inp.point(name + "_point", point)
        argv = ("polytope", "--input", tensor_path, "--refute", point_path,
                "--samples", str(samples), "--seed", seed)
        return Op(argv, "refute", {"outcome": outcome, "samples": samples})

    # Above EXACT_VERTEX_LIMIT (600): 729 vertices take the scipy fallback.
    ops = [refute("dense9_0", dense_array(inp.rng(3, 9, 0), 9), uniform_point(9), "inconclusive")]
    if not tiny:
        dense = dense_array(inp.rng(3, 9, 1), 9)
        ops.append(refute("dense9_1", dense, uniform_point(9), "inconclusive"))
    free_counts = {3: 1} if tiny else {3: 14, 4: 16}
    for n, count in free_counts.items():
        for index in range(count):
            arr, point = free_support_point(inp.rng(4, n, index), n)
            ops.append(refute(f"free{n}_{index}", arr, point, "inconclusive"))
            if index == 0:
                path = inp.tensor(f"free{n}_{index}", arr)
                ops.append(Op(("free-support", "--input", path), "free_support",
                              {"path": path, "free": True}))
    for n in (3,) if tiny else (3, 4):
        ops.append(refute(f"family{n}", family_array(n), family_closed_form(n).q, "inconclusive"))
    outside = [("T2", coefficient_array(T2_COEFFS))]
    if not tiny:
        outside += [("T5", coefficient_array(T5_COEFFS)), ("s0_3", s0_array(3)),
                    ("s0_4", s0_array(4))]
    for name, arr in outside:
        ops.append(refute(name, arr, uniform_point(arr.shape[0]), "refuted"))
    for n in (3,) if tiny else (3, 4, 5, 6, 7, 8):
        form = family_closed_form(n)
        arr = family_array(n)
        tensor_path = inp.tensor(f"family{n}", arr)
        doc = {f"h{i + 1}": [str(x) for x in hi] for i, hi in enumerate(form.h)}
        doc["c"] = str(form.c)
        half_path = inp.write(f"family{n}_halfspace", doc)
        closure = downward_closure_size(tuple(int(x) + 1 for x in t) for t in np.argwhere(arr != 0))
        ops.append(Op(("polytope", "--input", tensor_path, "--halfspace", half_path), "halfspace",
                      {"c": form.c, "vertices": closure}))
    return ops


BUILDERS = {
    "family_exact": family_exact,
    "flow_converge": flow_converge,
    "polytope_refute": polytope_refute,
}


def build(workload: str, directory: str, seed: int, tiny: bool = False) -> list[Op]:
    """Write the workload's inputs and return its fixed op list; op 0 is the warm-up."""
    return BUILDERS[workload](Inputs(directory, seed), tiny)
