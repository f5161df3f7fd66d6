"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here exactly as stated; nothing is deferred.
"""

from __future__ import annotations

import time
from fractions import Fraction as F

import numpy as np

from conftest import (
    flattening_ranks,
    inner_points,
    norm,
    off_diagonal_mass,
    random_free_support,
    random_tensor,
    random_unitary_triple,
    rng,
    support_set,
    tensor_on_support,
)
from nonfree.certify import certify_family, certify_named
from nonfree.construct import build_family_tensor, gram_defects, s0_tensor
from nonfree.family import family_data, gamma_support, halfspace_check
from nonfree.flow import flow, ness_minimality
from nonfree.moment import _frobenius_norm, moment_map
from nonfree.named import mu_diagonals, named_tensor, ness_form, scaling_triple
from nonfree.polytope import hull_refute
from nonfree.reduction import ReductionError, reduce_to_s0
from nonfree.supports import is_free_support
from nonfree.tensor import GroupTriple, Tensor3, apply, support


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_t2_pipeline():
    start = time.perf_counter()
    s2 = apply(scaling_triple("T2"), named_tensor("T2"))
    coeff_defect = norm(Tensor3(s2.entries - ness_form("T2").entries))
    mu = moment_map(s2)
    mu_defect = off_diagonal_mass(mu)
    for comp, expected in zip(mu.components, mu_diagonals("T2")):
        mu_defect = max(mu_defect, float(np.abs(np.diag(comp).real - expected).max()))
    cert = ness_minimality(s2)
    elapsed = time.perf_counter() - start
    ok = (
        coeff_defect <= 1e-12
        and mu_defect <= 1e-12
        and abs(cert.lam - 43 / 42) <= 1e-10
        and cert.residual <= 1e-10
        and elapsed < 1.0
    )
    report(
        "criterion 1: T2 pipeline",
        ok,
        f"coeff {coeff_defect:.1e}, mu {mu_defect:.1e}, residual {cert.residual:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_t5_pipeline():
    s5 = ness_form("T5")
    mu = moment_map(s5)
    mu_defect = off_diagonal_mass(mu)
    for comp, expected in zip(mu.components, mu_diagonals("T5")):
        mu_defect = max(mu_defect, float(np.abs(np.diag(comp).real - expected).max()))
    cert = ness_minimality(s5)
    start = time.perf_counter()
    result = flow(named_tensor("T5"))
    elapsed = time.perf_counter() - start
    gap = abs(result.mu_norm_trajectory[-1] - _frobenius_norm(mu.components))
    ok = (
        mu_defect <= 1e-12
        and abs(cert.lam - 16 / 15) <= 1e-10
        and cert.residual <= 1e-10
        and result.converged
        and gap <= 1e-6
        and elapsed < 30.0
    )
    report(
        "criterion 2: T5 pipeline",
        ok,
        f"mu {mu_defect:.1e}, residual {cert.residual:.1e}, flow gap {gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_family_exactness():
    ok = True
    for n in range(3, 13):
        data = family_data(n)  # raises if any identity fails
        q1, q2, q3 = data.q
        ok &= data.b[n - 1] == 0
        ok &= sum(data.b, F(0)) == q3[n - 1]
        ok &= all(
            q2[j - 1] - data.b[j - 1] == q1[n - j] - (data.b[j - 2] if j >= 2 else F(0))
            for j in range(1, n + 1)
        )
        ok &= all(F(0) <= q2j - bj < data.lambda_W for q2j, bj in zip(q2, data.b))
        ok &= sum(
            (hx * qx for hi, qi in zip(data.h, data.q) for hx, qx in zip(hi, qi)), F(0)
        ) == data.c
        ok &= sum(x * x for qi in data.q for x in qi) == F(3, n) + data.c ** 2 / data.norm_h_sq
    q12 = (F(17, 42), F(1, 3), F(11, 42))
    ok &= family_data(3).q == (q12, q12, (F(5, 14), F(5, 14), F(2, 7)))
    report("criterion 3: family exactness n=3..12", ok)


def test_criterion_4_w_construction():
    worst_gram = 0.0
    worst_mu = 0.0
    ranks_ok = True
    for n in range(3, 13):
        data = family_data(n)
        t = build_family_tensor(data)
        left, right = gram_defects(t, data)
        worst_gram = max(worst_gram, left, right)
        mu = moment_map(t)
        q_float = [np.diag([float(x) for x in qi]) for qi in data.q]
        worst_mu = max(
            worst_mu,
            float(np.sqrt(sum(
                np.linalg.norm(c - qd) ** 2 for c, qd in zip(mu.components, q_float)
            ))),
        )
        ranks_ok &= flattening_ranks(t) == (n, n, n)
    ok = worst_gram <= 1e-10 and worst_mu <= 1e-10 and ranks_ok
    report(
        "criterion 4: W construction n=3..12",
        ok,
        f"gram {worst_gram:.1e}, mu {worst_mu:.1e}, full ranks {ranks_ok}",
    )


def test_criterion_5_certificates(monkeypatch):
    ok = all(certify_family(n).verdict for n in range(3, 13))
    ok &= certify_named("T2").verdict
    ok &= certify_named("T5").verdict
    g = scaling_triple("T2")
    g3 = np.array(g.c)
    g3[1, 0] = -g3[1, 0]
    wrong = GroupTriple(np.array(g.a), np.array(g.b), g3)
    monkeypatch.setattr("nonfree.certify.scaling_triple", lambda which: wrong)
    corrupted = certify_named("T2")
    ok &= not corrupted.verdict
    report("criterion 5: certificates", ok, f"negative control stage {corrupted.failed_stage}")


def test_criterion_6_reduction():
    worst = 0.0
    for n in range(3, 9):
        result = reduce_to_s0(build_family_tensor(family_data(n)), tol=1e-8)
        worst = max(worst, result.residual)
        assert result.success
    gen = rng(600)
    successes = 0
    for _ in range(100):
        arr = np.zeros((4, 4, 4), dtype=np.complex128)
        for (i, j, k) in gamma_support(4):
            arr[i - 1, j - 1, k - 1] = gen.standard_normal() + 1j * gen.standard_normal()
        try:
            if reduce_to_s0(Tensor3(arr), tol=1e-8).success:
                successes += 1
        except ReductionError:
            pass
    ok = worst <= 1e-8 and successes >= 99
    report(
        "criterion 6: reduction to S0",
        ok,
        f"worst family residual {worst:.1e}, random successes {successes}/100",
    )


def test_criterion_7_flows():
    ok = True
    details = []
    result = flow(named_tensor("T2"))
    gap = abs(result.mu_norm_trajectory[-1] ** 2 - 43 / 42)
    ok &= result.converged and gap <= 1e-6
    ok &= float(np.diff(result.mu_norm_trajectory).max(initial=0.0)) <= 1e-8
    details.append(f"T2 gap {gap:.1e}")
    for n in range(3, 7):
        result = flow(s0_tensor(n))
        target = float(family_data(n).ness_lambda)
        gap = abs(result.mu_norm_trajectory[-1] ** 2 - target)
        ok &= result.converged and gap <= 1e-6
        ok &= float(np.diff(result.mu_norm_trajectory).max(initial=0.0)) <= 1e-8
        details.append(f"S0({n}) gap {gap:.1e}")
    report("criterion 7: gradient flows", ok, ", ".join(details))


def test_criterion_8_property_suites():
    equivariance_cases = 0
    equivariance_worst = 0.0
    free_cases = 0
    free_worst = 0.0
    perm_cases = 0
    perm_ok = True
    for seed in range(10):
        gen = rng(seed)
        for _ in range(20):
            t = random_tensor(gen, (3, 3, 3))
            k = random_unitary_triple(gen, t.dims)
            m = moment_map(t)
            mk = moment_map(apply(k, t))
            defect = max(
                float(np.abs(after - u @ before @ u.conj().T).max())
                for u, before, after in zip(k.factors, m.components, mk.components)
            )
            equivariance_worst = max(equivariance_worst, defect)
            equivariance_cases += 1
        for _ in range(20):
            supp = random_free_support(gen, (4, 4, 4))
            if len(supp) == 0:
                continue
            t = tensor_on_support(gen, supp)
            free_worst = max(free_worst, off_diagonal_mass(moment_map(t)))
            free_cases += 1
        for _ in range(20):
            supp = random_free_support(gen, (4, 4, 4), max_size=8)
            sigma, tau, rho = (list(gen.permutation(4) + 1) for _ in range(3))
            permuted = support_set(
                (4, 4, 4),
                [(sigma[i - 1], tau[j - 1], rho[k - 1]) for (i, j, k) in supp],
            )
            perm_ok &= is_free_support(permuted).verdict == is_free_support(supp).verdict
            perm_cases += 1

    halfspace_ok = all(
        halfspace_check(family_data(n)).valid and halfspace_check(family_data(n)).equality_set == gamma_support(n) for n in range(2, 11)
    )

    refutations = 0
    consistency_ok = True
    for seed in range(10):
        gen = rng(1000 + seed)
        supp = random_free_support(gen, (3, 3, 3), max_size=5)
        if len(supp) == 0:
            continue
        t = tensor_on_support(gen, supp)
        for p in set(inner_points(t)):
            outcome = hull_refute(t, p, samples=100, seed=seed)
            refutations += 1
            consistency_ok &= outcome.outcome == "inconclusive"

    ok = (
        equivariance_cases >= 200
        and equivariance_worst <= 1e-10
        and free_cases >= 190
        and free_worst <= 1e-12
        and perm_cases >= 200
        and perm_ok
        and halfspace_ok
        and refutations >= 10
        and consistency_ok
    )
    report(
        "criterion 8: property suites",
        ok,
        f"equivariance {equivariance_cases} cases worst {equivariance_worst:.1e}, "
        f"free-support {free_cases} cases worst {free_worst:.1e}, "
        f"permutation {perm_cases} cases, halfspace {halfspace_ok}, "
        f"hull consistency {refutations} runs",
    )
