from __future__ import annotations

import time

import pytest

from conftest import issubset, random_free_support, rng, support_set
from nonfree.family import gamma_support
from nonfree.supports import downward_closure, is_free_support


def test_gamma_2_is_free():
    assert set(gamma_support(2)) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    assert is_free_support(gamma_support(2)).verdict


def test_gamma_3_is_not_free_with_witness_pair():
    witness = is_free_support(gamma_support(3))
    assert not witness.verdict
    first, second = witness.offending_pair
    assert sum(a != b for a, b in zip(first, second)) == 1
    assert first in gamma_support(3) and second in gamma_support(3)


def test_diagonal_support_is_free():
    s = support_set((4, 4, 4), [(i, i, i) for i in range(1, 5)])
    assert is_free_support(s).verdict


def test_freeness_invariant_under_coordinate_permutations():
    gen = rng(20)
    for _ in range(50):
        dims = (4, 4, 4)
        supp = random_free_support(gen, dims)
        sigma = list(gen.permutation(4) + 1)
        tau = list(gen.permutation(4) + 1)
        rho = list(gen.permutation(4) + 1)
        permuted = support_set(
            dims, [(sigma[i - 1], tau[j - 1], rho[k - 1]) for (i, j, k) in supp]
        )
        assert is_free_support(permuted).verdict == is_free_support(supp).verdict


def test_free_support_has_at_most_n_squared_elements():
    assert len(gamma_support(2)) <= 4
    gen = rng(21)
    for _ in range(50):
        n = int(gen.integers(2, 6))
        supp = random_free_support(gen, (n, n, n))
        assert is_free_support(supp).verdict
        assert len(supp) <= n * n


def _pairwise_scan(supp):
    """Oracle: the first pair, in sorted order, of triples differing in one coordinate."""
    triples = sorted(supp)
    for i, first in enumerate(triples):
        for second in triples[i + 1 :]:
            if sum(a != b for a, b in zip(first, second)) == 1:
                return first, second
    return None


def test_free_support_matches_the_pairwise_scan_and_its_pair():
    gen = rng(24)
    cases = [gamma_support(n) for n in range(2, 9)]
    cases += [random_free_support(gen, (4, 4, 4)) for _ in range(20)]
    for _ in range(600):
        dims = tuple(int(x) for x in gen.integers(1, 6, size=3))
        cells = [(i, j, k) for i in range(1, dims[0] + 1) for j in range(1, dims[1] + 1)
                 for k in range(1, dims[2] + 1)]
        pick = gen.random(len(cells)) < gen.random() * 0.2
        cases.append(support_set(dims, [c for c, take in zip(cells, pick) if take]))
    verdicts = set()
    for supp in cases:
        pair = _pairwise_scan(supp)
        witness = is_free_support(supp)
        assert witness.offending_pair == pair
        verdicts.add(witness.verdict)
    assert verdicts == {True, False}


def test_free_support_of_a_latin_square_is_linear_time():
    n = 60
    square = [(i, j, (i + j) % n + 1) for i in range(1, n + 1) for j in range(1, n + 1)]
    start = time.perf_counter()
    assert is_free_support(support_set((n, n, n), square)).verdict
    assert time.perf_counter() - start < 1.0
    broken = support_set((n, n, n), square + [(1, 1, 1)])
    assert is_free_support(broken).offending_pair == _pairwise_scan(broken) == ((1, 1, 1), (1, 1, 3))


def test_downward_closure_of_singleton():
    s = support_set((3, 3, 3), [(1, 1, 1)])
    assert set(downward_closure(s)) == {(1, 1, 1)}


def test_downward_closure_of_gamma_3_matches_closed_form():
    closed = downward_closure(gamma_support(3))
    expected = {
        (i, j, k)
        for i in range(1, 4)
        for j in range(1, 4)
        for k in range(1, 4)
        if (k <= 2 and i + j <= 4) or (k == 3 and i + j <= 3)
    }
    assert set(closed) == expected


def test_downward_closure_contains_input_idempotent_monotone():
    gen = rng(22)
    for _ in range(30):
        dims = (3, 4, 3)
        cells = [
            (i, j, k)
            for i in range(1, 4)
            for j in range(1, 5)
            for k in range(1, 4)
        ]
        pick = gen.random(len(cells)) < 0.2
        supp = support_set(dims, [c for c, take in zip(cells, pick) if take])
        closed = downward_closure(supp)
        assert issubset(supp, closed)
        assert set(downward_closure(closed)) == set(closed)
        smaller = support_set(dims, list(supp)[: len(supp) // 2])
        assert issubset(downward_closure(smaller), closed)


def _box_closure(supp):
    """Reference: every triple of every box below an element of supp."""
    return {
        (i, j, k)
        for (a, b, c) in supp
        for i in range(1, a + 1)
        for j in range(1, b + 1)
        for k in range(1, c + 1)
    }


def test_downward_closure_equals_box_enumeration():
    cases = [
        support_set((3, 3, 3), []),
        support_set((1, 1, 1), []),
        support_set((1, 1, 1), [(1, 1, 1)]),
        support_set((1, 4, 2), [(1, 4, 1), (1, 2, 2)]),
    ]
    cases += [gamma_support(n) for n in range(2, 13)]
    gen = rng(23)
    for _ in range(100):
        dims = tuple(int(x) for x in gen.integers(1, 6, size=3))
        cells = [(i, j, k) for i in range(1, dims[0] + 1) for j in range(1, dims[1] + 1)
                 for k in range(1, dims[2] + 1)]
        pick = gen.random(len(cells)) < gen.random() * 0.3
        cases.append(support_set(dims, [c for c, take in zip(cells, pick) if take]))
    for supp in cases:
        closed = downward_closure(supp)
        assert closed.dims == supp.dims
        assert set(closed) == _box_closure(supp)


def test_downward_closure_of_gamma_has_the_closed_form_size():
    # Column heights K(i, j) sum to n(n - 1)(n + 2)/2 over the staircase.
    for n in range(2, 33):
        assert len(downward_closure(gamma_support(n))) == n * (n - 1) * (n + 2) // 2

