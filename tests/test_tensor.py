from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    UnitaryTriple,
    flattening_ranks,
    issubset,
    loop_tensor_from_doc,
    norm,
    permutation_triple,
    random_group_triple,
    random_tensor,
    random_unitary_triple,
    rng,
    support_set,
    tensor_to_doc,
)
from nonfree.tensor import (
    MAX_ENTRIES,
    GroupTriple,
    SupportSet,
    Tensor3,
    _flattening,
    apply,
    from_coefficients,
    support,
    tensor_from_doc,
)


def test_identity_action_is_identity():
    t = random_tensor(rng(0), (3, 4, 2))
    out = apply(UnitaryTriple(*(np.eye(n) for n in t.dims)), t)
    np.testing.assert_allclose(out.entries, t.entries, atol=1e-14)


def test_permutation_action_moves_basis_tensor():
    t = from_coefficients((3, 3, 3), {(1, 2, 3): 1.0})
    g = permutation_triple((3, 3, 3), [2, 3, 1], [1, 3, 2], [3, 2, 1])
    out = apply(g, t)
    assert out.entries[1, 2, 0] == pytest.approx(1.0)
    assert norm(out) == pytest.approx(1.0)


@pytest.mark.parametrize("dims", [(2, 3, 4), (1, 5, 2), (3, 3, 3)])
def test_apply_matches_the_einsum_reference(dims):
    gen = rng(sum(dims))
    for _ in range(20):
        t = random_tensor(gen, dims)
        g = random_group_triple(gen, dims)
        expected = np.einsum("ia,jb,kc,abc->ijk", g.a, g.b, g.c, t.entries)
        got = apply(g, t).entries
        assert got.shape == dims
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_group_action_composes():
    gen = rng(1)
    for _ in range(20):
        t = random_tensor(gen, (3, 2, 4))
        g = random_group_triple(gen, t.dims)
        h = random_group_triple(gen, t.dims)
        lhs = apply(g, apply(h, t))
        rhs = apply(GroupTriple(g.a @ h.a, g.b @ h.b, g.c @ h.c), t)
        assert norm(Tensor3(lhs.entries - rhs.entries)) <= 1e-12 * norm(rhs)


def test_unitary_action_preserves_norm():
    gen = rng(2)
    for _ in range(20):
        t = random_tensor(gen, (4, 3, 3))
        k = random_unitary_triple(gen, t.dims)
        assert abs(norm(apply(k, t)) - norm(t)) <= 1e-12 * norm(t)


def test_diagonal_action_preserves_support():
    gen = rng(3)
    for _ in range(20):
        t = random_tensor(gen, (3, 3, 3))
        d = GroupTriple(*(np.diag(gen.standard_normal(3) + 2.5) for _ in range(3)))
        assert set(support(apply(d, t), 0.0)) == set(support(t, 0.0))


def test_flattening_rank_invariant_under_group_action():
    gen = rng(4)
    for _ in range(10):
        t = random_tensor(gen, (3, 3, 3))
        g = random_group_triple(gen, t.dims)
        assert flattening_ranks(apply(g, t)) == flattening_ranks(t)


def test_flattening_of_basis_tensor():
    t = from_coefficients((2, 2, 2), {(1, 1, 1): 1.0})
    f = _flattening(t.entries, 0)
    assert f.shape == (2, 4)
    expected = np.zeros((2, 4))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(f, expected)


def test_flattening_of_diagonal_tensor_has_orthogonal_rows():
    n = 3
    t = from_coefficients((n, n, n), {(i, i, i): 1 / math.sqrt(n) for i in range(1, n + 1)})
    for axis in range(3):
        f = _flattening(t.entries, axis)
        gram = f @ f.conj().T
        np.testing.assert_allclose(gram, np.eye(n) / n, atol=1e-14)


def test_support_of_t2_lists_its_six_triples():
    from nonfree.named import named_tensor

    assert set(support(named_tensor("T2"), 0.0)) == {
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 1, 1),
    }


def test_support_of_zero_tensor_is_empty():
    assert len(support(Tensor3(np.zeros((2, 3, 2))), 0.0)) == 0


def test_support_relative_tolerance():
    t = from_coefficients((2, 2, 2), {(1, 1, 1): 1.0, (2, 2, 2): 1e-12})
    assert set(support(t)) == {(1, 1, 1)}
    assert set(support(t, 0.0)) == {(1, 1, 1), (2, 2, 2)}


def test_apply_dimension_mismatch():
    message = "group factor sizes (2, 2, 2) do not match tensor dims (3, 3, 3)"
    with pytest.raises(ValueError, match=re.escape(message)):
        apply(UnitaryTriple(*(np.eye(2) for _ in range(3))), Tensor3(np.zeros((3, 3, 3))))


def test_json_roundtrip():
    gen = rng(6)
    t = random_tensor(gen, (2, 3, 4))
    doc = tensor_to_doc(t)
    back = tensor_from_doc(doc)
    np.testing.assert_array_equal(back.entries, t.entries)


def test_json_omitted_entries_are_zero():
    doc = {"dims": [2, 2, 2], "entries": [{"i": 1, "j": 2, "k": 1, "re": 0.5, "im": -1.0}]}
    t = tensor_from_doc(doc)
    assert t.entries[0, 1, 0] == 0.5 - 1.0j
    assert t.entries[0, 0, 0] == 0.0


def test_json_duplicate_entry_rejected():
    doc = {
        "dims": [2, 2, 2],
        "entries": [
            {"i": 1, "j": 1, "k": 1, "re": 1.0, "im": 0.0},
            {"i": 1, "j": 1, "k": 1, "re": 2.0, "im": 0.0},
        ],
    }
    with pytest.raises(ValueError, match=re.escape("duplicate entry at (1,1,1)")):
        tensor_from_doc(doc)


def test_json_out_of_range_index_rejected():
    doc = {"dims": [2, 2, 2], "entries": [{"i": 3, "j": 1, "k": 1, "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError, match=re.escape("index (3,1,1) outside dims (2, 2, 2)")):
        tensor_from_doc(doc)


# JSON numbers as json.load reads them, with the values whose conversion needs
# care: signed zeros, subnormals, integers past 2**53 and past int64, and
# values near 1e16 and 1e17.
ENTRY_VALUES = st.sampled_from([
    0, 1, -7, 2**53 + 1, 2**64 + 3, -(2**70) - 1, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 1e16, 1e16 + 2, 1e17, -1e17, 0.1,
]) | st.integers(-(2**80), 2**80) | st.floats(-1e100, 1e100, allow_nan=False)

# Each kind of bad entry the reader names, made from a good one.
BAD_ENTRIES = {
    "no k": lambda e: {key: value for key, value in e.items() if key != "k"},
    "string index": lambda e: {**e, "j": str(e["j"])},
    "bool index": lambda e: {**e, "i": True},
    "float index": lambda e: {**e, "i": float(e["i"])},
    "bool value": lambda e: {**e, "re": True},
    "null value": lambda e: {**e, "im": None},
    "string value": lambda e: {**e, "re": "1.0"},
    "int too large for a float": lambda e: {**e, "re": 10**400},
    "infinite value": lambda e: {**e, "im": math.inf},
    "list entry": lambda e: list(e.values()),
    "index 0": lambda e: {**e, "k": 0},
    "negative index": lambda e: {**e, "i": -1},
    "index past dims": lambda e: {**e, "j": 5},
    "index past int64": lambda e: {**e, "k": 2**64},
    "duplicate": lambda e: {**e, "re": 2.0},
}


@st.composite
def tensor_docs(draw):
    """A tensor document with dims up to 4 on a side, its entries in any order,
    some re and im omitted, and none, one or two bad entries among them."""
    dims = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    cells = draw(st.lists(st.tuples(*(st.integers(1, n) for n in dims)), unique=True, max_size=12))
    entries = []
    for i, j, k in cells:
        entry = {"i": i, "j": j, "k": k}
        entry.update({part: draw(ENTRY_VALUES) for part in ("re", "im") if draw(st.booleans())})
        entries.append(entry)
    for kind in draw(st.lists(st.sampled_from(sorted(BAD_ENTRIES)), max_size=2)) if entries else ():
        at = draw(st.integers(0, len(entries) - 1))
        if not isinstance(entries[at], dict):  # already a list entry
            continue
        if kind == "duplicate":
            entries.insert(draw(st.integers(at + 1, len(entries))), BAD_ENTRIES[kind](entries[at]))
        else:
            entries[at] = BAD_ENTRIES[kind](entries[at])
    if entries or draw(st.booleans()):
        return {"dims": dims, "entries": entries}
    return {"dims": dims}


def _read(read, doc):
    """The bytes of the entries read, or the message of the ValueError."""
    try:
        return read(doc).entries.tobytes()
    except ValueError as exc:
        return str(exc)


LATE_DUPLICATE = {"dims": [10, 10, 10], "entries": [
    {"i": i, "j": j, "k": k, "re": 1.0}
    for i in range(1, 11) for j in range(1, 11) for k in range(1, 11)
] + [{"i": 7, "j": 3, "k": 9, "im": -1.0}]}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=tensor_docs())
@example(doc=LATE_DUPLICATE)
@example(doc={"dims": [1, 2, 1], "entries": [{"i": 1, "j": 2, "k": 1, "re": -0.0, "im": -0.0}]})
def test_a_tensor_document_reads_as_the_entry_by_entry_loop_reads_it(doc):
    # Bytes, so a -0.0 part must read as the +0.0 the loop's float(re) + 1j * float(im) gives.
    assert _read(tensor_from_doc, doc) == _read(loop_tensor_from_doc, doc)


@pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
def test_each_bad_entry_gets_the_message_the_loop_gives(kind):
    good = [{"i": 1, "j": 1, "k": 1, "re": 1.0}, {"i": 2, "j": 1, "k": 2, "im": -0.5}]
    doc = {"dims": [2, 2, 2], "entries": good + [BAD_ENTRIES[kind](good[0])]}
    message = _read(loop_tensor_from_doc, doc)
    assert isinstance(message, str)
    assert _read(tensor_from_doc, doc) == message


def test_json_tensor_above_the_entry_limit_rejected():
    message = f"dims ({MAX_ENTRIES + 1}, 1, 1) exceed the limit of {MAX_ENTRIES} entries"
    with pytest.raises(ValueError, match=re.escape(message)):
        tensor_from_doc({"dims": [MAX_ENTRIES + 1, 1, 1], "entries": []})


def _random_masks():
    gen = rng(9)
    masks = [np.zeros((1, 1, 1), dtype=bool), np.ones((1, 1, 1), dtype=bool),
             np.zeros((3, 2, 4), dtype=bool), np.ones((2, 3, 1), dtype=bool)]
    for _ in range(200):
        dims = tuple(int(x) for x in gen.integers(1, 6, size=3))
        masks.append(gen.random(dims) < gen.random())
    return masks


def test_support_set_is_its_mask():
    for mask in _random_masks():
        s = SupportSet(mask)
        n1, n2, n3 = s.dims
        triples = list(s)
        assert s.dims == mask.shape and not s.mask.flags.writeable
        assert triples == sorted(tuple(int(x) + 1 for x in row) for row in np.argwhere(mask))
        assert all(type(x) is int for triple in triples for x in triple)
        assert support_set(s.dims, triples) == s
        assert len(s) == len(triples) == np.count_nonzero(mask)
        assert all(triple in s for triple in triples)
        for outside in [(0, 1, 1), (-1, 1, 1), (n1 + 1, 1, 1), (1, n2 + 1, 1), (1, 1, n3 + 1)]:
            assert outside not in s
        wider = support_set((n1 + 1, n2, n3), triples)
        assert wider != s and not issubset(s, wider) and not issubset(wider, s)
        assert issubset(s, s) and issubset(SupportSet(np.zeros(s.dims, dtype=bool)), s)


def test_a_support_set_is_unequal_to_any_other_type():
    s = SupportSet(np.ones((1, 1, 1), dtype=bool))
    assert s.__eq__(((1, 1, 1),)) is NotImplemented
    assert s != ((1, 1, 1),) and s != [(1, 1, 1)]


def test_support_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        support(Tensor3(np.zeros((2, 2, 2))), -1.0)


def test_support_rejects_a_nan_tolerance():
    with pytest.raises(ValueError, match="^tol must be nonnegative$"):
        support(Tensor3(np.ones((2, 2, 2))), float("nan"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_a_group_factor_that_is_not_finite_is_a_value_error(value):
    c = np.eye(2, dtype=complex)
    c[0, 1] = value
    with pytest.raises(ValueError, match="^factor c entries must be finite$"):
        GroupTriple(np.eye(2), np.eye(2), c)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Tensor3(np.zeros((2, 2))), "expected 3 axes, got 2"),
        (lambda: GroupTriple(np.eye(2), np.ones((2, 3)), np.eye(2)), "factor b must be a square matrix"),
        (lambda: SupportSet(np.zeros((2, 2), dtype=bool)), "a support mask has 3 axes, got 2"),
    ],
    ids=["tensor-axes", "group-factor", "support-axes"],
)
def test_the_value_types_reject_arrays_of_the_wrong_shape(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
