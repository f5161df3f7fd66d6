"""Dense complex order-3 tensors and the factor-wise group action.

All indices in public interfaces (supports, JSON) are 1-based; storage is a
numpy array indexed from 0. Values are immutable after construction, so
everything here is safe to share across threads.

`tensor_from_doc` reads a JSON tensor document, which `jsonio` writes. It
checks the entries' types, bounds and duplicates as whole arrays; at any bad
entry it reads the entries again one at a time, to name the first bad one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

Triple = tuple[int, int, int]

SUPPORT_TOL = 1e-9  # relative cutoff for support extraction of float tensors
INVERTIBILITY_TOL = 1e-12  # smallest/largest singular value ratio
MAX_ENTRIES = 2**20  # largest tensor a JSON document may declare


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Tensor3:
    """A dense complex tensor with three indices."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValueError(f"expected 3 axes, got {arr.ndim}")
        # |T|^2 is finite exactly when no entry is infinite or NaN and the sum does not overflow.
        if not np.isfinite(np.vdot(arr, arr)):
            if np.all(np.isfinite(arr.view(np.float64))):
                raise ValueError("the squared norm of the tensor overflows the float range")
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def dims(self) -> Triple:
        return self.entries.shape  # type: ignore[return-value]


def from_coefficients(dims: Triple, coeffs: dict[Triple, complex]) -> Tensor3:
    """Build a tensor from {(i, j, k): value} with 1-based triples."""
    arr = np.zeros(dims, dtype=np.complex128)
    for (i, j, k), value in coeffs.items():
        arr[i - 1, j - 1, k - 1] = value
    return Tensor3(arr)


@dataclass(frozen=True, eq=False)
class GroupTriple:
    """Triple of invertible matrices acting factor-wise on a tensor."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c"):
            m = np.ascontiguousarray(getattr(self, name), dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"factor {name} must be a square matrix")
            if not np.isfinite(m).all():  # the SVD would fail on a NaN and pass an inf
                raise ValueError(f"factor {name} entries must be finite")
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] <= INVERTIBILITY_TOL * s[0]:
                raise ValueError(f"factor {name} is numerically singular")
            object.__setattr__(self, name, _freeze(m))

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.a, self.b, self.c)


def apply(g: GroupTriple, t: Tensor3) -> Tensor3:
    """Trilinear basis change (A, B, C) . T = (A x B x C) T."""
    n1, n2, n3 = t.dims
    if g.a.shape[0] != n1 or g.b.shape[0] != n2 or g.c.shape[0] != n3:
        raise ValueError(
            f"group factor sizes {(g.a.shape[0], g.b.shape[0], g.c.shape[0])} "
            f"do not match tensor dims {t.dims}"
        )
    return Tensor3(_apply_array(g.factors, t.entries))


def _apply_array(factors, arr: np.ndarray) -> np.ndarray:
    """(A, B, C) . arr on plain arrays, as matmuls: A on the first flattening,
    B on each slice along the first axis, C^T from the right."""
    a, b, c = factors
    return b @ (a @ arr.reshape(arr.shape[0], -1)).reshape(arr.shape) @ c.T


# Axis orders that bring each axis to the front and keep the other two in
# order: the layouts np.moveaxis(arr, axis, 0) builds, without its argument
# handling.
_FLATTENING_ORDERS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _flattening(arr: np.ndarray, axis: int) -> np.ndarray:
    """Flattening of a 3-axis array along the 0-based `axis`."""
    return arr.transpose(_FLATTENING_ORDERS[axis]).reshape(arr.shape[axis], -1)


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Set of 1-based index triples inside the box [n1]x[n2]x[n3], held as a
    read-only boolean mask of shape dims, so it holds no triple outside the box.

    Iteration runs over the mask in C order, which is the sorted triple order.
    """

    mask: np.ndarray

    def __post_init__(self):
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        if mask.ndim != 3:
            raise ValueError(f"a support mask has 3 axes, got {mask.ndim}")
        object.__setattr__(self, "mask", _freeze(mask))

    @property
    def dims(self) -> Triple:
        return self.mask.shape  # type: ignore[return-value]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __iter__(self) -> Iterator[Triple]:
        return map(tuple, (np.argwhere(self.mask) + 1).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupportSet):
            return NotImplemented
        return bool(np.array_equal(self.mask, other.mask))  # False for other dims


def support(t: Tensor3, tol: float = SUPPORT_TOL) -> SupportSet:
    """Triples where |T_ijk| exceeds tol times the largest entry magnitude."""
    if not tol >= 0:  # negated so that a NaN is refused too
        raise ValueError("tol must be nonnegative")
    mags = np.abs(t.entries)
    peak = mags.max() if mags.size else 0.0
    return SupportSet(mags > tol * peak)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm, computed as np.linalg.norm's default path does and
    equal to it bit for bit, without its argument handling."""
    v = a.ravel(order="K")
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _normal_range(arr: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(arr * 2**k, its norm, k) for the entries array of a tensor. k is 0, and
    arr untouched, unless arr is nonzero and |arr|^2 falls below the smallest
    normal float; then the exact power of two 2**k brings the peak entry into
    [1/2, 1). Moment maps, lambda and residuals do not change with scale.
    """
    nrm = _norm(arr)
    if nrm * nrm >= sys.float_info.min or not arr.any():
        return arr, nrm, 0
    scaled, k = _unit_peak(arr)
    return scaled, _norm(scaled), k


def _unit_peak(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(arr * 2**k, k), for the exact power of two that puts the peak entry in [1/2, 1)."""
    k = -math.frexp(float(np.abs(arr).max()))[1]
    return np.ldexp(arr.view(np.float64), k).view(np.complex128), k


# --- JSON interchange -------------------------------------------------------
#
# {"dims": [n1, n2, n3], "entries": [{"i": 1, "j": 2, "k": 3, "re": 0.5, "im": 0.0}, ...]}
# Omitted entries are zero; indices are 1-based; a duplicated (i, j, k) is an error.


def tensor_from_doc(doc: dict) -> Tensor3:
    if not (isinstance(doc, dict) and isinstance(doc.get("dims"), list)
            and isinstance(doc.get("entries", []), list)):
        raise ValueError("a tensor document is a JSON object with 'dims' and 'entries' lists")
    # Types are compared exactly: json.load reads true and false as bools, an int subclass.
    dims = tuple(doc["dims"])
    if not all(type(n) is int for n in dims):
        raise ValueError(f"bad dims {doc['dims']!r}: each must be a JSON integer "
                         "(true and false are not numbers)")
    if len(dims) != 3 or any(n < 1 for n in dims):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    if dims[0] * dims[1] * dims[2] > MAX_ENTRIES:
        raise ValueError(f"dims {dims} exceed the limit of {MAX_ENTRIES} entries")
    entries = doc.get("entries", [])
    arr = _read_entries(dims, entries)
    if arr is None:
        arr = _read_entries_one_by_one(dims, entries)
    return Tensor3(arr)


def _read_entries(dims: Triple, entries: list) -> np.ndarray | None:
    """The entries array, read field by field and checked as whole arrays; None
    at any bad entry, which `_read_entries_one_by_one` then names."""
    try:
        i, j, k = ([entry[key] for entry in entries] for key in "ijk")
        re = [entry.get("re", 0.0) for entry in entries]
        im = [entry.get("im", 0.0) for entry in entries]
        if not (set(map(type, i + j + k)) <= {int} and set(map(type, re + im)) <= {int, float}):
            return None
        # Raises a ValueError for an index outside the box.
        linear = np.ravel_multi_index(np.array([i, j, k], dtype=np.int64) - 1, dims)
        # float(re) + 1j * float(im), bit for bit; an infinite im gives a NaN, which
        # Tensor3 refuses, as Python does without a warning.
        with np.errstate(invalid="ignore"):
            values = np.array(re, dtype=np.float64) + 1j * np.array(im, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    # A duplicate leaves fewer cells set than entries. Sorting would find it too,
    # but the first sort of a process pages in 0.25-1.6 MB.
    size = dims[0] * dims[1] * dims[2]
    seen = np.zeros(size, dtype=bool)
    seen[linear] = True
    if np.count_nonzero(seen) != len(linear):
        return None
    arr = np.zeros(size, dtype=np.complex128)
    arr[linear] = values
    return arr.reshape(dims)


def _read_entries_one_by_one(dims: Triple, entries: list) -> np.ndarray:
    """The entries array, read one entry at a time; the first bad entry is a ValueError."""
    arr = np.zeros(dims, dtype=np.complex128)
    seen = set()
    for entry in entries:
        try:
            i, j, k = entry["i"], entry["j"], entry["k"]
            re, im = entry.get("re", 0.0), entry.get("im", 0.0)
            if not (all(type(x) is int for x in (i, j, k))
                    and all(type(x) in (int, float) for x in (re, im))):
                raise TypeError("i, j and k must be JSON integers and re and im JSON numbers "
                                "(true and false are not numbers)")
            value = float(re) + 1j * float(im)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"bad entry {entry!r}: {exc}") from exc
        if not (1 <= i <= dims[0] and 1 <= j <= dims[1] and 1 <= k <= dims[2]):
            raise ValueError(f"index ({i},{j},{k}) outside dims {dims}")
        if (i, j, k) in seen:
            raise ValueError(f"duplicate entry at ({i},{j},{k})")
        seen.add((i, j, k))
        arr[i - 1, j - 1, k - 1] = value
    return arr
