"""Young labels and Young's lattice combinatorics.

Everything in this module is exact integer/rational arithmetic; no floats.
Partitions are stored padded to exactly ``d`` parts so that row indices
``j in {0, ..., d-1}`` are always addressable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

import numpy as np


class InvalidPartitionError(ValueError):
    """Raised when a box addition would break the non-increasing property."""


@dataclass(frozen=True, order=True)
class Partition:
    """A partition of n into at most d parts, padded with trailing zeros."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) < 2:
            raise ValueError(f"need at least 2 rows, got {parts}")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative row length in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"rows must be non-increasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def d(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def from_string(cls, s: str) -> "Partition":
        return cls(tuple(int(t) for t in s.split(",")))


def add_box(lam: Partition, j: int) -> Partition:
    """Return lam + e_j, raising InvalidPartitionError when the result
    would not be non-increasing (e.g. (1,1) + e_1)."""
    if not 0 <= j < lam.d:
        raise InvalidPartitionError(f"row index {j} out of range for d={lam.d}")
    if j >= 1 and lam.parts[j - 1] == lam.parts[j]:
        raise InvalidPartitionError(f"{lam} + e_{j} is not a valid partition")
    parts = list(lam.parts)
    parts[j] += 1
    return Partition(tuple(parts))


def valid_rows(lam: Partition) -> list[int]:
    """Row indices j for which lam + e_j is a valid partition, ascending."""
    return [j for j in range(lam.d)
            if j == 0 or lam.parts[j - 1] > lam.parts[j]]


def one_box(d: int) -> Partition:
    """The partition (1, 0, ..., 0) every lattice path starts from."""
    return Partition((1,) + (0,) * (d - 1))


@dataclass(frozen=True)
class LatticePath:
    """A path in Young's lattice from (1, 0, ...) encoded by its steps."""

    steps: tuple[int, ...]

    def __str__(self) -> str:
        return _path_texts(np.array([self.steps], dtype=np.intp),
                           max(self.steps, default=0) + 1)[0]

    def endpoint(self, d: int) -> Partition:
        """The label lam^n the path reaches from (1,0,...); a step off
        Young's lattice raises InvalidPartitionError, as add_box does."""
        parts = [1] + [0] * (d - 1)
        for j in self.steps:
            if not 0 <= j < d:
                raise InvalidPartitionError(f"row index {j} out of range for d={d}")
            if j >= 1 and parts[j - 1] == parts[j]:
                raise InvalidPartitionError(
                    f"{','.join(map(str, parts))} + e_{j} is not a valid partition")
            parts[j] += 1
        return Partition(tuple(parts))


@functools.lru_cache(maxsize=32)
def _step_names(d: int) -> np.ndarray:
    """The names of the steps 0 .. d-1 as a read-only (d, w) byte table,
    w = len(str(d-1)): each name right-aligned and padded with NUL.  The
    tables of the 32 latest d are kept, d w bytes each, so that a short
    path's text does not pay for its table."""
    w = len(str(d - 1))
    return np.frombuffer("".join(str(j).rjust(w, "\0") for j in range(d)).encode(),
                         dtype=np.uint8).reshape(d, w)


def _path_texts(paths: np.ndarray, d: int) -> list[str]:
    """The text of each row of `paths`, an (m, l) array of integers in
    0 .. d-1: the text of each step, joined by commas.  Every step's name
    is gathered from the table of the d names (_step_names); each step is
    followed by a comma, the last of a row by a newline, and the NULs are
    dropped from the bytes of the whole array before it is split into
    rows."""
    m, length = paths.shape
    if not length:  # the paths of one qudit
        return [""] * m
    names = _step_names(d)
    w = names.shape[1]
    text = np.empty((m, length, w + 1), dtype=np.uint8)
    text[..., :w] = names.take(paths, axis=0)
    text[..., w] = ord(",")
    text[:, -1, w] = ord("\n")
    return text.tobytes().replace(b"\0", b"").decode().split("\n")[:-1]


def _hooks(lam: Partition) -> Iterator[int]:
    parts = [p for p in lam.parts if p > 0]
    ncols = parts[0] if parts else 0
    col_heights = [sum(1 for p in parts if p > c) for c in range(ncols)]
    for r, row_len in enumerate(parts):
        for c in range(row_len):
            yield (row_len - c - 1) + (col_heights[c] - r - 1) + 1


def dim_symmetric(lam: Partition) -> int:
    """dim P_lam by the hook length formula, exact."""
    if lam.n < 1:
        raise ValueError("need at least one box")
    num = factorial(lam.n)
    den = 1
    for h in _hooks(lam):
        den *= h
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("hook product does not divide n!")
    return q


def dim_unitary(lam: Partition) -> int:
    """dim Q^d_lam, d = lam.d, by the hook-content product formula, exact."""
    num = 1
    den = 1
    for i in range(lam.d):
        for j in range(i + 1, lam.d):
            num *= lam.parts[i] - lam.parts[j] + j - i
            den *= j - i
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("hook-content product is not integral")
    return q


def partitions_of(n: int, d: int) -> list[Partition]:
    """All partitions of n with at most d parts, descending lex order.
    Each one after the first, (n, 0, ..., 0), comes from the one before by
    taking a box off the last row that can give one to the rows below it
    and filling those rows greedily; O(d) work each, with no recursion,
    so that any d works."""
    if n < 0 or (d < 1 and n > 0):
        return []
    parts = [n] + [0] * (d - 1) if d > 0 else []
    out = []
    while True:
        out.append(Partition(tuple(parts)))
        below = 0  # the boxes in the rows below row i
        for i in range(d - 2, -1, -1):
            below += parts[i + 1]
            if below + 1 <= (parts[i] - 1) * (d - 1 - i):
                break
        else:
            return out
        parts[i] -= 1
        below += 1
        for r in range(i + 1, d):
            parts[r] = min(parts[i], below)
            below -= parts[r]


def schur_weyl_weight(lam: Partition) -> Fraction:
    """Probability of lam under the maximally mixed n-qudit state:
    dim P_lam * dim Q^d_lam / d^n with d = lam.d, exact."""
    return Fraction(dim_symmetric(lam) * dim_unitary(lam), lam.d ** lam.n)
