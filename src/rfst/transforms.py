"""Classical block-transform matrices and planar reflection primitives.

The type-II cosine and sine transforms are both read off one cosine
table whose arguments are reduced exactly, as integers, before they are
scaled: the sine matrix is the cosine matrix with its rows reversed and
every odd input sample negated.  Sizes are restricted to powers of two
because that is what the reflection cascade built on top of these
matrices assumes.

The reflection primitive used throughout is the involutory planar map

    [ cos(theta)  sin(theta) ]
    [ sin(theta) -cos(theta) ]

acting on a pair of coordinates, which squares to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ORTHONORMALITY_TOL = 1e-12

KINDS = ("DCT2", "DST2", "HT", "RFST", "RDST", "CUSTOM")  # RFC2 ids are 1 + index: append only


def is_power_of_two(m: int) -> bool:
    return m >= 2 and (m & (m - 1)) == 0


def _check_size(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not is_power_of_two(int(m)):
        raise ValueError(f"transform size must be a power of two >= 2, got {m!r}")


def _check_columns(x: np.ndarray, m: int) -> None:
    """Reject x unless it is a length-m vector or a 2-D block of length-m columns."""
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a 2-D block, got {x.ndim} dimensions")
    if x.shape[0] != m:
        raise ValueError(f"expected leading dimension {m}, got {x.shape[0]}")


@dataclass(frozen=True)
class OrthonormalTransform:
    """Dense real orthonormal matrix tagged with how it was built.

    Row index is the output subband, column index the input sample.
    Construction verifies orthonormality (max |T T' - I| <= 1e-12, which
    bounds every row norm too, as the squared norms sit on the Gram
    diagonal) and that the size is a power of two.  The entry array is
    frozen read-only so instances can be shared freely, and so is its
    C-contiguous transpose, which _along builds on first use.
    """

    entries: np.ndarray
    kind: str = "CUSTOM"
    in_place = False  # not fields: _along writes to a separate array,
    post = None  # and no postprocessing follows it

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.float64, copy=True)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        _check_size(entries.shape[0])
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        gram_residual = self.orthonormality_residual()
        if gram_residual > ORTHONORMALITY_TOL:
            raise ValueError(
                f"matrix is not orthonormal: max |T T' - I| = {gram_residual:.3e}"
            )

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Transform a vector, or each column of a 2-D array.

        No pipeline of the package runs this; it stays as the dense core
        product that the benchmark's per-layer trace times (t.core.apply).
        """
        x = np.asarray(x, dtype=np.float64)
        _check_columns(x, self.size)
        return self.entries @ x

    @cached_property
    def _transposed(self) -> np.ndarray:
        """entries.T as a C-contiguous read-only copy, built on first read."""
        transposed = np.ascontiguousarray(self.entries.T)
        transposed.setflags(write=False)
        return transposed

    def _along(self, x: np.ndarray, y: np.ndarray, inverse: bool = False) -> None:
        """The matrix along axis 1 of x, shaped (n, M) or (a, M, b), written to y.

        The inverse applies the transpose.  Every product gets a
        C-contiguous matrix, entries or its cached transpose, never a
        transposed view: OpenBLAS's GEMM runs a transposed operand of
        small K more slowly, and one (8192, 8) @ (8, 8) product, a 32-row
        band of a 2048-wide plane at M=8, took 97 against 39 us with one
        thread (a shared 2-core x86-64 host, OpenBLAS 0.3.31).  On the
        pipeline's bands the results are the same bit for bit; products
        small enough for OpenBLAS's small-matrix kernels, such as a
        32 x 32 plane at M=32, may round differently from the view's.
        """
        if x.ndim == 2:  # x @ entries.T, or x @ entries in the inverse
            np.matmul(x, self.entries if inverse else self._transposed, out=y)
        else:  # entries @ x, or entries.T @ x in the inverse
            np.matmul(self._transposed if inverse else self.entries, x, out=y)

    def orthonormality_residual(self) -> float:
        """max |T T' - I|, with I subtracted in place so no M x M identity is formed."""
        gram = self.entries @ self.entries.T
        gram[np.diag_indices(self.size)] -= 1.0
        return float(np.abs(gram).max())

    def as_matrix(self) -> OrthonormalTransform:
        """Already dense; every transform answers as_matrix()."""
        return self


@dataclass(frozen=True)
class GivensReflection:
    """Planar reflection on coordinates (i, j) with i < j.

    The 2x2 block is [[cos t, sin t], [sin t, -cos t]], identity
    elsewhere.  The block squares to I, so the reflection is an
    involution.
    """

    i: int
    j: int
    theta: float

    def __post_init__(self):
        if not (0 <= self.i < self.j):
            raise ValueError(f"reflection indices must satisfy 0 <= i < j, got ({self.i}, {self.j})")


def reflect_pair(v, i: int, j: int, cos_t: float, sin_t: float) -> None:
    """Apply one reflection in place to rows/entries i and j of v.

    Works on 1-D vectors, on 2-D arrays (rows i and j are combined,
    all columns at once), and on object arrays of instrumented scalars.
    Costs exactly 4 multiplications and 2 additions per entry pair.
    """
    vi = v[i]
    vj = v[j]
    new_i = vi * cos_t + vj * sin_t
    new_j = vi * sin_t - vj * cos_t
    v[i] = new_i
    v[j] = new_j


def _cosine_table(m: int) -> np.ndarray:
    """Entries of the size-m type-II cosine transform, row k, column n.

    Row 0 is the constant row sqrt(1/m); row k > 0 holds
    sqrt(2/m) cos(pi/(2m) r) with r = k(2n+1) mod 4m reduced as an
    integer, so the argument stays below 2 pi and carries one rounding
    at any m.
    """
    _check_size(m)
    m = int(m)
    r = np.arange(m)[:, None] * (2 * np.arange(m) + 1) % (4 * m)
    table = np.sqrt(2.0 / m) * np.cos(np.pi / (2 * m) * r)
    table[0] = np.sqrt(1.0 / m)
    return table


def dct2(m: int) -> OrthonormalTransform:
    """Type-II cosine transform of size m."""
    return OrthonormalTransform(_cosine_table(m), kind="DCT2")


def dst2(m: int) -> OrthonormalTransform:
    """Type-II sine transform of size m: the cosine table, rows reversed, odd columns negated.

    Row k holds sqrt(2/m) sin(pi (k+1) (n + 1/2) / m), because
    cos((2n+1) pi/2 - x) = (-1)^n sin x; the last row, from the constant
    cosine row, is the alternating row sqrt(1/m) (-1)^n.
    """
    table = _cosine_table(m)[::-1]
    table[:, 1::2] *= -1.0
    return OrthonormalTransform(table, kind="DST2")


def hadamard(m: int) -> OrthonormalTransform:
    """Normalized Hadamard transform (entries +-1/sqrt(m), natural ordering).

    Entry (i, j) is (-1)^popcount(i & j) / sqrt(m): Sylvester's matrix,
    doubled as [[H, H], [H, -H]] in one array.
    """
    _check_size(m)
    m = int(m)
    entries = np.empty((m, m))
    entries[0, 0] = 1.0 / np.sqrt(m)
    n = 1
    while n < m:
        top = entries[:n, :n]
        entries[:n, n:2 * n] = top
        entries[n:2 * n, :n] = top
        entries[n:2 * n, n:2 * n] = -top
        n *= 2
    return OrthonormalTransform(entries, kind="HT")


def emit_matrix_text(entries: np.ndarray) -> str:
    """Serialize a matrix: one row per line, comma-separated, 17 significant digits."""
    entries = np.asarray(entries, dtype=np.float64)
    lines = [",".join(f"{x:.17g}" for x in row) for row in entries]
    return "\n".join(lines) + "\n"
