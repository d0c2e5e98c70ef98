"""Null-space construction of the regular sine transform, used as an oracle.

Starting from a modified sine matrix whose last (alternating) row has
been traded for the constant row, each leaking row is zeroed in turn
and replaced with the unit null vector of the remaining rows, found by
singular value decomposition.  The result is orthonormal and regular.
This route is slow and entirely independent of the reflection-cascade
construction, which is what makes it a useful reference: the two must
agree up to row order and row signs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .regularity import rfst
from .transforms import OrthonormalTransform, _check_size

NULL_SV_RTOL = 1e-10
NULL_RESIDUAL_TOL = 1e-10
EQUIV_DEFAULT_TOL = 1e-8
RDST_MAX_SIZE = 512  # rdst(512) took 23 s on one BLAS thread; each doubling costs ~10x


def modified_dst(m: int) -> np.ndarray:
    """Rank-deficient starting matrix: constant row plus M-1 sine rows.

    The rows are linearly dependent (rank M-1): the constant row at
    index 0 lies in the span of the sine rows.
    """
    _check_size(m)
    m = int(m)
    row = np.arange(m)[:, None]
    col = np.arange(m)[None, :]
    rows = np.sqrt(2.0 / m) * np.sin(np.pi / m * row * (col + 0.5))
    rows[0, :] = np.sqrt(1.0 / m)
    return rows


def null_vector(rows: np.ndarray) -> np.ndarray:
    """Unit vector spanning the null space of a numerically rank M-1 matrix.

    Exactly one singular value may fall below 1e-10 times the largest;
    anything else is a structural failure.  The sign is normalized so
    the first nonzero entry is positive, and the residual |rows @ v| is
    checked before returning.
    """
    rows = np.asarray(rows, dtype=np.float64)
    _, singular_values, vt = np.linalg.svd(rows)
    near_zero = int(np.sum(singular_values < NULL_SV_RTOL * singular_values[0]))
    if near_zero != 1:
        raise ValueError(
            f"expected a one-dimensional null space, found {near_zero} "
            f"near-zero singular values"
        )
    v = vt[-1]
    lead = np.flatnonzero(np.abs(v) > 1e-9)[0]
    if v[lead] < 0:
        v = -v
    residual = float(np.abs(rows @ v).max())
    if residual > NULL_RESIDUAL_TOL:
        raise ValueError(f"null vector residual {residual:.3e} too large")
    return v


def rdst_stages(m: int) -> Iterator[np.ndarray]:
    """Yield the matrix after each odd-row replacement of the null-space design.

    Stage k zeroes row 2k+1, extracts the null vector of what remains,
    and reinstalls it; M/2 stages replace every odd row.  Sizes above
    RDST_MAX_SIZE are rejected: M/2 SVDs of M x M cost O(M^4).
    """
    _check_size(m)
    m = int(m)
    if m > RDST_MAX_SIZE:
        raise ValueError(
            f"rdst size {m} exceeds {RDST_MAX_SIZE}; the null-space construction "
            f"runs M/2 SVDs of M x M, O(M^4)"
        )
    rows = modified_dst(m)
    for k in range(m // 2):
        zeroed = rows.copy()
        zeroed[2 * k + 1, :] = 0.0
        rows[2 * k + 1, :] = null_vector(zeroed)
        yield rows.copy()


def rdst(m: int) -> OrthonormalTransform:
    """Regular sine transform built by repeated null-space row replacement."""
    for last in rdst_stages(m):
        pass
    return OrthonormalTransform(last, kind="RDST")


@dataclass(frozen=True)
class SignedPermEquivalence:
    """Witness that A equals B up to row order and row signs.

    Row m of A matches signs[m] times row perm[m] of B, with max-norm
    residual at most max_residual.
    """

    perm: np.ndarray
    signs: np.ndarray
    max_residual: float


def check_equiv_tol(tol: float) -> None:
    """Reject a NaN or negative tolerance, which no residual could be judged by."""
    if not tol >= 0.0:
        raise ValueError(f"equivalence tolerance must be a number >= 0, got {tol!r}")


def signed_perm_equivalent(
    a, b, tol: float = EQUIV_DEFAULT_TOL
) -> Optional[SignedPermEquivalence]:
    """Match rows of A onto signed rows of B; None when no perfect matching exists.

    Candidate pairs are scored by min(|a_m - b_p|_inf, |a_m + b_p|_inf)
    and resolved with an optimal assignment, so ties cannot derail the
    matching.  A None result is a negative answer, not an error; a
    NaN or negative tol raises ValueError.
    """
    check_equiv_tol(tol)
    from scipy.optimize import linear_sum_assignment  # 0.2 s to import; only this needs it

    a = a.as_matrix().entries
    b = b.as_matrix().entries
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    m = a.shape[0]
    cost = np.empty((m, m))
    plus_is_better = np.empty((m, m), dtype=bool)
    for row in range(m):
        d_plus = np.abs(b - a[row]).max(axis=1)
        d_minus = np.abs(b + a[row]).max(axis=1)
        cost[row] = np.minimum(d_plus, d_minus)
        plus_is_better[row] = d_plus <= d_minus
    rows, cols = linear_sum_assignment(cost)
    residuals = cost[rows, cols]
    if residuals.max() > tol:
        return None
    perm = np.empty(m, dtype=np.intp)
    perm[rows] = cols
    signs = np.where(plus_is_better[rows, cols], 1.0, -1.0)
    return SignedPermEquivalence(perm=perm, signs=signs, max_residual=float(residuals.max()))


def half_postprocessing_matrix(m: int) -> np.ndarray:
    """Even-index restriction of the densified cascade: a dense (M/2) x (M/2) orthogonal block.

    The cascade never touches an odd coefficient, so its densified form
    is the identity on odd indices and this block on even indices.
    Requires m >= 4.
    """
    cascade = rfst(m).cascade
    if cascade.target_size < 4:
        raise ValueError("half-size postprocessing requires size >= 4")
    return np.ascontiguousarray(cascade.as_matrix()[0::2, 0::2])


def apply_half_postprocessing(pp: np.ndarray, v, out=None):
    """Apply the half-size block to the even-coefficient vector (or its columns).

    On object arrays of instrumented scalars numpy's matmul starts each
    output row from its first product, so it costs M/2 multiplications
    and M/2 - 1 additions per row, which is the dense-half accounting
    model.  out, if given, receives the product.
    """
    return np.matmul(pp, v, out=out)


@dataclass(frozen=True, eq=False)
class DenseHalf:
    """The dense half-size postprocessing, with the regularity cascade's interface.

    matrix is half_postprocessing_matrix(M).  FastRegularTransform(
    DenseHalf(matrix)) is rfst(M) with this block where the cascade
    was: the R-DST's fast form, which the timing bench and the op
    counter run through the same calls as the cascade.  Unlike the
    cascade, the product needs an array as large as its input, so apply
    keeps one per input shape and layout, and per thread, so that
    threads may share an instance.  A fresh array per call is returned
    to the OS and faulted in again each time; that made the bench's
    dense half 8-15% slower against the cascade at M = 256 and 1024.
    """

    matrix: np.ndarray
    _local: threading.local = field(default_factory=threading.local, init=False, repr=False)

    @property
    def target_size(self) -> int:
        return 2 * len(self.matrix)

    def apply(self, v, inverse: bool = False):
        """Replace the even coefficients of v, a vector or an (M, n) block, in place; return v."""
        even = v[0::2]
        products = vars(self._local).setdefault("products", {})  # this thread's
        key = (even.shape, even.strides, even.dtype)
        if key not in products:
            products[key] = np.empty_like(even)  # in even's layout
        pp = self.matrix.T if inverse else self.matrix
        even[...] = apply_half_postprocessing(pp, even, products[key])
        return v
