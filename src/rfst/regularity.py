"""Regularity constraint cascades and the fast regular sine transform.

An orthonormal transform is regular (order 1) when it sends the
constant signal to a single coefficient, so no DC energy leaks into the
AC subbands.  The sine transform is not regular: its DC response
alternates nonzero and zero entries.  The cascade built here zeroes the
leaked entries one planar reflection at a time, each angle read off the
current DC response as atan2(a[j], a[0]).  Because the sine transform
only leaks into even-indexed subbands, M/2 - 1 reflections on index
pairs (0, 2k) suffice, and appending them after the transform yields an
operator that is orthonormal, regular, and only marginally more
expensive than the plain transform.

This module also owns how rfst's sine core runs.  Below FFT_MIN_SIZE it
is the dense M x M product; from FFT_MIN_SIZE on it is scipy.fft's
orthonormal DST-II, O(M log M) per vector against the dense product's
O(M^2), run in place, and the dense matrix is never built.  forward(),
inverse() and the 2-D pipeline all run it through
FastRegularTransform._along; scipy.fft is imported on the FFT path
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.linalg.blas import drot, drotm, dscal

from .transforms import (
    GivensReflection,
    OrthonormalTransform,
    _check_size,
    dst2,
    reflect_pair,
)

OP_COUNT_STYLES = ("cascade", "dense_half")

# Block size from which rfst's sine core runs as an FFT (scipy.fft's DST-II)
# instead of a dense product.  Medians of 4 runs of 11 forward_2d/inverse_2d
# calls on a 2048^2 plane, forward/inverse ms, one BLAS thread on a shared
# 2-core x86-64 host, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31:
#   M        32      64     128     256     512    1024
#   dense   45/45   61/62   88/84 141/143 224/226 398/406
#   FFT     76/75   81/77  100/97 109/109 108/114 128/133
# From 256 on the FFT wins by 23% or more both ways; at 128 the dense core wins.
FFT_MIN_SIZE = 256


@dataclass(frozen=True)
class RegularityCascade:
    """Ordered reflections appended after a transform to remove DC leakage.

    Reflections are applied first to last.  The reduced cascade built
    for the sine transform has exactly M/2 - 1 reflections, the k-th
    acting on indices (0, 2k).
    """

    reflections: tuple[GivensReflection, ...]
    target_size: int

    def __post_init__(self):
        object.__setattr__(self, "reflections", tuple(self.reflections))
        _check_size(self.target_size)
        for g in self.reflections:
            if g.j >= self.target_size:
                raise ValueError(
                    f"reflection index {g.j} out of range for size {self.target_size}"
                )

    def __len__(self) -> int:
        return len(self.reflections)

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, float, float, np.ndarray], ...]:
        # (i, j, cos, sin, drotm's param): flag -1 takes the full 2x2 matrix H,
        # stored column-major after the flag
        terms = []
        for g in self.reflections:
            c, s = math.cos(g.theta), math.sin(g.theta)
            terms.append((g.i, g.j, c, s, np.array([-1.0, c, s, s, -c])))
        return tuple(terms)

    def apply(self, v, inverse: bool = False):
        """Stream the cascade through v in place and return v.

        v may be a 1-D vector, a 2-D array whose columns are independent
        input vectors, or an object array of instrumented scalars.  The
        inverse order works because each reflection is an involution.
        """
        if (
            isinstance(v, np.ndarray)
            and v.ndim == 2
            and v.dtype == np.float64
            and v.flags.c_contiguous
        ):
            n = v.shape[1]
            self.apply_flat(v.reshape(-1), n, lane=n, step=1, inverse=inverse)
            return v
        order = reversed(self._terms) if inverse else self._terms
        for i, j, c, s, _ in order:
            reflect_pair(v, i, j, c, s)
        return v

    def apply_flat(self, flat: np.ndarray, n: int, lane: int, step: int,
                   inverse: bool = False) -> None:
        """Run the cascade in place on n-element lanes of a contiguous 1-D float64 buffer.

        Coefficient k is the lane of n elements that starts at
        flat[k*lane] and advances by step: (lane, step) = (N, 1)
        reaches the rows of a coefficient-major (M, N) array, and
        (1, M) the columns of a segment-major (N, M) one.

        On strided lanes each reflection is one BLAS drotm with
        H = [[c, s], [s, -c]].  On contiguous lanes it is a BLAS dscal
        by -1 of the partner and a drot with angle -theta, the
        reflection written as a rotation after a negation.  With one
        OpenBLAS 0.3.31 thread on x86-64, drotm ran 2x slower than that
        pair on contiguous lanes (0.14 against 0.07 ms for rfst(8) on a
        512^2 plane) but 1.7x faster at stride 1024 (28 against 49 ms
        for rfst(1024) on a 2048^2 plane).
        """
        if n == 0:  # BLAS rejects any offset into an empty lane
            return
        order = reversed(self._terms) if inverse else self._terms
        for i, j, c, s, param in order:
            x, y = i * lane, j * lane
            if step == 1:
                dscal(-1.0, flat, n=n, offx=y)
                drot(flat, flat, c, -s, n=n, offx=x, offy=y, overwrite_x=1, overwrite_y=1)
            else:
                drotm(flat, flat, param, n=n, offx=x, incx=step, offy=y, incy=step,
                      overwrite_x=1, overwrite_y=1)

    def as_matrix(self) -> np.ndarray:
        """Dense matrix whose action equals the streamed cascade."""
        mat = np.eye(self.target_size)
        return self.apply(mat)


def _cascade(dc_response: np.ndarray, partners) -> RegularityCascade:
    """Reflections on (0, j), j in partners order, zeroing entry j of a DC response.

    dc_response is a transform's response to the constant input, T @ 1;
    it is consumed in place.  Each angle is atan2(a[j], a[0]) of the
    running response a, so the leading entry becomes
    +sqrt(a[0]^2 + a[j]^2) at every step.  Zero entries still get a
    (zero-angle) reflection.  Raises if the leading entry vanishes,
    since no reflection angle is defined then.
    """
    a = dc_response
    reflections = []
    for j in partners:
        if a[0] == 0.0:
            raise ValueError(
                "leading DC-response entry vanished; cannot derive a reflection angle"
            )
        theta = math.atan2(a[j], a[0])
        reflections.append(GivensReflection(0, j, theta))
        reflect_pair(a, 0, j, math.cos(theta), math.sin(theta))
    return RegularityCascade(tuple(reflections), a.size)


@dataclass(frozen=True)
class FastRegularTransform:
    """Sine transform followed by its regularity cascade, applied streaming.

    forward() maps the constant input to [sqrt(M), 0, ..., 0]; the extra
    cost over the plain transform is 4(M/2 - 1) multiplications and
    2(M/2 - 1) additions per vector.  Only the cascade is stored.  The
    sine core runs as _along says: the dense M x M core below
    FFT_MIN_SIZE, built on its first read, and the FFT from there on,
    where forward(), inverse() and the 2-D pipeline never build it; the
    cascade CSV and the op counts never read it either.  Immutable and
    safe to share.
    """

    cascade: RegularityCascade
    kind: ClassVar[str] = "RFST"

    @property
    def size(self) -> int:
        return self.cascade.target_size

    @property
    def in_place(self) -> bool:
        """Whether _along writes its output over its input: the FFT core, from FFT_MIN_SIZE on."""
        return self.size >= FFT_MIN_SIZE

    @cached_property
    def core(self) -> OrthonormalTransform:
        """The dense type-II sine transform, built and Gram-checked on first read."""
        return dst2(self.size)

    def _along(self, x: np.ndarray, y: np.ndarray, inverse: bool = False) -> None:
        """The sine core along axis 1 of x, shaped (n, M) or (a, M, b), written to y.

        Below FFT_MIN_SIZE this is the dense core's product.  From there
        on it is scipy.fft's orthonormal DST-II, run in place on x, so y
        must view x's memory in x's order.
        """
        if not self.in_place:
            return self.core._along(x, y, inverse)
        from scipy.fft import dst, idst  # 62 ms to import (43 of them scipy.special)

        res = (idst if inverse else dst)(x, type=2, axis=1, norm="ortho", overwrite_x=True)
        # scipy.fft writes an overwritable float64 input in place; copy back if it did not
        if res.ctypes.data != x.ctypes.data or res.strides != x.strides:
            np.copyto(x, res)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Core transform then cascade; columns of a 2-D input are independent."""
        return self._transform(x)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Exact inverse: reflections undone in reverse order, then the core's transpose."""
        return self._transform(y, inverse=True)

    def _transform(self, x, inverse: bool = False) -> np.ndarray:
        """forward() or inverse() of a vector or an (M, k) block, on a float64 copy of it."""
        x = np.array(x, dtype=np.float64, order="C")
        if x.ndim not in (1, 2):
            raise ValueError(f"expected a vector or a 2-D block, got {x.ndim} dimensions")
        if x.shape[0] != self.size:
            raise ValueError(f"expected leading dimension {self.size}, got {x.shape[0]}")
        if inverse:
            self.cascade.apply(x, inverse=True)
        y = x if self.in_place else np.empty_like(x)
        columns = (1, self.size, x.size // self.size)  # -1 cannot size an empty block
        self._along(x.reshape(columns), y.reshape(columns), inverse)
        return y if inverse else self.cascade.apply(y)

    def as_matrix(self) -> OrthonormalTransform:
        """Densified operator, tagged RFST; built and Gram-checked once per instance."""
        return self._matrix

    @cached_property
    def _matrix(self) -> OrthonormalTransform:
        entries = self.cascade.apply(self.core.entries.copy())
        return OrthonormalTransform(entries, kind=self.kind)


def rfst(m: int) -> FastRegularTransform:
    """Regular fast sine transform of size m: the sine core plus its reduced cascade.

    The angles come from the closed-form DC response of the sine
    transform, so no M x M matrix is built: since
    sum_n sin((2n+1)x) = sin^2(Mx)/sin(x), entry k is
    sqrt(2/M)/sin(pi(k+1)/(2M)) for even k and 0 for odd k, the last
    (alternating) row included.  The odd indices are therefore skipped:
    the k-th reflection acts on (0, 2k), k = 1..M/2-1.  For m = 2 the
    transform is already regular and the cascade is empty.
    """
    _check_size(m)
    m = int(m)
    dc_response = np.zeros(m)
    dc_response[0::2] = np.sqrt(2.0 / m) / np.sin(np.pi / (2 * m) * np.arange(1, m, 2))
    return FastRegularTransform(cascade=_cascade(dc_response, range(2, m, 2)))


@dataclass(frozen=True)
class OpCountReport:
    """Extra multiplications/additions of a postprocessing style, beyond the core."""

    style: str
    size: int
    mul: int
    add: int


def extra_op_count(m: int, style: str) -> OpCountReport:
    """Analytic extra operation counts of the two postprocessing styles.

    cascade:    2(M-2) multiplications, M-2 additions
    dense_half: M^2/4 multiplications, (M-2)M/4 additions

    Zero-angle reflections are charged at full cost; the cascade length
    is always M/2 - 1.
    """
    _check_size(m)
    m = int(m)
    if m < 4:
        raise ValueError("operation counts are defined for sizes >= 4")
    if style == "cascade":
        return OpCountReport(style, m, 2 * (m - 2), m - 2)
    if style == "dense_half":
        return OpCountReport(style, m, m * m // 4, (m - 2) * m // 4)
    raise ValueError(f"unknown op-count style {style!r}; expected one of {OP_COUNT_STYLES}")


def emit_cascade_csv(cascade: RegularityCascade) -> str:
    """Serialize a cascade as CSV lines `k,i,j,theta` with a header row."""
    lines = ["k,i,j,theta"]
    for k, g in enumerate(cascade.reflections, start=1):
        lines.append(f"{k},{g.i},{g.j},{g.theta:.17g}")
    return "\n".join(lines) + "\n"
