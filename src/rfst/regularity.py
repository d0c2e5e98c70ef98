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

This module also owns how rfst runs.  The paper appends the reflections
because it assumes a fast sine transform.  Below FFT_MIN_SIZE the core
is a dense M x M product anyway, so rfst runs one product with the
folded matrix, the cascade applied to the rows of the sine matrix, and
no cascade pass follows.  From FFT_MIN_SIZE on the core is scipy.fft's
orthonormal DST-II, O(M log M) per vector against the dense product's
O(M^2), run in place, and the cascade follows as a pass of its own;
neither dense matrix is built.  forward(), inverse() and the 2-D
pipeline all run the core through FastRegularTransform._along and the
pass, if any, through its post, except that the 2-D pipeline runs the
cascade's row pass inside its column pass, a tile of columns at a time
(FastRegularTransform.carried, RegularityCascade.apply_lane).  scipy.fft
is imported on the FFT path only, and scipy.linalg, whose BLAS runs the
cascade pass on a block, on the first such pass.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .transforms import (
    GivensReflection,
    OrthonormalTransform,
    _check_columns,
    _check_size,
    dst2,
    reflect_pair,
)

OP_COUNT_STYLES = ("cascade", "dense_half")

# Block size from which rfst runs its sine core as an FFT (scipy.fft's DST-II)
# and then the cascade, its row pass inside the column pass's tiles
# (imaging._tiled_columns), instead of one dense product with the folded
# matrix.  Medians of 6 runs of 11 forward_2d/inverse_2d calls on a 2048^2
# plane, each call into the plane the one before released, forward/inverse ms,
# one BLAS thread on a shared 2-core x86-64 host, numpy 2.4.6, scipy 1.17.1,
# OpenBLAS 0.3.31; two runs on 2 CPUs, one on 1:
#   M                            128          256            512
#   folded dense, 2 CPUs   43-44/41-42  69-84/66-80  130-141/125-132
#   FFT + cascade, 2 CPUs  84-92/91-95  52-68/56-70       53/54-56
#   folded dense, 1 CPU          42/41        72/67        131/125
#   FFT + cascade, 1 CPU         71/74        64/66          61/61
# From 512 on the FFT wins by more than half, and at 256 by a fifth on 2 CPUs
# and by a tenth on one, where the runs overlap (61-70 against 69-79 ms
# forward).  At 128 the tiles' calls cost more than their work, and the folded
# product wins by half.  Before the tiles, one CPU ran M=256 faster folded, 66/62
# against 75/79 ms.  No benchmark workload runs at 256, so the switch stays.
FFT_MIN_SIZE = 256

_BLAS_NAMES = ("drot", "drotm", "dscal")


def _bind_blas() -> dict:
    """The module globals, with drot, drotm and dscal of scipy.linalg.blas bound unless they are.

    They are bound on the first BLAS cascade pass, not at import:
    scipy.linalg takes 0.2-0.27 s to import in a fresh interpreter (0.06 s
    after scipy.fft), and only the cascade's own pass, from FFT_MIN_SIZE
    on, runs its BLAS.  A name already bound, or patched, is kept.
    """
    names = globals()
    if not all(name in names for name in _BLAS_NAMES):
        from scipy.linalg import blas

        for name in _BLAS_NAMES:
            names.setdefault(name, getattr(blas, name))
    return names


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
        input vectors, or an object array of instrumented scalars.  A
        float64 (M, n) block runs through BLAS when it is C-ordered
        (subband-major, each coefficient one contiguous row) or
        F-ordered (the transpose of a segment-major (n, M) block, each
        coefficient a stride-M column).  The inverse order works because
        each reflection is an involution.

        On strided columns each reflection is one BLAS drotm with
        H = [[c, s], [s, -c]].  On contiguous rows it is a BLAS dscal
        by -1 of the partner and a drot with angle -theta, the
        reflection written as a rotation after a negation.  With one
        OpenBLAS 0.3.31 thread on x86-64, drotm ran 2x slower than that
        pair on contiguous rows (0.14 against 0.07 ms for rfst(8) on a
        512^2 plane) but 1.7x faster at stride 1024 (28 against 49 ms
        for rfst(1024)'s row pass on a 2048^2 plane).  Still, that row
        pass at stride 1024 took 22-26 ms, against 3.5-4.6 ms for the
        same drotm calls run tile by tile on a cache-sized buffer
        (apply_lane), which is how the 2-D pipeline runs rfst's; apply
        runs it on the bench's unfolded route.
        """
        if not (isinstance(v, np.ndarray) and v.ndim == 2 and v.dtype == np.float64):
            return self.reflect(v, inverse)
        n = v.shape[1]
        # coefficient k is the n elements of flat from k * lane on, step apart
        if v.flags.c_contiguous:
            flat, lane, step = v.reshape(-1), n, 1
        elif v.flags.f_contiguous:
            flat, lane, step = v.T.reshape(-1), 1, len(v)
        else:
            return self.reflect(v, inverse)
        if n == 0:  # BLAS rejects any offset into an empty lane
            return v
        _bind_blas()
        order = reversed(self._terms) if inverse else self._terms
        for i, j, c, s, param in order:
            x, y = i * lane, j * lane
            if step == 1:
                dscal(-1.0, flat, n=n, offx=y)
                drot(flat, flat, c, -s, n=n, offx=x, offy=y, overwrite_x=1, overwrite_y=1)
            else:
                drotm(flat, flat, param, n=n, offx=x, incx=step, offy=y, incy=step,
                      overwrite_x=1, overwrite_y=1)
        return v

    @cached_property
    def _lane_partners(self) -> tuple[int, ...] | None:
        """Each reflection's j, in order, if every one pairs coefficient 0 with a partner past the last one's; else None.

        Such a cascade, the reduced one among them, can run along a
        segment's coefficients a few partners at a time (apply_lane).
        """
        partners = tuple(g.j for g in self.reflections)
        if any(g.i != 0 for g in self.reflections) or partners != tuple(sorted(set(partners))):
            return None
        return partners

    def apply_lane(self, lane: np.ndarray, block: np.ndarray, first: int, count: int,
                   inverse: bool = False) -> None:
        """The reflections whose partner j is in first..first + count - 1, in place on lane and block.

        block is a C-ordered float64 (n, p) array whose column c < count
        holds coefficient first + c of n vectors, and lane a contiguous
        float64 vector of their coefficient 0, which the reflections
        carry from one call to the next.  Each reflection is one BLAS
        drotm, from lane to block's column j - first at stride p, as
        apply runs it on strided columns; the inverse runs them in
        reverse order.  Only a cascade with _lane_partners runs here.
        """
        partners = self._lane_partners
        terms = self._terms[bisect.bisect_left(partners, first):bisect.bisect_left(partners, first + count)]
        _bind_blas()
        flat, pitch, n = block.reshape(-1), block.shape[1], len(lane)
        for _, j, _, _, param in (reversed(terms) if inverse else terms):
            # positional: f2py parses keywords at twice the cost, 1.1 against 0.5 us a call
            drotm(lane, flat, param, n, 0, 1, j - first, pitch, 1, 1)

    def reflect(self, v, inverse: bool = False):
        """apply's route without BLAS: reflect_pair on whole rows of v, in place; returns v."""
        order = reversed(self._terms) if inverse else self._terms
        for i, j, c, s, _ in order:
            reflect_pair(v, i, j, c, s)
        return v

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
    """Sine transform followed by its regularity cascade.

    forward() maps the constant input to [sqrt(M), 0, ..., 0]; streamed,
    the extra cost over the plain transform is 4(M/2 - 1)
    multiplications and 2(M/2 - 1) additions per vector.  Only the
    cascade is stored.  It may be any postprocessing with the cascade's
    target_size and apply(v, inverse=False), such as rdst.DenseHalf,
    the dense half-size block that the timing bench runs in its place.
    The size picks the route, as _along says: below FFT_MIN_SIZE one
    dense product with the folded matrix, the cascade applied to the
    rows of dst2(M), built once on first use and returned by
    as_matrix(); from FFT_MIN_SIZE on the FFT core, then the cascade as
    its own pass, where forward(), inverse() and the 2-D pipeline never
    build the dense core or the folded matrix; the cascade CSV and the
    op counts never read them either.  On the FFT core the 2-D pipeline
    runs a RegularityCascade's row pass inside the column pass, one tile
    of columns at a time (carried); any other postprocessing runs its
    row pass on its own.  Immutable, and with a RegularityCascade safe
    to share.
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

    @property
    def post(self):
        """The postprocessing left to run after each pass of _along: the cascade, or None.

        None below FFT_MIN_SIZE, where _along's matrix holds the cascade.
        """
        return self.cascade if self.in_place else None

    @property
    def carried(self) -> RegularityCascade | None:
        """The cascade whose row pass the 2-D pipeline carries through its column tiles, or None.

        post, when it is a RegularityCascade that pairs coefficient 0
        with one partner after another (apply_lane), as rfst's does; the
        pipeline then runs no row pass of post on its own.  None for any
        other postprocessing, and below FFT_MIN_SIZE.
        """
        post = self.post
        if isinstance(post, RegularityCascade) and post._lane_partners is not None:
            return post
        return None

    @cached_property
    def core(self) -> OrthonormalTransform:
        """The dense type-II sine transform, built and Gram-checked on first read."""
        return dst2(self.size)

    def _along(self, x: np.ndarray, y: np.ndarray, inverse: bool = False) -> None:
        """The transform's core along axis 1 of x, shaped (n, M) or (a, M, b), written to y.

        Below FFT_MIN_SIZE this is the folded matrix's product, the
        postprocessing included.  From there on it is the sine core
        alone, as _sine_along runs it, and post is still to run.
        """
        if self.in_place:
            self._sine_along(x, y, inverse)
        else:
            self._matrix._along(x, y, inverse)

    def _sine_along(self, x: np.ndarray, y: np.ndarray, inverse: bool = False) -> None:
        """The sine core alone along axis 1 of x, shaped (n, M) or (a, M, b), written to y.

        Below FFT_MIN_SIZE this is the dense core's product.  From there
        on it is scipy.fft's orthonormal DST-II, run in place on x, so y
        must view x's memory in x's order.  Along a band's columns the
        2-D pipeline hands it one tile at a time, copied to a pitch that
        is not a power of two (imaging._tiled_columns): at the band's own
        16 KiB pitch (2048 wide) this DST took 16.8-18.9 ms per 1024 x
        2048 band, against 8.4-8.7 ms at a 16,448-byte pitch (medians of
        21, one thread).
        """
        if not self.in_place:
            return self.core._along(x, y, inverse)
        from scipy.fft import dst, idst  # 0.19-0.32 s to import, scipy.special 0.04-0.08 s

        res = (idst if inverse else dst)(x, type=2, axis=1, norm="ortho", overwrite_x=True)
        # scipy.fft writes an overwritable float64 input in place; copy back if it did not
        if res.__array_interface__["data"] != x.__array_interface__["data"] or res.strides != x.strides:
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
        _check_columns(x, self.size)
        post = self.post
        if inverse and post is not None:
            post.apply(x, inverse=True)
        y = x if self.in_place else np.empty_like(x)
        columns = (1, self.size, x.size // self.size)  # -1 cannot size an empty block
        self._along(x.reshape(columns), y.reshape(columns), inverse)
        if not inverse and post is not None:
            post.apply(y)
        return y

    def as_matrix(self) -> OrthonormalTransform:
        """Densified operator, tagged RFST; built and Gram-checked once per instance."""
        return self._matrix

    @cached_property
    def _matrix(self) -> OrthonormalTransform:
        """The folded matrix: the postprocessing applied to the rows of the dense sine core."""
        entries = self.core.entries.copy()
        post = self.cascade
        # the cascade's reflect_pair route needs no BLAS, so the dense path never loads scipy.linalg
        (post.reflect if isinstance(post, RegularityCascade) else post.apply)(entries)
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
