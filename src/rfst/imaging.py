"""Separable block transforms on grayscale images, plus the timing bench.

A 2-D block transform maps every M x M block B of a plane to
P(D B D')P', where D is the dense core matrix and P a postprocessing
step on each length-M coefficient vector: the reflection cascade of a
fast regular transform, nothing for a plain orthonormal matrix, or the
dense half-size matrix in the timing bench.  forward_2d, inverse_2d and
the bench all run one pipeline, a row pass and then a column pass.

Each pass multiplies the core into a coefficient-major (M x H*W/M)
workspace, one contiguous row per subband, which is the layout in which
the cascade runs as BLAS plane rotations; then it copies the workspace
back into the plane.  The product reads the plane's segments in place
through strided views (a transposed operand for the row pass, one
batched product per block row for the column pass), so the plane is
never gathered into a segment matrix.  The inverse runs the adjoint
passes in reverse order.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rdst import _half_block
from .regularity import FastRegularTransform, rfst
from .transforms import OrthonormalTransform, _check_size

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # BLAS threads are then left as the environment sets them
    threadpool_limits = None

COEFF_MAGIC = b"RFC1"


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 2 or pixels.dtype != np.uint8:
            raise ValueError("image pixels must be a 2-D uint8 array")
        object.__setattr__(self, "pixels", pixels)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class CoeffPlane:
    """Per-block transform coefficients stored in place of each block."""

    values: np.ndarray
    block: int

    def __post_init__(self):
        _check_size(self.block)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("coefficient plane must be 2-D")
        h, w = values.shape
        if h == 0 or w == 0:
            raise ValueError(f"empty coefficient plane {w}x{h}")
        if h % self.block or w % self.block:
            raise ValueError(
                f"plane dimensions {w}x{h} not divisible by block size {self.block}"
            )
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


def _payload(data: bytes, offset: int, dtype, shape, what: str) -> np.ndarray:
    """The payload filling data from offset to its end, as one owned C-ordered copy."""
    count = shape[0] * shape[1]
    end = offset + np.dtype(dtype).itemsize * count
    if len(data) < end:
        raise ValueError(f"truncated {what}")
    if len(data) > end:
        raise ValueError(f"trailing bytes after {what}")
    return np.frombuffer(data, dtype, count, offset).reshape(shape).copy()


def emit_pgm(img: GrayImage) -> bytes:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return b"".join((header, np.ascontiguousarray(img.pixels)))


def parse_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) PGM with maxval up to 255; comments are allowed."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        return data[start:pos]

    if next_token() != b"P5":
        raise ValueError("not a binary PGM (missing P5 magic)")
    width = int(next_token())
    height = int(next_token())
    maxval = int(next_token())
    if width <= 0 or height <= 0:
        raise ValueError("bad PGM dimensions")
    if not 0 < maxval <= 255:
        raise ValueError(f"unsupported PGM maxval {maxval} (8-bit only)")
    pos += 1  # single whitespace byte separating header from raster
    pixels = _payload(data, pos, np.uint8, (height, width), "PGM raster")
    if maxval < 255 and pixels.max() > maxval:
        raise ValueError(f"PGM pixel value {pixels.max()} exceeds maxval {maxval}")
    return GrayImage(pixels)


def read_pgm(path) -> GrayImage:
    return parse_pgm(Path(path).read_bytes())


def write_pgm(img: GrayImage, path) -> None:
    Path(path).write_bytes(emit_pgm(img))


def emit_coeff_file(plane: CoeffPlane) -> bytes:
    header = np.array([plane.width, plane.height, plane.block, 0], dtype="<u4")
    return b"".join((COEFF_MAGIC, header, np.ascontiguousarray(plane.values, dtype="<f8")))


def parse_coeff_file(data: bytes) -> CoeffPlane:
    if data[:4] != COEFF_MAGIC:
        raise ValueError("not a coefficient file (bad magic)")
    if len(data) < 20:
        raise ValueError("truncated coefficient header")
    width, height, block, reserved = np.frombuffer(data, "<u4", 4, 4).tolist()
    if reserved != 0:
        raise ValueError("reserved header field must be zero")
    values = _payload(data, 20, "<f8", (height, width), "coefficient payload")
    if not np.isfinite(values).all():
        raise ValueError("coefficient payload holds NaN or infinite values")
    return CoeffPlane(values, block=block)


def read_coeff_file(path) -> CoeffPlane:
    return parse_coeff_file(Path(path).read_bytes())


def write_coeff_file(plane: CoeffPlane, path) -> None:
    Path(path).write_bytes(emit_coeff_file(plane))


def _core_and_post(transform, inverse: bool = False):
    """Dense core matrix and the in-place postprocessing of its coefficients.

    The postprocessing is the reflection cascade (undone in reverse order
    for the inverse) or None for a plain orthonormal matrix.
    """
    if isinstance(transform, FastRegularTransform):
        cascade = transform.cascade
        return transform.core.entries, lambda coef: cascade.apply(coef, inverse=inverse)
    if isinstance(transform, OrthonormalTransform):
        return transform.entries, None
    raise TypeError(f"unsupported transform type {type(transform).__name__}")


def _segments(plane: np.ndarray, m: int, axis: int) -> np.ndarray:
    """(batch, m, k) view of a C-contiguous plane, the m axis running along `axis`.

    Rows (axis 1): one batch whose k columns are the length-m horizontal
    segments, a transposed view of plane.reshape(-1, m).  Columns
    (axis 0): one (m, W) batch per block row.
    """
    h, w = plane.shape
    if axis == 1:
        return plane.reshape(1, -1, m).transpose(0, 2, 1)
    return plane.reshape(h // m, m, w)


def _blockwise_2d(src: np.ndarray, dst: np.ndarray, core: np.ndarray, post,
                  inverse: bool = False) -> np.ndarray:
    """Apply the block transform (core, then post) along the rows and columns of src.

    Each pass multiplies core into `coef`, a coefficient-major
    (M, H*W/M) workspace with one contiguous row per subband, runs post
    on it in place, and copies it back into dst, which may be src and
    must be C-contiguous (its segments are written through views).  The
    inverse is the adjoint: column pass first, each pass copying out,
    running post (here the inverse cascade), then multiplying by core'
    into dst.  post may be None.
    """
    m = core.shape[0]
    coef = np.empty((m, src.size // m))
    for axis in (0, 1) if inverse else (1, 0):
        src_seg, dst_seg = _segments(src, m, axis), _segments(dst, m, axis)
        batch, _, k = src_seg.shape
        work = coef.reshape(m, batch, k).transpose(1, 0, 2)
        if inverse:
            np.copyto(work, src_seg)
            if post is not None:
                post(coef)
            np.matmul(core.T, work, out=dst_seg)
        else:
            np.matmul(core, src_seg, out=work)
            if post is not None:
                post(coef)
            np.copyto(dst_seg, work)
        src = dst
    return dst


def _check_divisible(shape, m: int) -> None:
    h, w = shape
    if h <= 0 or w <= 0:
        raise ValueError(f"image dimensions {w}x{h} must be positive")
    if h % m or w % m:
        raise ValueError(
            f"image dimensions {w}x{h} not divisible by block size {m}; "
            "padding is deliberately not supported"
        )


def forward_2d(img: GrayImage, transform) -> CoeffPlane:
    """Blockwise T B T' of an image: row pass, then column pass."""
    core, post = _core_and_post(transform)
    m = core.shape[0]
    _check_divisible(img.pixels.shape, m)
    plane = img.pixels.astype(np.float64, order="C")
    return CoeffPlane(_blockwise_2d(plane, plane, core, post), block=m)


def inverse_2d(coeffs: CoeffPlane, transform) -> np.ndarray:
    """Exact adjoint of forward_2d; returns the real-valued plane, no rounding."""
    core, post = _core_and_post(transform, inverse=True)
    m = core.shape[0]
    if m != coeffs.block:
        raise ValueError(f"transform size {m} does not match plane block size {coeffs.block}")
    return _blockwise_2d(coeffs.values, np.empty(coeffs.values.shape), core, post, inverse=True)


def subband_energy(coeffs: CoeffPlane) -> np.ndarray:
    """M x M array: total squared coefficient energy per subband (u, v)."""
    m = coeffs.block
    h, w = coeffs.values.shape
    blocks = coeffs.values.reshape(h // m, m, w // m, m)
    return (blocks ** 2).sum(axis=(0, 2))


def subband_mosaic(coeffs: CoeffPlane) -> GrayImage:
    """Regroup same-index coefficients of all blocks into per-subband tiles.

    Subband (u, v) occupies the (H/M x W/M) tile at grid position
    (u, v).  Magnitudes are compressed with a global log map,
    255 * log(1 + |c|) / log(1 + max |c|), to keep small subbands
    visible next to the DC tile.
    """
    m = coeffs.block
    h, w = coeffs.values.shape
    blocks = coeffs.values.reshape(h // m, m, w // m, m)
    mosaic = np.abs(blocks.transpose(1, 0, 3, 2).reshape(h, w))
    peak = mosaic.max()
    if peak > 0:
        mosaic = 255.0 * np.log1p(mosaic) / np.log1p(peak)
    pixels = np.clip(np.rint(mosaic, out=mosaic), 0, 255, out=mosaic).astype(np.uint8)
    return GrayImage(pixels)


@dataclass(frozen=True)
class BenchReport:
    size: int
    image_size: int
    repeats: int
    cascade_median_s: float
    dense_half_median_s: float
    saved_s: float
    max_abs_diff: float


def bench_postprocessing(
    m: int, image_size: int = 512, repeats: int = 11, seed: int = 0
) -> BenchReport:
    """Median wall time of the two postprocessing styles on one seeded image.

    Both variants run the forward pipeline that forward_2d ships, with
    the same sine core; one streams the reflection cascade, the other
    multiplies the even coefficients by the dense half-size matrix.
    BLAS thread pools are capped to one thread when threadpoolctl is
    installed; otherwise they run as the environment (for example
    OPENBLAS_NUM_THREADS) sets them.  Reports the medians, their
    difference, and the max absolute discrepancy between the two
    coefficient planes.  repeats >= 1; image_size a positive multiple of m.
    """
    _check_size(m)
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    _check_divisible((image_size, image_size), m)
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, size=(image_size, image_size), dtype=np.uint8))
    fast = rfst(m)
    core = fast.core.entries
    pp = _half_block(fast.cascade)

    # the integer-to-float conversion is identical for both styles, so it
    # stays outside the timed region
    plane0 = img.pixels.astype(np.float64)
    out = np.empty_like(plane0)
    even = np.empty((m // 2, plane0.size // m))
    cascade_post = fast.cascade.apply

    def dense_post(coef):
        np.matmul(pp, coef[0::2], out=even)
        coef[0::2] = even

    def run(post) -> np.ndarray:
        return _blockwise_2d(plane0, out, core, post)

    def timed(post) -> float:
        start = time.perf_counter()
        run(post)
        return time.perf_counter() - start

    pinned = threadpool_limits(limits=1) if threadpool_limits else contextlib.nullcontext()
    with pinned:
        for post in (cascade_post, dense_post):  # warm buffers and BLAS dispatch
            timed(post)
        cascade_times, dense_times = [], []
        for _ in range(repeats):
            cascade_times.append(timed(cascade_post))
            dense_times.append(timed(dense_post))

    diff = float(np.abs(run(cascade_post).copy() - run(dense_post)).max())
    cascade_median = float(np.median(cascade_times))
    dense_median = float(np.median(dense_times))
    return BenchReport(
        size=m,
        image_size=image_size,
        repeats=repeats,
        cascade_median_s=cascade_median,
        dense_half_median_s=dense_median,
        saved_s=dense_median - cascade_median,
        max_abs_diff=diff,
    )
