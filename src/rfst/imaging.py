"""Separable block transforms on grayscale images, plus the timing bench.

A 2-D block transform maps every M x M block B of a plane to
P(D B D')P', where D is the sine (or another orthonormal) core and P a
postprocessing step on each length-M coefficient vector: the reflection
cascade of a fast regular transform, nothing for a plain orthonormal
matrix, or the dense half-size matrix in the timing bench.  Each
transform is a row pass and then a column pass; the inverse runs the
adjoint passes in reverse order.

forward_2d, inverse_2d and the bench share one pipeline, in which only
the core varies.  Each pass reads the plane through strided views, so
no segment matrix is gathered, and runs the postprocessing on lanes of
the flat plane, as RegularityCascade.apply_flat takes them.  The row
pass works on the segment-major (H*W/M, M) view, so its cascade is one
BLAS drotm per reflection on the stride-M columns of the whole plane.

Below FFT_MIN_SIZE, and for every plain matrix, the core is a dense
product written into a second plane.  The column pass writes it in
subband-major layout, an (M, H*W/M) array with one contiguous row per
subband, so its cascade is one dscal + drot per reflection; one copy of
W-long rows then puts the plane back in block layout.  From
FFT_MIN_SIZE on, rfst's sine core is scipy.fft's orthonormal DST-II,
O(M log M) per segment against the dense product's O(M^2), run in
place on the plane the call owns; its column cascade runs on each
block row's (M, W) slab, so no second plane is allocated.  The
crossover was measured once and is fixed; scipy.fft is imported only
on this path.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rdst import _half_block
from .regularity import FastRegularTransform, rfst
from .transforms import OrthonormalTransform, _check_size

COEFF_MAGIC = b"RFC1"

# Block size from which forward_2d/inverse_2d run rfst's sine core as an FFT
# (scipy.fft's DST-II) instead of a dense product.  Chosen once, not tuned at
# run time.  Medians of 7 whole-pipeline calls on a 2048^2 plane, in ms
# (forward/inverse), one BLAS thread on a shared 2-core x86-64 host, numpy
# 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31:
#   M        32      64     128     256     512    1024
#   dense  86/99 117/109 123/141 170/173 249/264 414/434
#   FFT   106/105 108/99 112/117 126/135 130/140 136/132
# From 256 on the FFT wins by 22% or more both ways; at 128 the gain is
# within this host's run-to-run drift.
FFT_MIN_SIZE = 256


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


def _block_size(transform) -> int:
    if not isinstance(transform, (FastRegularTransform, OrthonormalTransform)):
        raise TypeError(f"unsupported transform type {type(transform).__name__}")
    return transform.size


def _blockwise_2d(src: np.ndarray, work: np.ndarray, transform, inverse: bool = False,
                  post=None) -> np.ndarray:
    """The block transform of src (core, then postprocessing, along rows, then columns).

    transform is rfst(M), whose cascade is the postprocessing and whose
    sine core is a dense product below FFT_MIN_SIZE and scipy.fft's
    orthonormal DST-II from there on, or a plain matrix, whose
    coefficients get post (None for none).  post(flat, n, lane, step)
    runs in place on the lanes of RegularityCascade.apply_flat.  work is
    a C-contiguous float64 plane of src's shape that the call
    overwrites; it may be src, which is otherwise only read.  The
    inverse runs the adjoint passes in reverse order.  Returns the
    result: work on the FFT core, a second plane on the dense one.
    """
    m = transform.size
    h, w = src.shape
    n = src.size // m  # length-M segments per pass
    if isinstance(transform, FastRegularTransform):
        post = functools.partial(transform.cascade.apply_flat, inverse=inverse)
        core = None if m >= FFT_MIN_SIZE else transform.core.entries
    else:
        core = transform.entries
        post = post or (lambda *lanes: None)
    if core is None:  # in place on work, each pass on the plane's own layout
        from scipy.fft import dst, idst  # 62 ms to import (43 of them scipy.special)

        def fft(segments):  # along axis 1
            out = (idst if inverse else dst)(segments, type=2, axis=1, norm="ortho",
                                             overwrite_x=True)
            # scipy.fft writes an overwritable float64 input in place; copy back if it did not
            if out.ctypes.data != segments.ctypes.data or out.strides != segments.strides:
                np.copyto(segments, out)

        if work is not src:
            np.copyto(work, src)
        flat = work.reshape(-1)
        # rows: the segment-major (n, M) view, coefficient k at stride M; columns:
        # one (M, W) slab per block row, its subbands contiguous rows
        steps = [(fft, work.reshape(n, m)), (post, flat, n, 1, m),
                 (fft, work.reshape(h // m, m, w)),
                 *((post, flat, w, w, 1, base) for base in range(0, work.size, m * w))]
        # for the inverse, fft is idst and post the inverse cascade, so the steps run reversed
        for step, *args in reversed(steps) if inverse else steps:
            step(*args)
        return work
    # rows: segment-major (n, M) views; columns: out's block rows and work's
    # subband-major layout, in which subband k of all segments is one contiguous row
    out = np.empty(work.shape)
    blocks = out.reshape(h // m, m, w)
    subbands = work.reshape(m, h // m, w).transpose(1, 0, 2)
    if inverse:
        np.copyto(subbands, src.reshape(h // m, m, w))
        post(work.reshape(-1), n, n, 1)
        np.matmul(core.T, subbands, out=blocks)
        post(out.reshape(-1), n, 1, m)
        np.matmul(out.reshape(n, m), core, out=work.reshape(n, m))
        return work
    np.matmul(src.reshape(n, m), core.T, out=out.reshape(n, m))
    post(out.reshape(-1), n, 1, m)
    np.matmul(core, blocks, out=subbands)
    post(work.reshape(-1), n, n, 1)
    np.copyto(blocks, subbands)
    return out


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
    m = _block_size(transform)
    _check_divisible(img.pixels.shape, m)
    plane = img.pixels.astype(np.float64, order="C")
    return CoeffPlane(_blockwise_2d(plane, plane, transform), block=m)


def inverse_2d(coeffs: CoeffPlane, transform) -> np.ndarray:
    """Exact adjoint of forward_2d; returns the real-valued plane, no rounding."""
    m = _block_size(transform)
    if m != coeffs.block:
        raise ValueError(f"transform size {m} does not match plane block size {coeffs.block}")
    return _blockwise_2d(coeffs.values, np.empty(coeffs.values.shape), transform, inverse=True)


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
    # the regrouped copy is the one plane this function holds; the rest runs in place
    mosaic = np.abs(blocks.transpose(1, 0, 3, 2), out=np.empty((m, h // m, m, w // m)))
    mosaic = mosaic.reshape(h, w)
    peak = mosaic.max()
    if peak > 0:
        np.log1p(mosaic, out=mosaic)
        np.multiply(255.0, mosaic, out=mosaic)
        np.divide(mosaic, np.log1p(peak), out=mosaic)
    pixels = np.clip(np.rint(mosaic, out=mosaic), 0, 255, out=mosaic).astype(np.uint8)
    return GrayImage(pixels)


# (get, set) thread-count symbols of the OpenBLAS builds that numpy and scipy ship
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("openblas_", "scipy_openblas_")
    for suffix in ("", "64_")
)


@contextlib.contextmanager
def _one_blas_thread():
    """Cap every loaded OpenBLAS at one thread inside the block, then restore its count.

    The libraries are found in /proc/self/maps and driven through
    ctypes.  Yields the method in effect: the libraries pinned, or
    "unpinned" when no OpenBLAS with a thread-count symbol is loaded.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {Path(line.split()[-1]) for line in maps}
    except OSError:  # no procfs: nothing can be found, so nothing is pinned
        paths = set()
    pools = []
    for path in sorted(p for p in paths if "openblas" in p.name.lower()):
        lib = ctypes.CDLL(str(path))
        for get, set_ in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                pools.append((f"{set_}(1) in {path.name}", setter, getter()))
                break
    for _, setter, _ in pools:
        setter(1)
    try:
        yield "; ".join(call for call, _, _ in pools) or "unpinned"
    finally:
        for _, setter, count in pools:
            setter(count)


@dataclass(frozen=True)
class BenchReport:
    size: int
    image_size: int
    repeats: int
    cascade_median_s: float
    dense_half_median_s: float
    saved_s: float
    max_abs_diff: float
    blas_pinning: str


def bench_postprocessing(
    m: int, image_size: int = 512, repeats: int = 11, seed: int = 0
) -> BenchReport:
    """Median wall time of the two postprocessing styles on one seeded image.

    Both variants run forward_2d's pipeline with the dense sine core at
    every m (forward_2d itself switches to an FFT core from
    FFT_MIN_SIZE on); one streams the reflection cascade, the other
    multiplies the even coefficients by the dense half-size matrix, on
    the same two layouts: the segment-major rows of the row pass and
    the subband-major rows of the column pass.  Every loaded OpenBLAS
    is held at one thread for the timed region, and blas_pinning
    records how (or "unpinned").  Reports the medians, their
    difference, and the max absolute discrepancy between the two
    coefficient planes.  repeats >= 1; image_size a positive multiple
    of m.
    """
    _check_size(m)
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    _check_divisible((image_size, image_size), m)
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, size=(image_size, image_size), dtype=np.uint8))
    fast = rfst(m)
    pp = _half_block(fast.cascade)

    # the integer-to-float conversion is identical for both styles, so it
    # stays outside the timed region
    plane0 = img.pixels.astype(np.float64)
    work = np.empty_like(plane0)
    half = np.empty(plane0.size // 2)
    cascade_post = fast.cascade.apply_flat

    def dense_post(flat, n, lane, step):
        if step == 1:  # subband-major: coefficient k of every segment is row k of (M, n)
            even, out = flat.reshape(m, n)[0::2], half.reshape(m // 2, n)
            np.matmul(pp, even, out=out)
        else:  # segment-major: coefficient k of every segment is column k of (n, M)
            even, out = flat.reshape(n, m)[:, 0::2], half.reshape(n, m // 2)
            np.matmul(even, pp.T, out=out)
        even[...] = out

    def run(post) -> np.ndarray:
        return _blockwise_2d(plane0, work, fast.core, post=post)

    def timed(post) -> float:
        start = time.perf_counter()
        run(post)
        return time.perf_counter() - start

    with _one_blas_thread() as pinning:
        for post in (cascade_post, dense_post):  # warm buffers and BLAS dispatch
            timed(post)
        cascade_times, dense_times = [], []
        for _ in range(repeats):
            cascade_times.append(timed(cascade_post))
            dense_times.append(timed(dense_post))

    diff = float(np.abs(run(cascade_post) - run(dense_post)).max())
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
        blas_pinning=pinning,
    )
