"""Separable block transforms on grayscale images, plus the timing bench.

A 2-D block transform maps every M x M block B of a plane to
P(D B D')P', where D is the sine (or another orthonormal) core and P a
postprocessing step on each length-M coefficient vector: the reflection
cascade of a fast regular transform, or nothing for a plain orthonormal
matrix.  Each transform is a row pass and then a column pass; the
inverse runs the adjoint passes in reverse order.

forward_2d, inverse_2d, the CLI's image commands and the bench share
one pipeline, in which only the core varies.  The bench runs rfst(M)
on the cores the library ships; the one thing it changes is rfst's
postprocessing slot, where the dense half-size matrix replaces the
cascade.  Block rows are
independent, so it runs the whole 2-D transform one cache-sized band of
block rows at a time into one output plane, and only reads its input.
The row pass leaves a band segment-major, (n, M), so its cascade is one
BLAS drotm per reflection on the stride-M columns; the column pass
leaves it subband-major, (M, n) with one contiguous row per subband, so
its cascade is one dscal + drot per reflection
(RegularityCascade.apply_flat's lanes).

The transform runs its own core (its _along method), and its in_place
flag sets the band layout.  When the core writes to a separate array,
as the dense product of every plain matrix and of rfst below
regularity.FFT_MIN_SIZE does, a band of BAND_ROWS rows (or M) runs
through two scratch buffers and is copied into block layout in the
output plane.  When it runs in place, as rfst's FFT core does from
FFT_MIN_SIZE on, a band is one block row, whose two layouts coincide,
transformed in place on the output plane.  BAND_ROWS was measured once
and is fixed.

The loop yields each band as it is finished, so the CLI's image
commands stream: `rfst image forward` writes every band to the RFC file
from one band-sized buffer and holds no coefficient plane, and `rfst
image inverse` reads the file into one plane (readinto, after a size
check) and rounds and writes every band to the PGM while it is in cache.
`rfst image mosaic` regroups every band into the one mosaic plane.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rdst import half_postprocessing_matrix
from .regularity import FastRegularTransform, rfst
from .transforms import KINDS, OrthonormalTransform, _check_size

COEFF_MAGIC = b"RFC2"  # RFC1 files, whose last header word is zero, are still read

# Rows per band of the dense core, or M if larger: rows, not bytes, so outputs
# do not depend on the machine; at 64 rows of 2048 columns the two scratch
# buffers fill this host's 2 MiB L2.  Ranges of 6 medians of 11 calls (same
# host, 2048^2, ms), and criterion 9's margin, bench_postprocessing(8, 512, 25):
#   rows       16      32      64     128     256    2048
#   M=8 fwd  23-32   25-31   23-33   26-35   29-37   56-64
#       inv  22-26   20-28   23-31   29-35   30-34   52-61
#   M=64 fwd                 50-60   50-64   61-73   83-98
#       inv                  48-66   54-64   63-75   82-93
#   margin   6-10%  13-18%  14-23%  24-26%                  (512 rows: 21-25%)
BAND_ROWS = 64


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
    """Per-block transform coefficients in place of each block; kind is their KINDS tag or None."""

    values: np.ndarray
    block: int
    kind: str | None = None

    def __post_init__(self):
        _check_size(self.block)
        if self.kind is not None and self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
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


def _read_payload(f, dtype, shape, what: str) -> np.ndarray:
    """The payload filling f from its position to its end, read into one new C-ordered array.

    f's size is compared with the payload's before anything is
    allocated, so a header that claims a huge plane fails as truncated;
    an input that cannot be sized, such as a pipe, is refused.
    """
    if not f.seekable():
        raise ValueError(
            f"cannot read the {what} from a pipe or another input that is not seekable")
    start = f.tell()
    size = f.seek(0, io.SEEK_END) - start
    nbytes = np.dtype(dtype).itemsize * shape[0] * shape[1]
    if size < nbytes:
        raise ValueError(f"truncated {what}")
    if size > nbytes:
        raise ValueError(f"trailing bytes after {what}")
    f.seek(start)
    values = np.empty(shape, dtype)
    if f.readinto(values) != nbytes:  # the file shrank after it was sized
        raise ValueError(f"truncated {what}")
    return values


def _write(f, header: bytes, bands, dtype) -> None:
    """Write header, then a payload given as bands of rows in order, each as C-ordered dtype."""
    f.write(header)
    for band in bands:
        f.write(np.ascontiguousarray(band, dtype=dtype))


def _emit(header: bytes, payload: np.ndarray, dtype) -> bytes:
    f = io.BytesIO()
    _write(f, header, (payload,), dtype)
    return f.getvalue()


@contextlib.contextmanager
def _output(path):
    """path opened for writing; if the block raises, a regular file there is removed again."""
    f = open(path, "wb")
    try:
        with f:
            yield f
    except BaseException:
        path = Path(path)
        if path.is_file() and not path.is_symlink():  # never /dev/stdout or a device
            path.unlink()
        raise


def _pgm_header(width: int, height: int) -> bytes:
    return f"P5\n{width} {height}\n255\n".encode("ascii")


def emit_pgm(img: GrayImage) -> bytes:
    return _emit(_pgm_header(img.width, img.height), img.pixels, np.uint8)


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
    tokens = {field: next_token() for field in ("width", "height", "maxval")}
    width, height, maxval = (int(token) for token in tokens.values())
    if width <= 0 or height <= 0:
        raise ValueError("bad PGM dimensions")
    if not 0 < maxval <= 255:
        raise ValueError(f"unsupported PGM maxval {maxval} (8-bit only)")
    for field, token in tokens.items():  # int() also reads "+4" and "1_0"
        if not token.isdigit():
            raise ValueError(f"PGM {field} {token.decode()!r} is not a decimal number")
    raster = io.BytesIO(data)
    raster.seek(pos + 1)  # single whitespace byte separating header from raster
    pixels = _read_payload(raster, np.uint8, (height, width), "PGM raster")
    if maxval < 255 and pixels.max() > maxval:
        raise ValueError(f"PGM pixel value {pixels.max()} exceeds maxval {maxval}")
    return GrayImage(pixels)


def read_pgm(path) -> GrayImage:
    return parse_pgm(Path(path).read_bytes())


def write_pgm(img: GrayImage, path) -> None:
    with _output(path) as f:
        _write(f, _pgm_header(img.width, img.height), (img.pixels,), np.uint8)


def _coeff_header(shape, block: int, kind: str | None) -> bytes:
    # the transform id is 1 + the kind's index in KINDS, or 0 for an unknown kind
    kind_id = 0 if kind is None else 1 + KINDS.index(kind)
    height, width = shape
    return COEFF_MAGIC + np.array([width, height, block, kind_id], dtype="<u4").tobytes()


def emit_coeff_file(plane: CoeffPlane) -> bytes:
    return _emit(_coeff_header(plane.values.shape, plane.block, plane.kind), plane.values, "<f8")


def _read_coeff_file(f) -> CoeffPlane:
    head = f.read(20)
    if head[:4] not in (b"RFC1", COEFF_MAGIC):
        raise ValueError("not a coefficient file (bad magic)")
    if len(head) < 20:
        raise ValueError("truncated coefficient header")
    width, height, block, kind_id = np.frombuffer(head, "<u4", 4, 4).tolist()
    if head[:4] == b"RFC1" and kind_id != 0:
        raise ValueError("reserved header field must be zero")
    if kind_id > len(KINDS):
        raise ValueError(f"unknown transform id {kind_id} in coefficient header")
    values = _read_payload(f, "<f8", (height, width), "coefficient payload")
    # a NaN propagates through min and max, and an infinity is one of them: no mask is needed
    if values.size and not np.isfinite([values.min(), values.max()]).all():
        raise ValueError("coefficient payload holds NaN or infinite values")
    return CoeffPlane(values, block=block, kind=KINDS[kind_id - 1] if kind_id else None)


def parse_coeff_file(data: bytes) -> CoeffPlane:
    return _read_coeff_file(io.BytesIO(data))


def read_coeff_file(path) -> CoeffPlane:
    with open(path, "rb") as f:
        return _read_coeff_file(f)


def write_coeff_file(plane: CoeffPlane, path) -> None:
    header = _coeff_header(plane.values.shape, plane.block, plane.kind)
    with _output(path) as f:
        _write(f, header, (plane.values,), "<f8")


def _block_size(transform) -> int:
    if not isinstance(transform, (FastRegularTransform, OrthonormalTransform)):
        raise TypeError(f"unsupported transform type {type(transform).__name__}")
    return transform.size


def _blockwise_2d(src: np.ndarray, out, transform, inverse: bool = False, post=None):
    """Yield each band of block rows of the block transform of src as soon as it is finished.

    The transform is the core, then postprocessing, along rows, then
    columns.  transform is rfst(M) or a plain matrix, which gets no
    postprocessing; either runs its core through its _along method,
    and its in_place flag picks the band layout.  rfst's
    postprocessing is its cascade, or post if given: post(flat, n, lane,
    step) runs in place on the lanes of RegularityCascade.apply_flat,
    as the timing bench's dense half-size block does.
    src, of any layout and dtype, is only read.  out is a C-contiguous
    float64 plane of its shape, which the bands fill, or None: then a
    band is built in a band-sized buffer that the next band reuses, so
    a consumer takes each band before asking for the next.  The inverse
    runs the adjoint passes in reverse order.
    """
    m = transform.size
    h, w = src.shape
    if isinstance(transform, FastRegularTransform):
        post = post or functools.partial(transform.cascade.apply_flat, inverse=inverse)
    else:
        post = lambda *lanes: None
    core = functools.partial(transform._along, inverse=inverse)
    if transform.in_place:  # bands of one block row, transformed in place on out or on one buffer
        rows, scratch = m, None
        buffer = np.empty((m, w)) if out is None else None
    else:  # bands of max(BAND_ROWS, M) rows through two band-sized scratch buffers
        rows = max(BAND_ROWS, m)
        scratch = np.empty((2, min(rows, h) * w))

    for top in range(0, h, rows):
        r = min(rows, h - top)
        n = r * w // m  # length-M segments per pass in this band
        # the row pass leaves x segment-major, coefficient k of (n, M) at stride M; the
        # column pass leaves y subband-major, subband k one contiguous row of (M, n)
        if scratch is None:
            band = buffer if out is None else out[top:top + r]
            x = y = band.reshape(-1)
        else:
            x, y = scratch[:, :r * w]
            # streamed, a band is built in the scratch buffer that its last step frees
            band = (y if inverse else x).reshape(r, w) if out is None else out[top:top + r]
        blocks = x.reshape(r // m, m, w)
        subbands = y.reshape(m, r // m, w).transpose(1, 0, 2)
        if inverse:
            np.copyto(subbands, src[top:top + r].reshape(r // m, m, w))
            post(y, n, n, 1)
            core(subbands, blocks)
            post(x, n, 1, m)
            core(x.reshape(n, m), band.reshape(n, m))
        else:
            np.copyto(y.reshape(r, w), src[top:top + r])
            core(y.reshape(n, m), x.reshape(n, m))
            post(x, n, 1, m)
            core(blocks, subbands)
            post(y, n, n, 1)
            if scratch is not None:
                np.copyto(band.reshape(r // m, m, w), subbands)
        yield band


def _fill(bands, out: np.ndarray) -> np.ndarray:
    """Run a band loop into out, a whole plane, to its end; returns out."""
    for _ in bands:
        pass
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


def _forward_bands(img: GrayImage, transform, out):
    m = _block_size(transform)
    _check_divisible(img.pixels.shape, m)
    return _blockwise_2d(img.pixels, out, transform)


def _inverse_bands(coeffs: CoeffPlane, transform, out):
    m = _block_size(transform)
    if m != coeffs.block:
        raise ValueError(f"transform size {m} does not match plane block size {coeffs.block}")
    return _blockwise_2d(coeffs.values, out, transform, inverse=True)


def forward_2d(img: GrayImage, transform) -> CoeffPlane:
    """Blockwise T B T' of an image: row pass, then column pass."""
    values = np.empty(img.pixels.shape)
    _fill(_forward_bands(img, transform, values), values)
    return CoeffPlane(values, block=transform.size, kind=transform.kind)


def inverse_2d(coeffs: CoeffPlane, transform) -> np.ndarray:
    """Exact adjoint of forward_2d; returns the real-valued plane, no rounding."""
    plane = np.empty(coeffs.values.shape)
    return _fill(_inverse_bands(coeffs, transform, plane), plane)


def _forward_file(img: GrayImage, transform, path) -> None:
    """Write forward_2d(img, transform) to path as an RFC file, one band at a time.

    Each band goes to the file while it is in cache; no coefficient
    plane is held.  If anything fails, no partial file is left.
    """
    bands = _forward_bands(img, transform, None)
    header = _coeff_header(img.pixels.shape, transform.size, transform.kind)
    with _output(path) as f:
        _write(f, header, bands, "<f8")


def _inverse_file(coeffs: CoeffPlane, transform, path) -> None:
    """Write inverse_2d(coeffs, transform), rounded and clipped to 8 bits, to path as a PGM.

    Each band is rounded and written while it is in cache, so beside
    coeffs only band-sized buffers are held.  If anything fails, no
    partial file is left.
    """
    bands = _inverse_bands(coeffs, transform, None)
    # each band is rounded in place, then converted to uint8 as it is written
    rounded = (np.clip(np.rint(band, out=band), 0, 255, out=band) for band in bands)
    with _output(path) as f:
        _write(f, _pgm_header(coeffs.width, coeffs.height), rounded, np.uint8)


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
    return _mosaic((coeffs.values,), coeffs.values.shape, coeffs.block)


def _mosaic(bands, shape, m: int) -> GrayImage:
    """subband_mosaic of a plane of the given shape, given as bands of whole block rows in order.

    Each band is regrouped into the mosaic plane as it comes, so a band
    loop's reused buffer may hold it.
    """
    h, w = shape
    # the regrouped plane is the one float plane this function holds; the rest runs in place
    mosaic = np.empty((m, h // m, m, w // m))
    top = 0
    for band in bands:
        blocks = band.reshape(-1, m, w // m, m)
        np.abs(blocks.transpose(1, 0, 3, 2), out=mosaic[:, top:top + len(blocks)])
        top += len(blocks)
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
    band_rows: int


def bench_postprocessing(
    m: int, image_size: int = 512, repeats: int = 11, seed: int = 0
) -> BenchReport:
    """Median wall time of the two postprocessing styles on one seeded image.

    Both variants run forward_2d's pipeline on rfst(m), with the core
    it ships at m: a dense product below regularity.FFT_MIN_SIZE and
    the FFT from there on.  One streams rfst's own reflection cascade;
    in the other the dense half-size matrix on the even coefficients
    replaces it, on the same two layouts: the segment-major rows of the
    row pass and the subband-major rows of the column pass.  Every
    loaded OpenBLAS is held at one thread for the timed region, and
    blas_pinning records how (or "unpinned"); band_rows is the band
    height the pipeline ran.  Reports the medians, their difference,
    and the max absolute discrepancy between the two coefficient
    planes.  repeats >= 1; image_size a positive multiple of m.
    """
    _check_size(m)
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    _check_divisible((image_size, image_size), m)
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, size=(image_size, image_size), dtype=np.uint8))
    fast = rfst(m)
    pp = half_postprocessing_matrix(m)

    # the integer-to-float conversion is identical for both styles, so it
    # stays outside the timed region
    plane0 = img.pixels.astype(np.float64)
    work = np.empty_like(plane0)
    band_rows = min(max(BAND_ROWS, m), image_size)
    half = np.empty(band_rows * image_size // 2)
    cascade_post = None  # rfst's own cascade

    def dense_post(flat, n, lane, step):
        if step == 1:  # subband-major: coefficient k of every segment is row k of (M, n)
            even, out = flat.reshape(m, n)[0::2], half[: n * m // 2].reshape(m // 2, n)
            np.matmul(pp, even, out=out)
        else:  # segment-major: coefficient k of every segment is column k of (n, M)
            even, out = flat.reshape(n, m)[:, 0::2], half[: n * m // 2].reshape(n, m // 2)
            np.matmul(even, pp.T, out=out)
        even[...] = out

    def run(post, out=work) -> np.ndarray:
        return _fill(_blockwise_2d(plane0, out, fast, post=post), out)

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

    diff = float(np.abs(run(cascade_post, np.empty_like(plane0)) - run(dense_post)).max())
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
        band_rows=band_rows,
    )
