"""Separable block transforms on grayscale images, plus the timing bench.

A 2-D block transform maps every M x M block B of a plane to
P(D B D')P', where D is the sine (or another orthonormal) core and P a
postprocessing step on each length-M coefficient vector: the reflection
cascade of a fast regular transform, or nothing for a plain orthonormal
matrix.  Each transform is a row pass and then a column pass; the
inverse runs the adjoint passes in reverse order.

forward_2d, inverse_2d, the CLI's image commands and the bench share
one pipeline.  Block rows are independent, so the pipeline runs the
whole 2-D transform one cache-sized band of block rows at a time into
one output plane, and only reads its input.  The transform runs its
own core (its _along method) and names the postprocessing still to run
after it (its post), and its in_place flag sets the band layout,
through _band_rows.  forward_2d and inverse_2d return a new array, but
its memory may be the plane that either returned last, once nothing
refers to that plane: one released plane is kept for the next call of
its shape (_new_plane).

rfst(M) takes one of two routes, by its size.  Below
regularity.FFT_MIN_SIZE its core is one dense product with the folded
matrix PD, and post is None, as for every plain matrix: a band of
BAND_ROWS rows (or M) runs its row pass through two scratch buffers,
and its column pass reads and writes block layout directly, the
input's rows in the inverse and the output's in the forward, with no
copy between layouts.  From FFT_MIN_SIZE on its core
is the FFT, run in place, and post is the cascade: a band is one block
row, whose two layouts coincide, transformed in place on the output
plane.  The row pass leaves a band segment-major, (n, M), and hands the
postprocessing its F-ordered (M, n) transpose, on which the cascade is
one BLAS drotm per reflection along the stride-M columns; the column
pass leaves it subband-major, a C-ordered (M, n) with one contiguous
row per subband, on which the cascade is one dscal + drot per
reflection (RegularityCascade.apply).  Only where a postprocessing
runs after the dense core, on the bench's _Unfolded route below, does
a band pass through that subband-major layout and get copied between
it and block layout.  BAND_ROWS was measured once and is fixed.

forward_2d, inverse_2d and the image commands share a plane's bands
between worker threads, one per CPU the process may run on, the calling
thread among them, through one planner, _run_bands, whose docstring
describes how it splits the rows and hands out the bands.  Bands share
no memory, and numpy's matmul, scipy.fft's DST and positioned file I/O
release the GIL; the outputs are the same for every worker count.  The
bench runs one worker.

The bench adds a third route, _Unfolded, the paper's: the sine core
rfst ships at M, then the postprocessing as a pass of its own at every
M.  It times the cascade and rdst.DenseHalf, the dense half-size
matrix, on that route, and rfst(M) as shipped.

The loop yields each band as it is finished, so the CLI's image
commands hand each band to _run_bands' put, and none holds a
coefficient plane: in
`rfst image forward` each worker writes every band it takes to the
RFC file at the band's own offset (os.pwrite) from one band-sized
buffer, and in `rfst image inverse` each worker reads its bands at
their offsets in the file (the one _Payload, os.preadv, after one size
check of the whole payload) into a buffer of its own, checks each for NaN
and infinity, inverts it, and rounds and writes it at its offset in
the PGM while it is in cache.  A bad value late in the file thus fails
after part of the PGM is written, and that partial file is removed.
`rfst image mosaic` regroups every band into the worker's own rows of
the one mosaic plane.

Images are binary PGM (P5) and coefficient planes RFC2 files (see
_coeff_header), each read and written through a path.  Every output
is written at offsets (_output), so it must be seekable; it is not
truncated when opened, but cut to its size once.  Each format has one
reader, which checks the header and the payload's size before it
allocates anything plane-sized.  parse_pgm reads a PGM from a binary
file object: read_pgm's open file, or bytes as io.BytesIO.  A seekable
input's raster is read straight into the pixel array; a pipe's is read
in chunks, never past one byte more than the header claims, and copied
once, so a PGM may come from a pipe.  _Payload reads
an RFC file, whole in read_coeff_file and band by band in `rfst image
inverse`; it also checks the plane's shape before it allocates, and
its size check needs a seekable input.  A plane read or built passes
one set of checks (_check_plane).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import stat
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rdst import DenseHalf, half_postprocessing_matrix
from .regularity import FastRegularTransform, rfst
from .transforms import KINDS, OrthonormalTransform, _check_size

COEFF_MAGIC = b"RFC2"

# Rows per band of the dense core, or M if larger, split between the workers
# that share a plane (_band_rows): rows, not bytes, so outputs do not depend on
# the machine; at 64 rows of 2048 columns the two scratch buffers fill a 2 MiB
# L2.  Ranges of 6 medians of 11 one-worker calls (a shared 2-core x86-64 host,
# one BLAS thread, 2048^2, ms), and criterion 9's margin (dense half - cascade)
# / dense half, 6 calls of bench_postprocessing(8, 512, 25), all won by the cascade:
#   rows       16      32      64     128     256    2048
#   M=8 fwd  12-16   10-14   15-19   16-18   16-17   27-34
#       inv  12-17    9-14   13-18   14-17   15-16   20-27
#   M=64 fwd                 42-47   36-48   42-48   58-71
#       inv                  39-44   36-46   40-46   52-59
#   margin    1-4%  10-14%  21-25%  19-29%                  (512 rows: 20-25%)
BAND_ROWS = 64

# The most work one bench_postprocessing call may ask for: repeats x image pixels x 3
# routes, each route one pass of a pixel through forward_2d's pipeline.  One pass took
# 3-5 ns per pixel at M=8, 27 at M=1024 (2048^2) and 48 at M=4096 (4096^2) on a shared
# 2-core x86-64 host with one BLAS thread, so this bounds a call to about a minute
# at the largest M, and criterion 9's call (M=8, 512^2, 25 repeats) asks for 2% of it.
BENCH_MAX_WORK = 2**30

# Bytes per read of a PGM raster from a pipe: a buffered read(n) allocates n bytes before
# it reads, so a header that claims a huge raster costs this much, not the raster's size
PIPE_CHUNK = 2**16


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
        _check_plane(np.shape(self.values), self.block, self.kind)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


def _check_plane(shape, block: int, kind: str | None) -> None:
    """The checks every coefficient plane passes, in order, whether built or read from a file."""
    _check_size(block)
    if kind is not None and kind not in KINDS:
        raise ValueError(f"unknown transform kind {kind!r}")
    if len(shape) != 2:
        raise ValueError("coefficient plane must be 2-D")
    h, w = shape
    if h == 0 or w == 0:
        raise ValueError(f"empty coefficient plane {w}x{h}")
    if h % block or w % block:
        raise ValueError(f"plane dimensions {w}x{h} not divisible by block size {block}")


def _check_payload(size: int, nbytes: int, what: str) -> None:
    """Check that size, the bytes an input holds after its header, is the nbytes the header claims.

    This runs before anything is allocated, so a header that claims a
    huge plane fails as truncated.
    """
    if size < nbytes:
        raise ValueError(f"truncated {what}")
    if size > nbytes:
        raise ValueError(f"trailing bytes after {what}")


def _read_at(fd: int, offset: int, values: np.ndarray, what: str) -> np.ndarray:
    """Fill values, a C-ordered array, from the file fd's bytes at offset on; returns values."""
    view = memoryview(values).cast("B")
    while view:  # a read stops short at 2 GiB, or at the end of a file that shrank after it was sized
        n = os.preadv(fd, [view], offset)
        if n == 0:
            raise ValueError(f"truncated {what}")
        view, offset = view[n:], offset + n
    return values


def _write_at(fd: int, offset: int, *buffers) -> None:
    """Write buffers, each bytes or a C-ordered array, one after the other to fd from offset on."""
    for buffer in buffers:
        view = memoryview(buffer).cast("B")
        while view:  # a write stops short at 2 GiB
            n = os.pwrite(fd, view, offset)
            view, offset = view[n:], offset + n


@contextlib.contextmanager
def _output(path, size: int):
    """A descriptor of path, opened for positioned writes of its size bytes.

    The path is not truncated when it is opened: a regular file is cut
    or extended to size once, so rewriting an existing output costs the
    write alone.  An output that cannot be written at an offset, such
    as a pipe, is refused before anything is written.  If the block
    raises, a regular file there is removed again.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        try:
            os.lseek(fd, 0, os.SEEK_CUR)
        except OSError:  # ESPIPE
            raise ValueError(
                "cannot write to a pipe or another output that is not seekable") from None
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, size)
        yield fd
    except BaseException:
        path = Path(path)
        if path.is_file() and not path.is_symlink():  # never /dev/stdout or a device
            path.unlink()
        raise
    finally:
        os.close(fd)


def _pgm_header(width: int, height: int) -> bytes:
    return f"P5\n{width} {height}\n255\n".encode("ascii")


def parse_pgm(f) -> GrayImage:
    """Read a binary (P5) PGM with maxval up to 255 from f, a binary file object; comments are allowed.

    This is the one PGM reader: read_pgm hands it an open file, and PGM
    bytes come in as io.BytesIO.  The header is read a token at a time
    through f's buffer.  The raster's size is then checked against what
    f holds after the header before anything plane-sized is allocated,
    so a header that claims a huge image fails as truncated: a seekable
    f (a regular file, or bytes) is sized by seeking to its end, and its
    raster is read straight into the pixel array; a pipe is sized by the
    bytes it holds, which are read PIPE_CHUNK at a time, up to one byte
    past the raster the header claims, and copied once into the array.
    """

    def next_token() -> bytes:
        token = bytearray()
        while True:
            ch = f.read(1)
            if ch == b"#" and not token:
                f.readline()  # a comment runs to the end of its line, however long
            elif ch and not ch.isspace():
                token += ch
            elif token:  # the one whitespace byte after the token is read with it
                return bytes(token)
            elif not ch:
                raise ValueError("truncated PGM header")

    if next_token() != b"P5":
        raise ValueError("not a binary PGM (missing P5 magic)")
    tokens = {field: next_token() for field in ("width", "height", "maxval")}
    for field, token in tokens.items():
        if not token.isdigit():
            token = token.decode("ascii", "backslashreplace")
            raise ValueError(f"PGM {field} {token!r} is not a decimal number")
    width, height, maxval = (int(token) for token in tokens.values())
    if width <= 0 or height <= 0:
        raise ValueError("bad PGM dimensions")
    if not 0 < maxval <= 255:
        raise ValueError(f"unsupported PGM maxval {maxval} (8-bit only)")
    if f.seekable():
        start = f.tell()
        _check_payload(f.seek(0, os.SEEK_END) - start, height * width, "PGM raster")
        f.seek(start)
        pixels = np.empty((height, width), np.uint8)
        view = memoryview(pixels).cast("B")
        while view:  # a read stops short at the end of a file that shrank after it was sized
            n = f.readinto(view)
            if not n:
                raise ValueError("truncated PGM raster")
            view = view[n:]
    else:  # a pipe is read no further than one byte past the raster the header claims
        raster = bytearray()
        while len(raster) <= height * width:
            chunk = f.read(min(height * width + 1 - len(raster), PIPE_CHUNK))
            if not chunk:
                break
            raster += chunk
        _check_payload(len(raster), height * width, "PGM raster")
        pixels = np.frombuffer(raster, np.uint8).reshape(height, width).copy()
    if maxval < 255 and pixels.max() > maxval:
        raise ValueError(f"PGM pixel value {pixels.max()} exceeds maxval {maxval}")
    return GrayImage(pixels)


def read_pgm(path) -> GrayImage:
    """Read a binary (P5) PGM from path, a file or a pipe, with parse_pgm's checks and messages."""
    with open(path, "rb") as f:
        return parse_pgm(f)


def write_pgm(img: GrayImage, path) -> None:
    header = _pgm_header(img.width, img.height)
    with _output(path, len(header) + img.pixels.size) as fd:
        _write_at(fd, 0, header, np.ascontiguousarray(img.pixels))


def _coeff_header(shape, block: int, kind: str | None) -> bytes:
    # the transform id is 1 + the kind's index in KINDS, or 0 for an unknown kind
    kind_id = 0 if kind is None else 1 + KINDS.index(kind)
    height, width = shape
    return COEFF_MAGIC + np.array([width, height, block, kind_id], dtype="<u4").tobytes()


def _check_finite(values: np.ndarray) -> np.ndarray:
    """values, rows of an RFC payload, once every one is checked to be finite."""
    # a NaN propagates through min and max, and an infinity is one of them: no mask is needed
    if values.size and not np.isfinite([values.min(), values.max()]).all():
        raise ValueError("coefficient payload holds NaN or infinite values")
    return values


class _Payload:
    """An RFC file's coefficient plane, read from the file a band at a time.

    The header is read and every check that needs no coefficient runs
    when it is built, the payload's size and the plane's shape and
    block (_check_plane) among them, so nothing is allocated for a bad
    header.  The band loops of every worker then take it for the
    plane: slicing it reads that band from its offset in the file
    (os.preadv) into a buffer that the slicing thread reuses, one per
    thread (a threading.local, as in rdst.DenseHalf), and checks that
    its values are finite, so no coefficient plane is held, and band
    loops in different threads share nothing but the file.
    read_coeff_file slices all of its rows at once.
    """

    def __init__(self, f):
        head = f.read(20)
        if head[:4] != COEFF_MAGIC:
            raise ValueError("not a coefficient file (bad magic)")
        if len(head) < 20:
            raise ValueError("truncated coefficient header")
        width, height, block, kind_id = np.frombuffer(head, "<u4", 4, 4).tolist()
        if kind_id > len(KINDS):
            raise ValueError(f"unknown transform id {kind_id} in coefficient header")
        if not f.seekable():
            raise ValueError("cannot read the coefficient payload from a pipe or another "
                             "input that is not seekable")
        self._fd, self._offset, self._local = f.fileno(), f.tell(), threading.local()
        _check_payload(f.seek(0, os.SEEK_END) - self._offset, 8 * height * width,
                       "coefficient payload")
        self.shape, self.block = (height, width), block
        self.kind = KINDS[kind_id - 1] if kind_id else None
        _check_plane(self.shape, self.block, self.kind)

    def __getitem__(self, rows: slice) -> np.ndarray:
        r, w = rows.stop - rows.start, self.shape[1]
        buffer = getattr(self._local, "buffer", None)  # this thread's
        if buffer is None or len(buffer) < r:  # a worker may take the short last band first
            buffer = self._local.buffer = np.empty((r, w), "<f8")
        # all of a buffer is handed out as itself, so read_coeff_file's plane owns its data
        values = buffer if len(buffer) == r else buffer[:r]
        _read_at(self._fd, self._offset + 8 * rows.start * w, values, "coefficient payload")
        return _check_finite(values)


def read_coeff_file(path) -> CoeffPlane:
    with open(path, "rb") as f:
        payload = _Payload(f)
        return CoeffPlane(payload[0:payload.shape[0]], block=payload.block, kind=payload.kind)


def write_coeff_file(plane: CoeffPlane, path) -> None:
    header = _coeff_header(plane.values.shape, plane.block, plane.kind)
    with _output(path, len(header) + plane.values.nbytes) as fd:
        _write_at(fd, 0, header, np.ascontiguousarray(plane.values, "<f8"))


def _block_size(transform) -> int:
    if not isinstance(transform, (FastRegularTransform, OrthonormalTransform)):
        raise TypeError(f"unsupported transform type {type(transform).__name__}")
    return transform.size


def _band_rows(transform, workers: int = 1) -> int:
    """Rows per band of each of workers workers that share a plane.

    One block row when the core runs in place.  Otherwise
    max(BAND_ROWS // workers, M), rounded down to a multiple of M, so
    that while workers <= max(BAND_ROWS, M) // M, as _run_bands keeps
    it, the workers' scratch buffers together are no larger than
    those of one worker alone.
    """
    m = transform.size
    return m if transform.in_place else max(BAND_ROWS // workers, m) // m * m


def _blockwise_2d(src: np.ndarray, out, transform, inverse: bool, rows: int, tops):
    """Yield (top, band) for each band of block rows of the block transform of src, once it is finished.

    The transform is the core, then postprocessing, along rows, then
    columns.  transform is a FastRegularTransform or a plain matrix;
    either runs its core through its _along method, its post names the
    postprocessing still to run after it (None for a plain matrix and
    for rfst below FFT_MIN_SIZE, whose core holds its cascade), and its
    in_place flag picks the band layout.  The postprocessing's apply
    runs in place on an (M, n) view of the band's n segments: F-ordered
    after the row pass, C-ordered after the column pass; without a
    post, the column pass reads (inverse) or writes (forward) block
    layout directly.  src, of any layout and dtype, is only read, one
    slice of a band's rows at a time, so it may also be an RFC file's
    _Payload.  out is a C-contiguous float64 plane of its shape, which
    the bands fill, or None: then a band is built in a band-sized
    buffer that the next band reuses, so a consumer takes each band
    before asking for the next.  rows is the band height, a multiple of
    M (_band_rows), and top a band's first row; tops gives the tops of
    the bands to run, in any order, each a multiple of rows.  The
    inverse runs the adjoint passes in reverse order.
    """
    m = transform.size
    h, w = src.shape
    subband_major = transform.post is not None  # the column pass's layout, as post needs it
    if subband_major:
        post = functools.partial(transform.post.apply, inverse=inverse)
    else:
        post = lambda v: None
    core = functools.partial(transform._along, inverse=inverse)
    if transform.in_place:  # bands of one block row, transformed in place on out or on one buffer
        scratch = None
        buffer = np.empty((m, w)) if out is None else None
    else:  # bands of several block rows through two band-sized scratch buffers
        scratch = np.empty((2, min(rows, h) * w))

    for top in tops:
        r = min(rows, h - top)
        n = r * w // m  # length-M segments per pass in this band
        src_band = src[top:top + r]
        # the row pass leaves x segment-major, coefficient k of (n, M) at stride M
        if scratch is None:
            band = buffer if out is None else out[top:top + r]
            x = y = band.reshape(-1)
        else:
            x, y = scratch[:, :r * w]
            # streamed, a band is built in the scratch buffer that its last step frees
            free = x if subband_major and not inverse else y
            band = free.reshape(r, w) if out is None else out[top:top + r]
        blocks = x.reshape(r // m, m, w)
        if subband_major:  # subband k one contiguous row of y as (M, n); block layout in place
            columns = y.reshape(m, r // m, w).transpose(1, 0, 2)
            if inverse:
                np.copyto(columns, src_band.reshape(r // m, m, w))
        else:  # the column pass reads or writes block layout directly
            columns = (src_band if inverse else band).reshape(r // m, m, w)
        if inverse:
            post(y.reshape(m, n))
            core(columns, blocks)
            post(x.reshape(n, m).T)
            core(x.reshape(n, m), band.reshape(n, m))
        else:
            np.copyto(y.reshape(r, w), src_band)
            core(y.reshape(n, m), x.reshape(n, m))
            post(x.reshape(n, m).T)
            core(blocks, columns)
            post(y.reshape(m, n))
            if subband_major and scratch is not None:
                np.copyto(band.reshape(r // m, m, w), columns)
        yield top, band


def _run_bands(src, transform, inverse: bool, out=None, put=None) -> None:
    """Run the band loop from src on worker threads, into out, a whole plane, or through put.

    put(top, band), if given, takes each band, whose first row in the
    plane is top, as soon as it is finished, in the worker's thread:
    before put returns, as the worker's next band reuses the buffer
    when out is None.  Every worker slices the one src.

    This is the one planner of forward_2d, inverse_2d and the image
    commands.  One worker per CPU this process may run on
    (os.sched_getaffinity; one where that does not exist), never more
    than bands and, on the dense core, never more than
    max(BAND_ROWS, M) // M, so that the workers' scratch buffers
    together are no larger than those of one serial loop.  Bands are
    rows = _band_rows(transform, workers) tall, and the plane's rows are
    split into contiguous runs of whole bands, one per worker.  Each
    worker runs a band loop of its own (_blockwise_2d) over tops, which
    hands it the first row of the next band of its run, from the top
    down, and once its run is done the last band of the longest run
    left, until no band is left or a worker has failed.  A worker held
    up on one band thus leaves the rest of its run to the others, while
    each worker, unless it is held up, keeps to its own rows: handing
    out every band in turn instead made inverse_2d's median 15% slower
    (2048^2, M=8, two workers on a shared 2-core x86-64 host).  The
    calling thread is worker 0 and every other worker runs in a thread
    of its own; one worker is the serial loop and starts no thread.
    Every thread is joined before this returns or raises, and the first
    error, in worker order, is raised.
    """
    h, m = src.shape[0], transform.size
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not transform.in_place:
        workers = min(workers, max(BAND_ROWS, m) // m)
    rows = _band_rows(transform, workers)
    bands = -(-h // rows)
    workers = min(workers, bands)
    if workers > 1 and not transform.in_place:
        # the dense core builds its matrix and that matrix's transpose on first use, the
        # row pass (2-D) using one and the column pass (3-D) the other: build both here,
        # once for every worker
        for shape in ((0, m), (0, m, 0)):
            empty = np.empty(shape)
            transform._along(empty, empty.copy(), inverse)
    cuts = [min(h, i * bands // workers * rows) for i in range(workers + 1)]
    runs = [collections.deque(range(a, b, rows)) for a, b in zip(cuts, cuts[1:])]
    lock, failed, errors = threading.Lock(), threading.Event(), [None] * workers

    def tops(own):
        while True:
            with lock:
                longest = max(runs, key=len)
                if failed.is_set() or not longest:
                    return
                top = own.popleft() if own else longest.pop()
            yield top

    def work(i):
        try:
            for top, band in _blockwise_2d(src, out, transform, inverse, rows, tops(runs[i])):
                if put is not None:
                    put(top, band)
        except BaseException as error:  # raised again in the calling thread, below
            failed.set()  # the other workers finish the band they hold and take no other
            errors[i] = error

    threads = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=work, args=(i,), name=f"rfst-bands-{i}")
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    error = next((error for error in errors if error is not None), None)
    errors.clear()
    if error is not None:
        try:
            raise error
        finally:  # unbound, so that this frame and its error form no reference cycle, which
            error = None  # would keep what the failed call held (its output plane) until gc runs


def _check_divisible(shape, m: int) -> None:
    h, w = shape
    if h <= 0 or w <= 0:
        raise ValueError(f"image dimensions {w}x{h} must be positive")
    if h % m or w % m:
        raise ValueError(
            f"image dimensions {w}x{h} not divisible by block size {m}; "
            "padding is deliberately not supported"
        )


def _check_inverse(block: int, transform) -> None:
    m = _block_size(transform)
    if m != block:
        raise ValueError(f"transform size {m} does not match plane block size {block}")


# The output plane released last, kept for the next forward_2d or inverse_2d call of its
# shape (_new_plane).  One slot: with two, rfstbench's blocks_large loop peaked at 148 MiB
# RSS against 140, as the second kept plane overlapped its checks' temporaries
_released = collections.deque(maxlen=1)


class _Plane:
    """The owner of an output plane of forward_2d or inverse_2d, which returns np.asarray(owner).

    That array, and every view of it, holds the owner, so the owner is
    freed only once no object refers to the plane's memory any more.
    It then releases the plane to _released, as free() would, for the
    next call of its shape to reuse.
    """

    __slots__ = ("_values",)

    def __init__(self, values: np.ndarray):
        self._values = values

    @property
    def __array_interface__(self):
        return self._values.__array_interface__

    def __del__(self, released=_released):  # bound here, so it still runs at interpreter shutdown
        released.append(self._values)


def _new_plane(shape) -> np.ndarray:
    """An uninitialised float64 plane of shape: the one released last if its shape matches, else a new one.

    A 2048^2 plane is just over glibc's largest mmap threshold, so a
    plane freed and allocated again is unmapped and faulted in on every
    call.  At 2048^2 and M=8, with two workers and one BLAS thread on a
    shared 2-core x86-64 host, a forward_2d call took 8.5-12.5 ms and
    20-531 minor faults into a new plane (fewer where its mapping
    happened to be aligned for huge pages), and 5.8-5.9 ms and 3 faults
    into a reused one (medians of 40 calls).  A deque's pop is atomic,
    so two threads are never handed the same plane.  A kept plane of
    another shape is freed before the new one is allocated.
    """
    try:
        values = _released.pop()
    except IndexError:
        values = None
    if values is None or values.shape != shape:
        values = None  # freed first, so that no two planes are held at once
        values = np.empty(shape)
    return np.asarray(_Plane(values))


def forward_2d(img: GrayImage, transform) -> CoeffPlane:
    """Blockwise T B T' of an image: row pass, then column pass.

    Threads share the plane's bands, one per CPU this process may run
    on (os.sched_getaffinity), each on rows of its own; the output does
    not depend on their number.  The dense core's products also run on
    the BLAS's threads: on a 2-CPU x86-64 host at 2048^2 and M=8, two
    workers took 25-70% less than one, here and in inverse_2d, with
    OpenBLAS at one thread per CPU, and 35-60% less with OpenBLAS at one
    thread (OPENBLAS_NUM_THREADS=1).

    The output plane is the one released last, by forward_2d or
    inverse_2d, when its shape matches and nothing refers to it any
    more; else it is a new one.  One released plane is kept for the
    next call: 32 MiB at 2048^2, 128 MiB at 4096^2 (_new_plane).  The
    returned array does not own its data, so it cannot be resized in
    place.
    """
    _check_divisible(img.pixels.shape, _block_size(transform))
    values = _new_plane(img.pixels.shape)
    _run_bands(img.pixels, transform, False, out=values)
    return CoeffPlane(values, block=transform.size, kind=transform.kind)


def inverse_2d(coeffs: CoeffPlane, transform) -> np.ndarray:
    """Exact adjoint of forward_2d, on threads as forward_2d; returns the real-valued plane, no rounding.

    Its output plane is reused or kept as forward_2d's is, and the
    returned array likewise does not own its data, so it cannot be
    resized in place.
    """
    _check_inverse(coeffs.block, transform)
    plane = _new_plane(coeffs.values.shape)
    _run_bands(coeffs.values, transform, True, out=plane)
    return plane


def _forward_file(img: GrayImage, transform, path) -> None:
    """Write forward_2d(img, transform) to path as an RFC file, each band at its own offset.

    The workers write each band to the file while it is in cache; no
    coefficient plane is held.  If anything fails, no partial file is
    left.  The image's size is checked against the transform's by the
    caller, as for _mosaic_file.
    """
    h, w = img.pixels.shape
    header = _coeff_header(img.pixels.shape, transform.size, transform.kind)
    with _output(path, len(header) + 8 * h * w) as fd:
        _write_at(fd, 0, header)
        _run_bands(img.pixels, transform, False,
                   put=lambda top, band: _write_at(fd, len(header) + 8 * top * w,
                                                   np.ascontiguousarray(band, "<f8")))


def _inverse_file(payload: _Payload, transform, path) -> None:
    """Write the inverse of an RFC file's plane, rounded and clipped to 8 bits, to path as a PGM.

    Each worker reads, checks, inverts, rounds and writes its bands at
    their offsets in the two files, a band while it is in cache, so
    only band-sized buffers are held.  If anything fails, a bad value
    late in the file included, no partial file is left.
    """
    _check_inverse(payload.block, transform)
    h, w = payload.shape
    header = _pgm_header(w, h)
    with _output(path, len(header) + h * w) as fd:

        def put(top, band):  # rounded in place, then written as uint8
            np.clip(np.rint(band, out=band), 0, 255, out=band)
            _write_at(fd, len(header) + top * w, band.astype(np.uint8))

        _write_at(fd, 0, header)
        _run_bands(payload, transform, True, put=put)


def _mosaic_file(img: GrayImage, transform, path) -> None:
    """Write subband_mosaic(forward_2d(img, transform)) to path as a PGM, holding no coefficient plane."""
    h, w = img.pixels.shape
    header = _pgm_header(w, h)
    with _output(path, len(header) + h * w) as fd:  # a pipe is refused before the transform runs
        fill = lambda put: _run_bands(img.pixels, transform, False, put=put)
        mosaic = _mosaic(fill, img.pixels.shape, transform.size)
        _write_at(fd, 0, header, mosaic.pixels)


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
    return _mosaic(lambda put: put(0, coeffs.values), coeffs.values.shape, coeffs.block)


def _mosaic(fill, shape, m: int) -> GrayImage:
    """subband_mosaic of a plane of the given shape, which fill(put) hands over in bands.

    fill calls put(top, band) with bands of whole block rows, top a
    band's first row in the plane, in any order and from any thread.
    Each band is regrouped into its own rows of the mosaic plane before
    put returns, so a band loop's reused buffer may hold it.
    """
    h, w = shape
    # the regrouped plane is the one float plane this function holds; the rest runs in place
    mosaic = np.empty((m, h // m, m, w // m))

    def put(top, band):
        blocks = band.reshape(-1, m, w // m, m)
        np.abs(blocks.transpose(1, 0, 3, 2), out=mosaic[:, top // m:top // m + len(blocks)])

    fill(put)
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
            # address, perms, offset, dev, inode, then the pathname, which may hold spaces
            fields = (line.rstrip("\n").split(maxsplit=5) for line in maps)
            paths = {Path(f[5]) for f in fields if len(f) == 6}
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


class _Unfolded(FastRegularTransform):
    """rfst's sine core, then its postprocessing as a pass of its own, at every M.

    The paper appends the postprocessing to a fast sine transform and
    compares the cascade with the dense half-size block there, so the
    bench times both on this route: the sine core that rfst ships at M
    (the dense product below regularity.FFT_MIN_SIZE, the FFT from
    there on), then the postprocessing, even where rfst(M) folds the
    two into one product.  It is the reference that the shipped route
    is checked against.
    """

    _along = FastRegularTransform._sine_along

    @property
    def post(self):
        return self.cascade


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
    shipped_median_s: float


def bench_postprocessing(
    m: int, image_size: int = 512, repeats: int = 11, seed: int = 0
) -> BenchReport:
    """Median wall time of the two postprocessing styles on one seeded image, and of rfst(m).

    Both styles run forward_2d's pipeline on the unfolded route
    (_Unfolded): the sine core rfst(m) ships at m, a dense product
    below regularity.FFT_MIN_SIZE and the FFT from there on, then the
    postprocessing as its own pass.  One is rfst(m)'s reflection
    cascade; the other is rdst.DenseHalf, the dense half-size matrix on
    the even coefficients, in the cascade's place.  The third median,
    shipped_median_s, times rfst(m) as forward_2d runs it: below
    FFT_MIN_SIZE one product with the folded matrix, the same route as
    the cascade's from there on.  Every route runs on one worker, the
    calling thread, since the medians compare postprocessing styles,
    not thread counts.  Every loaded OpenBLAS is held at one thread for
    the timed region, and blas_pinning records how (or "unpinned");
    band_rows is the band height the pipeline ran.
    Reports the medians, the difference of the first two, and the max
    absolute discrepancy between the cascade's and the dense half's
    coefficient planes.  repeats >= 1; image_size a positive multiple
    of m; repeats x image_size^2 x 3 routes at most BENCH_MAX_WORK,
    checked before the image is built.
    """
    _check_size(m)
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    _check_divisible((image_size, image_size), m)
    passes = 3 * repeats * image_size**2
    if passes > BENCH_MAX_WORK:
        raise ValueError(f"{repeats} repeats x {image_size}^2 pixels x 3 routes = {passes} pixel "
                         f"passes exceeds the bench's limit of {BENCH_MAX_WORK}")
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, size=(image_size, image_size), dtype=np.uint8))
    shipped = rfst(m)
    cascade = _Unfolded(shipped.cascade)
    dense = _Unfolded(DenseHalf(half_postprocessing_matrix(m)))

    # the integer-to-float conversion is identical for every route, so it
    # stays outside the timed region
    plane0 = img.pixels.astype(np.float64)
    work = np.empty_like(plane0)

    def run(transform, out=work) -> np.ndarray:
        rows = _band_rows(transform)
        for _ in _blockwise_2d(plane0, out, transform, False, rows, range(0, image_size, rows)):
            pass
        return out

    def timed(transform) -> float:
        start = time.perf_counter()
        run(transform)
        return time.perf_counter() - start

    with _one_blas_thread() as pinning:
        for transform in (cascade, dense, shipped):  # warm buffers and BLAS dispatch
            timed(transform)
        cascade_times, dense_times, shipped_times = [], [], []
        for _ in range(repeats):
            cascade_times.append(timed(cascade))
            dense_times.append(timed(dense))
            shipped_times.append(timed(shipped))

    diff = float(np.abs(run(cascade, np.empty_like(plane0)) - run(dense)).max())
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
        band_rows=min(_band_rows(shipped), image_size),
        shipped_median_s=float(np.median(shipped_times)),
    )
