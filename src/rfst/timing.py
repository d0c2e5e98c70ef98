"""The postprocessing bench: rfst bench and acceptance criterion 9.

The bench adds a third route to rfst(M)'s two (see imaging), _Unfolded,
the paper's: the sine core rfst ships at M, then the postprocessing as a
pass of its own at every M, its row pass included.  It times the cascade
and rdst.DenseHalf, the dense half-size matrix, on that route, and
rfst(M) as shipped.

Every route runs imaging's 2-D pipeline (_blockwise_2d) on one worker,
the calling thread, with every loaded OpenBLAS held at one thread
(_one_blas_thread).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import GrayImage, _band_rows, _blockwise_2d, _check_divisible
from .rdst import DenseHalf, half_postprocessing_matrix
from .regularity import FastRegularTransform, rfst
from .transforms import _check_size

# The most work one bench_postprocessing call may ask for: repeats x image pixels x 3
# routes, each route one pass of a pixel through forward_2d's pipeline.  One pass took
# 3-5 ns per pixel at M=8, 27 at M=1024 (2048^2) and 48 at M=4096 (4096^2) on a shared
# 2-core x86-64 host with one BLAS thread, so this bounds a call to about a minute
# at the largest M, and criterion 9's call (M=8, 512^2, 25 repeats) asks for 2% of it.
BENCH_MAX_WORK = 2**30


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
    two into one product or, on the FFT core, carries the cascade's row
    pass inside its column tiles.  It is the reference that the shipped
    route is checked against.
    """

    _along = FastRegularTransform._sine_along
    carried = None  # the row pass runs on its own, as post's

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
    FFT_MIN_SIZE one product with the folded matrix; from there on the
    same column tiles as both styles, but with the cascade's row pass
    run inside them, where the two styles run theirs as a pass of its
    own before the tiles.  Every route runs on one worker, the
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
