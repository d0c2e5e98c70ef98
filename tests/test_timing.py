"""The postprocessing bench: its report, its BLAS pinning and its input checks."""

import io
from pathlib import Path

import numpy as np
import pytest

from rfst import imaging, regularity, timing
from rfst.imaging import BAND_ROWS
from rfst.regularity import FFT_MIN_SIZE, rfst
from rfst.timing import bench_postprocessing


def test_bench_reports_consistent_fields():
    report = bench_postprocessing(8, image_size=64, repeats=3, seed=5)
    assert report.size == 8
    assert report.image_size == 64
    assert report.repeats == 3
    assert report.cascade_median_s > 0.0
    assert report.dense_half_median_s > 0.0
    assert abs(report.saved_s - (report.dense_half_median_s - report.cascade_median_s)) <= 1e-12
    assert report.max_abs_diff <= 1e-10
    assert report.blas_pinning == "unpinned" or report.blas_pinning.startswith(
        ("openblas_set_num_threads", "scipy_openblas_set_num_threads"))


def test_blas_pinning_reads_a_library_path_with_spaces(tmp_path, monkeypatch):
    # /proc/self/maps ends a line with the library's pathname, which may hold spaces
    with open("/proc/self/maps") as maps:
        fields = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    loaded = sorted(
        Path(f[5]) for f in fields if len(f) == 6 and "openblas" in Path(f[5]).name.lower())
    if not loaded:
        pytest.skip("no OpenBLAS is loaded")
    spaced = tmp_path / "with space" / loaded[0].name
    spaced.parent.mkdir()
    spaced.symlink_to(loaded[0])
    line = f"7f0000000000-7f0000001000 r-xp 00000000 08:01 1 {spaced}\n"
    monkeypatch.setattr(timing, "open", lambda *args, **kwargs: io.StringIO(line), raising=False)
    with timing._one_blas_thread() as pinning:
        pass
    assert pinning.startswith(("openblas_set_num_threads", "scipy_openblas_set_num_threads"))
    assert pinning.endswith(f"(1) in {spaced.name}")


@pytest.mark.parametrize("m,image_size,band_rows", (
    (8, 3 * BAND_ROWS, BAND_ROWS), (8, 16, 16), (2 * BAND_ROWS, 4 * BAND_ROWS, 2 * BAND_ROWS)))
def test_bench_reports_its_band_height(m, image_size, band_rows):
    # max(BAND_ROWS, M) rows, or the whole image when it is shorter
    report = bench_postprocessing(m, image_size=image_size, repeats=1, seed=6)
    assert report.band_rows == band_rows
    assert report.max_abs_diff <= 1e-10


def test_bench_reports_the_band_height_of_the_core_it_ran(monkeypatch):
    # with the FFT core switched on at 32, a band is one 32-row block row, not BAND_ROWS rows
    monkeypatch.setattr(regularity, "FFT_MIN_SIZE", 32)
    plane, t = np.zeros((256, 256)), rfst(32)
    rows = imaging._band_rows(t)
    bands = imaging._blockwise_2d(plane, plane.copy(), t, False, rows, range(0, 256, rows))
    assert sum(1 for _ in bands) == 256 // 32
    report = bench_postprocessing(32, image_size=256, repeats=1, seed=6)
    assert report.band_rows == 32
    assert report.max_abs_diff <= 1e-10


def test_bench_runs_the_fft_core_from_fft_min_size(monkeypatch):
    # from FFT_MIN_SIZE on, forward_2d never builds the dense sine core, and neither does the bench
    def no_dense_core(m):
        pytest.fail(f"the dense sine core dst2({m}) was built")

    monkeypatch.setattr(regularity, "dst2", no_dense_core)
    report = bench_postprocessing(FFT_MIN_SIZE, FFT_MIN_SIZE, 1)
    assert report.band_rows == FFT_MIN_SIZE
    assert report.max_abs_diff <= 1e-9


def test_bench_validates_input():
    with pytest.raises(ValueError):
        bench_postprocessing(8, image_size=100)
    with pytest.raises(ValueError):
        bench_postprocessing(2, image_size=64)
    with pytest.raises(ValueError, match="power of two"):
        bench_postprocessing(0, image_size=64)
    for image_size in (0, -8):
        with pytest.raises(ValueError, match="must be positive"):
            bench_postprocessing(8, image_size=image_size)
    with pytest.raises(ValueError, match="repeats"):
        bench_postprocessing(8, image_size=64, repeats=0)
