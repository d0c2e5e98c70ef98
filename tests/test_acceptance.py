"""End-to-end acceptance suite.

One test per numbered criterion.  Each test prints a single scoreboard
line -- ``acceptance criterion N (<slug>): PASS`` or ``FAIL`` -- straight
to the terminal (capture is bypassed), so a plain pytest run shows the
whole board at a glance.  Tolerances are pinned here on purpose; do not
loosen them to make a red line green.
"""

import contextlib
import math
import time

import numpy as np

from rfst.analysis import coding_gain
from rfst.imaging import GrayImage, bench_postprocessing, forward_2d, inverse_2d, subband_energy
from rfst.opcount import measure_cascade_ops
from rfst.rdst import rdst, signed_perm_equivalent
from rfst.regularity import extra_op_count, rfst
from rfst.transforms import dst2, hadamard

SQRT2 = math.sqrt(2.0)
C8 = math.cos(math.pi / 8.0)
S8 = math.sin(math.pi / 8.0)


@contextlib.contextmanager
def verdict(capsys, number, slug):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance criterion {number} ({slug}): FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance criterion {number} ({slug}): PASS")


def maxdiff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def test_criterion_1_closed_form_matrices(capsys):
    with verdict(capsys, 1, "closed-form-matrices"):
        size2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
        assert maxdiff(rfst(2).as_matrix().entries, size2) <= 1e-12

        size4 = 0.5 * np.array([
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0, -1.0],
            [-1.0, 1.0, 1.0, -1.0],
            [1.0, -1.0, 1.0, -1.0],
        ])
        assert maxdiff(rfst(4).as_matrix().entries, size4) <= 1e-12

        sine4 = 0.5 * np.array([
            [SQRT2 * S8, SQRT2 * C8, SQRT2 * C8, SQRT2 * S8],
            [1.0, 1.0, -1.0, -1.0],
            [SQRT2 * C8, -SQRT2 * S8, -SQRT2 * S8, SQRT2 * C8],
            [1.0, -1.0, 1.0, -1.0],
        ])
        assert maxdiff(dst2(4).entries, sine4) <= 1e-12


def test_criterion_2_regularity_suite(capsys):
    with verdict(capsys, 2, "regularity-and-orthonormality"):
        start = time.perf_counter()
        for m in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            dense = rfst(m).as_matrix().entries
            dc = np.zeros(m)
            dc[0] = math.sqrt(m)
            assert maxdiff(dense @ np.ones(m), dc) <= 1e-10
            assert maxdiff(dense @ dense.T, np.eye(m)) <= 1e-11
        assert time.perf_counter() - start < 10.0


def test_criterion_3_oracle_equivalence(capsys):
    with verdict(capsys, 3, "signed-permutation-equivalence"):
        start = time.perf_counter()
        for m in (2, 4, 8, 16, 32, 64):
            assert signed_perm_equivalent(rdst(m), rfst(m), 1e-8) is not None
        for m in (2, 4):
            assert signed_perm_equivalent(rfst(m), hadamard(m), 1e-8) is not None
        for m in (8, 16, 32):
            assert signed_perm_equivalent(rfst(m), hadamard(m), 1e-8) is None
        assert time.perf_counter() - start < 30.0


def test_criterion_4_coding_gain_table(capsys):
    expected = {
        dst2: [5.05, 4.73, 5.09, 6.02, 7.24],
        rfst: [5.05, 7.17, 7.72, 7.85, 8.09],
        hadamard: [5.05, 7.17, 7.95, 8.19, 8.27],
    }
    with verdict(capsys, 4, "coding-gain-table"):
        for build, gains in expected.items():
            for m, gain_db in zip((2, 4, 8, 16, 32), gains):
                report = coding_gain(build(m), rho=0.95)
                assert abs(report.gain_db - gain_db) <= 0.01, (build.__name__, m)


def test_criterion_5_operation_counts(capsys):
    cascade_counts = {8: (12, 6), 16: (28, 14), 32: (60, 30)}
    dense_half_counts = {8: (16, 12), 16: (64, 56), 32: (256, 240)}
    with verdict(capsys, 5, "operation-counts"):
        for m in (8, 16, 32):
            report = extra_op_count(m, "cascade")
            assert (report.mul, report.add) == cascade_counts[m]
            report = extra_op_count(m, "dense_half")
            assert (report.mul, report.add) == dense_half_counts[m]
            # counters ride through the cascade's reflect_pair loop: the code
            # that folds it into rfst's dense matrix below FFT_MIN_SIZE, and the
            # route forward() takes from there on for a vector; on a block
            # forward() runs the same reflections through BLAS
            counter = measure_cascade_ops(rfst(m).cascade)
            assert (counter.mul, counter.add) == (2 * (m - 2), m - 2)


def test_criterion_6_angle_golden(capsys):
    with verdict(capsys, 6, "quarter-size-angle"):
        reflections = rfst(4).cascade.reflections
        assert len(reflections) == 1
        theta = reflections[0].theta
        assert abs(theta - math.pi / 8.0) <= 1e-12
        independent = math.atan((C8 - S8) / (C8 + S8))
        assert abs(theta - independent) <= 1e-12


def test_criterion_7_streaming_and_2d_round_trip(capsys):
    rng = np.random.default_rng(7)
    with verdict(capsys, 7, "streaming-agreement-and-reconstruction"):
        for m in (4, 8, 16, 32):
            fast = rfst(m)
            dense = fast.as_matrix().entries
            for _ in range(100):
                x = rng.standard_normal(m)
                assert maxdiff(fast.forward(x), dense @ x) <= 1e-13
        for m in (2, 4, 8, 16, 32):
            pixels = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
            fast = rfst(m)
            back = inverse_2d(forward_2d(GrayImage(pixels), fast), fast)
            assert maxdiff(back, pixels.astype(np.float64)) <= 1e-9


def test_criterion_8_dc_leakage_demo(capsys):
    flat = GrayImage(np.full((512, 512), 200, dtype=np.uint8))
    with verdict(capsys, 8, "dc-leakage-on-constant-image"):
        energy = subband_energy(forward_2d(flat, rfst(8)))
        total = float(energy.sum())
        leaked = total - float(energy[0, 0])
        assert leaked <= 1e-16 * total

        energy = subband_energy(forward_2d(flat, dst2(4)))
        total = float(energy.sum())
        leaked_fraction = (total - float(energy[0, 0])) / total
        # per block and axis the constant vector (energy 4) leaks
        # 2*(cos(pi/8) - sin(pi/8))^2; separability squares the kept share
        one_dim_leak = 2.0 * (C8 - S8) ** 2
        assert abs(one_dim_leak - 0.5857864376269049) <= 1e-15
        expected_fraction = 1.0 - ((4.0 - one_dim_leak) / 4.0) ** 2
        assert abs(leaked_fraction - expected_fraction) <= 1e-12


def test_criterion_9_postprocessing_benchmark(capsys):
    with verdict(capsys, 9, "cascade-beats-dense-half"):
        start = time.perf_counter()
        report = bench_postprocessing(8, image_size=512, repeats=25, seed=0)
        assert report.repeats >= 11
        assert report.max_abs_diff <= 1e-10
        assert report.cascade_median_s <= report.dense_half_median_s
        assert time.perf_counter() - start < 60.0
