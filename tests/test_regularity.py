"""Cascade construction, the fast regular transform, and op-count models."""

import math
import os

import numpy as np
import pytest

from rfst import regularity
from rfst.imaging import BAND_ROWS, GrayImage, _Unfolded, forward_2d, inverse_2d
from rfst.opcount import measure_cascade_ops
from rfst.rdst import DenseHalf, half_postprocessing_matrix
from rfst.regularity import (
    FFT_MIN_SIZE,
    FastRegularTransform,
    RegularityCascade,
    _cascade,
    emit_cascade_csv,
    extra_op_count,
    rfst,
)
from rfst.transforms import GivensReflection, OrthonormalTransform, dst2, hadamard, reflect_pair

SIZES = (2, 4, 8, 16, 32, 64)


def build_general_cascade(t: OrthonormalTransform) -> RegularityCascade:
    """Cascade of M - 1 reflections making an arbitrary orthonormal transform regular.

    Walks j = 1..M-1, so the final DC response is exactly
    [sqrt(M), 0, ..., 0] with a positive lead, and the cascade length
    is fixed at M - 1: the reference the reduced cascade of rfst(M) is
    checked against.
    """
    return _cascade(t.entries @ np.ones(t.size), range(1, t.size))


@pytest.mark.parametrize("m", SIZES)
def test_reduced_cascade_shape(m):
    cas = rfst(m).cascade
    assert len(cas) == m // 2 - 1
    assert [(g.i, g.j) for g in cas.reflections] == [(0, 2 * k) for k in range(1, m // 2)]


@pytest.mark.parametrize("m", SIZES)
def test_rfst_is_regular_and_orthonormal(m):
    dense = rfst(m).as_matrix()
    assert dense.kind == "RFST"
    assert dense.orthonormality_residual() <= 1e-12
    a = dense.entries @ np.ones(m)
    assert abs(a[0] - math.sqrt(m)) <= 1e-12
    assert np.abs(a[1:]).max() <= 1e-12


def test_rfst_small_matrix_values():
    expected2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    assert np.abs(rfst(2).as_matrix().entries - expected2).max() <= 1e-15
    expected4 = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, 1, -1, -1],
            [-1, 1, 1, -1],
            [1, -1, 1, -1],
        ]
    )
    assert np.abs(rfst(4).as_matrix().entries - expected4).max() <= 1e-15


def test_single_angle_at_size_four():
    cas = rfst(4).cascade
    assert len(cas) == 1
    # the lone angle closes the arctan identity: tan(pi/4 - x) at x = pi/8
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    independent = math.atan((c - s) / (c + s))
    assert abs(cas.reflections[0].theta - math.pi / 8) <= 1e-15
    assert abs(cas.reflections[0].theta - independent) <= 1e-15


@pytest.mark.parametrize("m", (4, 8, 16))
def test_general_cascade_regularizes_the_sine_transform(m):
    cas = build_general_cascade(dst2(m))
    assert len(cas) == m - 1
    dense = cas.as_matrix() @ dst2(m).entries
    a = dense @ np.ones(m)
    assert abs(a[0] - math.sqrt(m)) <= 1e-12
    assert np.abs(a[1:]).max() <= 1e-12
    # odd-index reflections see a numerically-zero response entry, so their
    # angles are negligible and the general route differs from the reduced
    # one only by odd-row sign flips
    odd_angles = [g.theta for g in cas.reflections if g.j % 2 == 1]
    assert np.abs(np.array(odd_angles)).max() <= 1e-12
    reduced = rfst(m).as_matrix().entries
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    assert np.abs(dense - signs[:, None] * reduced).max() <= 1e-12


def test_general_cascade_requires_nonzero_lead():
    # move the DC mass away from row 0 so the first step has a zero pivot
    flipped = rfst(4).as_matrix().entries[::-1]
    with pytest.raises(ValueError):
        build_general_cascade(OrthonormalTransform(flipped))


def test_cascade_apply_matches_dense_and_inverts():
    rng = np.random.default_rng(5)
    cas = rfst(16).cascade
    dense = cas.as_matrix()
    assert np.abs(dense @ dense.T - np.eye(16)).max() <= 1e-14
    x = rng.standard_normal(16)
    assert np.abs(cas.apply(x.copy()) - dense @ x).max() <= 1e-14
    cols = rng.standard_normal((16, 11))
    out = cas.apply(cols.copy())
    assert np.abs(out - dense @ cols).max() <= 1e-13
    assert np.abs(cas.apply(out, inverse=True) - cols).max() <= 1e-13
    # an empty block of columns comes back as it went in, both ways
    empty = np.ones((16, 0))
    assert cas.apply(empty) is empty and cas.apply(empty, inverse=True) is empty


@pytest.mark.parametrize("m", (8, 32))
def test_cascade_fast_path_matches_column_loop(m):
    # at m = 8 each row of the Fortran-ordered copy is a stride-8 view, where numpy 2.4.6
    # on AVX-512 negates in place wrongly; a BLAS route that took such rows would fail here
    rng = np.random.default_rng(6)
    cas = rfst(m).cascade
    block = rng.standard_normal((m, 17))
    per_column = block.copy()
    for col in range(block.shape[1]):
        v = per_column[:, col].copy()
        cas.apply(v)
        per_column[:, col] = v
    assert np.abs(cas.apply(block.copy()) - per_column).max() <= 1e-13
    # non-contiguous input falls back to the generic path, same answer
    fortran = np.asfortranarray(block.copy())
    assert np.abs(cas.apply(fortran) - per_column).max() <= 1e-13


def _column_loop(cas, block, inverse):
    # the reference: reflect_pair on one column vector at a time
    out = block.copy()
    for col in range(block.shape[1]):
        v = out[:, col].copy()
        order = reversed(cas.reflections) if inverse else cas.reflections
        for g in order:
            reflect_pair(v, g.i, g.j, math.cos(g.theta), math.sin(g.theta))
        out[:, col] = v
    return out


def _counting(monkeypatch, name):
    calls = []
    real = regularity._bind_blas()[name]
    monkeypatch.setattr(regularity, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_cascade_fast_path_handles_any_pivot(monkeypatch):
    # row 1 is a pivot and a partner, row 3 a partner twice: no shared pivot
    cas = RegularityCascade(
        (GivensReflection(1, 3, 0.3), GivensReflection(0, 1, -1.1), GivensReflection(0, 3, 2.0)),
        4,
    )
    drot_calls, drotm_calls = _counting(monkeypatch, "drot"), _counting(monkeypatch, "drotm")
    block = np.random.default_rng(8).standard_normal((4, 9))
    for inverse in (False, True):
        expected = _column_loop(cas, block, inverse)
        drot_calls.clear()
        out = cas.apply(block.copy(), inverse=inverse)
        assert len(drot_calls) == 3
        assert np.abs(out - expected).max() <= 1e-13
        # the same cascade on the stride-4 columns of the segment-major transpose
        drotm_calls.clear()
        segments = np.ascontiguousarray(block.T)
        cas.apply_flat(segments.reshape(-1), 9, lane=1, step=4, inverse=inverse)
        assert len(drotm_calls) == 3
        assert np.abs(segments.T - expected).max() <= 1e-13
        # and through apply, on the F-ordered (4, 9) view of those segments
        drotm_calls.clear()
        segments = np.ascontiguousarray(block.T)
        out = cas.apply(segments.T, inverse=inverse)
        assert len(drotm_calls) == 3
        assert np.shares_memory(out, segments)
        assert np.abs(out - expected).max() <= 1e-13


@pytest.mark.parametrize("m", (8, 256))
def test_cascade_kernel_on_strided_columns_and_offset_slabs(m, monkeypatch):
    # at m = 8 the segment-major columns are stride-8 views, which numpy 2.4.6 on
    # AVX-512 negates in place wrongly; the kernel leaves their negation to BLAS
    rng = np.random.default_rng(9)
    cas = rfst(m).cascade
    drotm_calls = _counting(monkeypatch, "drotm")
    block = rng.standard_normal((m, 13))
    for inverse in (False, True):
        expected = _column_loop(cas, block, inverse)
        drotm_calls.clear()
        segments = np.ascontiguousarray(block.T)
        cas.apply_flat(segments.reshape(-1), 13, lane=1, step=m, inverse=inverse)
        assert len(drotm_calls) == len(cas)
        assert np.abs(segments.T - expected).max() <= 1e-13
        # two coefficient-major slabs back to back, the cascade run on a view of the second
        slabs = np.stack([block, block])
        cas.apply_flat(slabs.reshape(-1)[m * 13:], 13, lane=13, step=1, inverse=inverse)
        assert np.array_equal(slabs[0], block)
        assert np.abs(slabs[1] - expected).max() <= 1e-13


def test_2d_pipeline_makes_one_blas_call_per_reflection_per_pass(monkeypatch):
    # on the bench's unfolded route the dense core's row pass runs the cascade on the
    # stride-8 columns of each band (drotm), its column pass on the band's subband-major
    # rows (dscal + drot); one call per block row would make 8 column-pass calls per
    # reflection on 64 rows.  rfst(8) itself folds the cascade into its matrix: no call.
    # Two workers, on two CPUs, split the plane into bands of half the height, so each
    # pass makes one call per reflection per band of 32 rows
    calls = {name: _counting(monkeypatch, name) for name in ("drotm", "drot")}
    unfolded, folded = _Unfolded(rfst(8).cascade), rfst(8)
    for workers, band_rows in ((1, BAND_ROWS), (2, BAND_ROWS // 2)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        for rows in (64, 3 * BAND_ROWS):
            bands = rows // band_rows
            img = GrayImage(np.random.default_rng(10).integers(0, 256, size=(rows, 48), dtype=np.uint8))
            for t, count in ((unfolded, 3 * bands), (folded, 0)):
                for c in calls.values():
                    c.clear()
                coeffs = forward_2d(img, t)
                assert {name: len(c) for name, c in calls.items()} == {"drotm": count, "drot": count}
                for c in calls.values():
                    c.clear()
                inverse_2d(coeffs, t)
                assert {name: len(c) for name, c in calls.items()} == {"drotm": count, "drot": count}


def test_cascade_validates_reflection_range():
    with pytest.raises(ValueError):
        RegularityCascade((GivensReflection(0, 8, 0.1),), 8)


@pytest.mark.parametrize("m", (8, FFT_MIN_SIZE, 4096))
def test_fast_transform_round_trip_and_regularity(m, monkeypatch):
    rng = np.random.default_rng(7)
    t = rfst(m)
    if m >= FFT_MIN_SIZE:  # forward() and inverse() run the FFT core, never the dense one
        def no_dst2(size):
            raise AssertionError("forward() or inverse() built the dense sine transform")

        monkeypatch.setattr(regularity, "dst2", no_dst2)
    for shape in ((m,), (m, 5)):
        x = rng.standard_normal(shape)
        y = t.forward(x)
        assert y.shape == shape
        assert np.abs(t.inverse(y) - x).max() <= 1e-13
    ones = t.forward(np.ones(m))
    # the lead carries the roundings of M/2 - 1 reflections, so it is bounded relative to
    # sqrt(M): 2.6e-15 at M = 4096 (1.6e-13 absolute), as on the dense core (1.8e-13)
    assert abs(ones[0] / math.sqrt(m) - 1) <= 1e-14
    assert np.abs(ones[1:]).max() <= 1e-13
    assert t.forward(np.ones((m, 0))).shape == t.inverse(np.ones((m, 0))).shape == (m, 0)
    for bad in (np.ones(5), np.float64(1.0), np.ones((m, 2, 3))):
        with pytest.raises(ValueError):
            t.forward(bad)
        with pytest.raises(ValueError):
            t.inverse(bad)
    if m == FFT_MIN_SIZE:
        monkeypatch.undo()
        x = rng.standard_normal(m)
        assert np.abs(t.forward(x) - t.as_matrix().entries @ x).max() <= 1e-12


@pytest.mark.parametrize("m", (4, 8, FFT_MIN_SIZE))
def test_dense_half_in_the_cascade_place_is_rfst(m, monkeypatch):
    # the dense half-size block is the cascade's action on the even coefficients, so
    # rfst(m) with it in the cascade's place is the same operator, 1-D, 2-D and dense
    rng = np.random.default_rng(12)
    t = rfst(m)
    dense = FastRegularTransform(DenseHalf(half_postprocessing_matrix(m)))
    assert (dense.kind, dense.size) == ("RFST", m)
    if m >= FFT_MIN_SIZE:  # everything but as_matrix() runs the FFT core
        def no_dst2(size):
            raise AssertionError("the dense sine transform was built")

        monkeypatch.setattr(regularity, "dst2", no_dst2)
    x = rng.standard_normal((m, 5))
    assert np.abs(dense.forward(x) - t.forward(x)).max() <= 1e-12
    assert np.abs(dense.inverse(x) - t.inverse(x)).max() <= 1e-12
    img = GrayImage(rng.integers(0, 256, size=(2 * m, 3 * m), dtype=np.uint8))
    planes = [forward_2d(img, u) for u in (t, dense)]
    assert planes[1].kind == "RFST"
    assert np.abs(planes[1].values - planes[0].values).max() <= 1e-10
    monkeypatch.undo()
    assert np.abs(dense.as_matrix().entries - t.as_matrix().entries).max() <= 1e-12


def test_as_matrix_densifies_once():
    t = rfst(8)
    dense = t.as_matrix()
    assert dense is t.as_matrix()
    assert dense.kind == "RFST"
    assert np.array_equal(dense.entries, t.cascade.reflect(t.core.entries.copy()))
    assert t.core.as_matrix() is t.core


def test_rfst_builds_the_sine_transform_once(monkeypatch):
    calls = []

    def counting_dst2(m):
        calls.append(m)
        return dst2(m)

    monkeypatch.setattr(regularity, "dst2", counting_dst2)
    t = rfst(16)
    assert calls == []
    assert t.core is t.core
    assert calls == [16]


def test_rfst_builds_no_matrix_and_matches_the_sine_dc_response(monkeypatch):
    def no_dst2(m):
        raise AssertionError("rfst built the dense sine transform")

    monkeypatch.setattr(regularity, "dst2", no_dst2)
    m = 4096
    t = rfst(m)
    reference = _cascade(dst2(m).entries @ np.ones(m), range(2, m, 2))
    assert len(t.cascade) == len(reference) == m // 2 - 1
    got = np.array([g.theta for g in t.cascade.reflections])
    want = np.array([g.theta for g in reference.reflections])
    assert np.abs(got - want).max() <= 1e-15


def test_extra_op_count_table():
    assert (extra_op_count(8, "cascade").mul, extra_op_count(8, "cascade").add) == (12, 6)
    assert (extra_op_count(16, "cascade").mul, extra_op_count(16, "cascade").add) == (28, 14)
    assert (extra_op_count(32, "cascade").mul, extra_op_count(32, "cascade").add) == (60, 30)
    assert (extra_op_count(8, "dense_half").mul, extra_op_count(8, "dense_half").add) == (16, 12)
    assert (extra_op_count(16, "dense_half").mul, extra_op_count(16, "dense_half").add) == (64, 56)
    assert (extra_op_count(32, "dense_half").mul, extra_op_count(32, "dense_half").add) == (256, 240)
    with pytest.raises(ValueError):
        extra_op_count(8, "imaginary")
    with pytest.raises(ValueError):
        extra_op_count(2, "cascade")


@pytest.mark.parametrize("m", (4, 8, 16, 32))
def test_instrumented_counts_match_formulas(m):
    counted = measure_cascade_ops(rfst(m).cascade)
    expect = extra_op_count(m, "cascade")
    assert (counted.mul, counted.add) == (expect.mul, expect.add)
    counted = measure_cascade_ops(DenseHalf(half_postprocessing_matrix(m)))
    expect = extra_op_count(m, "dense_half")
    assert (counted.mul, counted.add) == (expect.mul, expect.add)


def test_cascade_csv_round_trip():
    cas = rfst(8).cascade
    text = emit_cascade_csv(cas)
    lines = text.strip().split("\n")
    assert lines[0] == "k,i,j,theta"
    assert len(lines) == 4
    assert lines[1].startswith("1,0,2,")
    rows = [line.split(",") for line in lines[1:]]
    for k, (g, row) in enumerate(zip(cas.reflections, rows), start=1):
        assert row[:3] == [str(k), str(g.i), str(g.j)]
        assert float(row[3]) == g.theta  # 17 significant digits survive the trip


def test_hadamard_coincidence_is_not_structural():
    # the size-4 regular transform happens to be a Hadamard matrix; the
    # size-8 one is not (checked entrywise, no permutation involved here)
    assert np.abs(np.abs(rfst(4).as_matrix().entries) - 0.5).max() <= 1e-15
    assert np.abs(np.abs(rfst(8).as_matrix().entries) - 1 / math.sqrt(8)).max() > 0.01
    assert hadamard(8).orthonormality_residual() <= 1e-12
