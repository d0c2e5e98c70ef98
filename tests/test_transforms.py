"""Transform matrices, reflection primitives, and text serialization."""

import io
import math

import mpmath
import numpy as np
import pytest

from rfst.analysis import dc_leakage_energy
from rfst.regularity import rfst
from rfst.transforms import (
    GivensReflection,
    OrthonormalTransform,
    dct2,
    dst2,
    emit_matrix_text,
    hadamard,
    is_power_of_two,
    reflect_pair,
)

SIZES = (2, 4, 8, 16, 32, 64)


def reflection_matrix(g: GivensReflection, size: int) -> np.ndarray:
    """Densify a single reflection to a size x size matrix."""
    if g.j >= size:
        raise ValueError(f"reflection index {g.j} out of range for size {size}")
    c, s = math.cos(g.theta), math.sin(g.theta)
    mat = np.eye(size)
    mat[g.i, g.i] = c
    mat[g.j, g.j] = -c
    mat[g.i, g.j] = s
    mat[g.j, g.i] = s
    return mat


def test_is_power_of_two():
    assert [m for m in range(70) if is_power_of_two(m)] == [2, 4, 8, 16, 32, 64]


@pytest.mark.parametrize("maker", [dct2, dst2, hadamard])
@pytest.mark.parametrize("m", SIZES)
def test_orthonormal_families(maker, m):
    t = maker(m)
    assert t.size == m
    assert t.orthonormality_residual() <= 1e-12


@pytest.mark.parametrize("m", SIZES)
def test_dct2_constant_row(m):
    t = dct2(m)
    assert np.abs(t.entries[0] - math.sqrt(1.0 / m)).max() <= 1e-15


def _reference_row(m, k, trig):
    """sqrt(2/m) trig(pi k (2n+1) / 2m) for n < m, evaluated with 30 digits."""
    with mpmath.workdps(30):
        scale = mpmath.sqrt(mpmath.mpf(2) / m)
        return np.array(
            [float(scale * trig(mpmath.pi * k * (2 * n + 1) / (2 * m))) for n in range(m)]
        )


def _sine_reference_row(m, k):
    if k == m - 1:
        return math.sqrt(1.0 / m) * (-1.0) ** np.arange(m)
    return _reference_row(m, k + 1, mpmath.sin)


def _cosine_reference_row(m, k):
    if k == 0:
        return np.full(m, math.sqrt(1.0 / m))
    return _reference_row(m, k, mpmath.cos)


@pytest.mark.parametrize("m", SIZES)
def test_dst2_closed_form_rows(m):
    t = dst2(m)
    for k in range(m):
        assert np.abs(t.entries[k] - _sine_reference_row(m, k)).max() <= 1e-15
    # the sine transform leaks DC only into even-indexed subbands
    odd_leak = np.abs((t.entries @ np.ones(m))[1::2]).max()
    assert odd_leak <= 1e-15 * max(1.0, m / 8) ** 2


@pytest.mark.parametrize("m", SIZES)
def test_dct2_closed_form_rows(m):
    t = dct2(m)
    for k in range(m):
        assert np.abs(t.entries[k] - _cosine_reference_row(m, k)).max() <= 1e-15


def test_type_two_tables_stay_exact_at_large_size():
    # the trig arguments are reduced as integers, so the error does not grow with m
    m = 1024
    sine, cosine = dst2(m).entries, dct2(m).entries
    for k in (0, 1, m // 2 - 1, m // 2, m - 2, m - 1):
        assert np.abs(sine[k] - _sine_reference_row(m, k)).max() <= 1e-15
        assert np.abs(cosine[k] - _cosine_reference_row(m, k)).max() <= 1e-15
    assert np.abs((sine @ np.ones(m))[1::2]).max() <= 1e-14
    assert dc_leakage_energy(rfst(m)) <= 1e-26


@pytest.mark.parametrize("m", SIZES)
def test_dst2_from_reversed_cosine(m):
    # reversing the cosine rows and flipping alternate input signs must
    # reproduce the sine matrix exactly
    cosine = dct2(m).entries
    rebuilt = np.array(
        [[(-1.0) ** n * cosine[m - 1 - k, n] for n in range(m)] for k in range(m)]
    )
    assert np.abs(rebuilt - dst2(m).entries).max() <= 1e-14


def test_dst2_small_matrix_values():
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    r2 = math.sqrt(2.0)
    expected = 0.5 * np.array(
        [
            [r2 * s, r2 * c, r2 * c, r2 * s],
            [1, 1, -1, -1],
            [r2 * c, -r2 * s, -r2 * s, r2 * c],
            [1, -1, 1, -1],
        ]
    )
    assert np.abs(dst2(4).entries - expected).max() <= 1e-15


@pytest.mark.parametrize("m", SIZES)
def test_hadamard_entries_and_sylvester_doubling(m):
    t = hadamard(m)
    assert np.abs(np.abs(t.entries) - 1.0 / math.sqrt(m)).max() <= 1e-15
    if m >= 4:
        half = hadamard(m // 2).entries * math.sqrt(m // 2)
        top = np.hstack([half, half])
        bottom = np.hstack([half, -half])
        doubled = np.vstack([top, bottom]) / math.sqrt(m)
        assert np.abs(t.entries - doubled).max() <= 1e-15


def test_transform_rejects_bad_input():
    with pytest.raises(ValueError):
        OrthonormalTransform(np.ones((3, 3)))
    with pytest.raises(ValueError):
        OrthonormalTransform(np.eye(4) * 2.0)
    with pytest.raises(ValueError):
        OrthonormalTransform(np.eye(4)[:, :3])
    with pytest.raises(ValueError):
        OrthonormalTransform(np.eye(4), kind="nonsense")
    for bad_size in (0, 1, 3, 12):
        with pytest.raises(ValueError):
            dct2(bad_size)


def test_transform_entries_are_read_only():
    t = dct2(4)
    with pytest.raises(ValueError):
        t.entries[0, 0] = 0.0


def _dense_families(m):
    return dct2(m), dst2(m), hadamard(m), rfst(m).as_matrix()


@pytest.mark.parametrize("m", (2, 4, 8, 16, 32, 64, 128))
def test_products_equal_the_transposed_view_products_bit_for_bit(m):
    # _along hands BLAS entries or its contiguous transpose, never a transposed view,
    # and must give the view's products bit for bit on the shapes a band of a plane
    # w wide runs on one and on two workers: the row pass's n = rows * w / M
    # segments, (n, M), and the column pass's block rows, (rows / M, M, w).
    # Products small enough for OpenBLAS's small-matrix kernels (at M = 32, n <= 37
    # with an AVX-512 x86-64 kernel) may round in another order with a view
    # operand, so a 32 x 32 plane at M = 32 is not among these shapes
    rng = np.random.default_rng(64)
    for rows in {max(64 // workers, m) // m * m for workers in (1, 2)}:
        for w in (4 * m, 2048):
            x2 = rng.standard_normal((rows * w // m, m))
            x3 = rng.standard_normal((rows // m, m, w))
            for t in _dense_families(m):
                e = t.entries
                for x, inverse, want in ((x2, False, np.matmul(x2, e.T)),
                                         (x2, True, np.matmul(x2, e)),
                                         (x3, False, np.matmul(e, x3)),
                                         (x3, True, np.matmul(e.T, x3))):
                    y = np.empty_like(x)
                    t._along(x, y, inverse)
                    assert np.array_equal(y, want), (t.kind, x.shape, inverse)


@pytest.mark.parametrize("index", range(4), ids=("dct", "dst", "ht", "rfst"))
def test_cached_transpose_is_contiguous_read_only_and_built_once(index):
    t = _dense_families(8)[index]
    assert "_transposed" not in vars(t)  # built on first use, not on construction
    transposed = t._transposed
    assert transposed.flags.c_contiguous and not transposed.flags.writeable
    assert np.array_equal(transposed, t.entries.T)
    assert t._transposed is transposed
    with pytest.raises(ValueError):
        transposed[0, 0] = 0.0


def test_transform_apply_shapes():
    t = dct2(4)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    assert np.abs(t.apply(x) - t.entries @ x).max() == 0.0
    cols = rng.standard_normal((4, 7))
    assert t.apply(cols).shape == (4, 7)
    with pytest.raises(ValueError):
        t.apply(np.zeros(5))
    for x in (np.float64(1.0), np.ones((4, 2, 3))):
        with pytest.raises(ValueError, match="dimensions"):
            t.apply(x)


def test_reflection_matrix_shape_and_involution():
    g = GivensReflection(1, 3, 0.7)
    mat = reflection_matrix(g, 6)
    assert np.abs(mat @ mat - np.eye(6)).max() <= 1e-15
    assert np.abs(mat @ mat.T - np.eye(6)).max() <= 1e-15
    assert mat[1, 1] == math.cos(0.7)
    assert mat[3, 3] == -math.cos(0.7)
    assert mat[1, 3] == mat[3, 1] == math.sin(0.7)


def test_reflection_validates_indices():
    with pytest.raises(ValueError):
        GivensReflection(3, 1, 0.5)
    with pytest.raises(ValueError):
        GivensReflection(2, 2, 0.5)
    with pytest.raises(ValueError):
        GivensReflection(-1, 2, 0.5)
    with pytest.raises(ValueError):
        reflection_matrix(GivensReflection(0, 5, 0.5), 4)


def test_reflect_pair_matches_dense_on_vectors():
    rng = np.random.default_rng(11)
    g = GivensReflection(0, 2, 1.234)
    v = rng.standard_normal(5)
    out = v.copy()
    reflect_pair(out, g.i, g.j, math.cos(g.theta), math.sin(g.theta))
    assert np.abs(out - reflection_matrix(g, 5) @ v).max() <= 1e-15
    # applying twice restores the input (involution)
    reflect_pair(out, g.i, g.j, math.cos(g.theta), math.sin(g.theta))
    assert np.abs(out - v).max() <= 1e-15


def test_reflect_pair_on_2d_rows():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 9))
    expect = a.copy()
    for col in range(9):
        v = a[:, col].copy()
        reflect_pair(v, 1, 3, math.cos(0.4), math.sin(0.4))
        expect[:, col] = v
    got = a.copy()
    reflect_pair(got, 1, 3, math.cos(0.4), math.sin(0.4))
    assert np.abs(got - expect).max() == 0.0


def test_matrix_text_round_trip_is_exact():
    entries = dst2(8).entries
    again = np.loadtxt(io.StringIO(emit_matrix_text(entries)), delimiter=",")
    assert np.array_equal(entries, again)  # 17 significant digits round-trip floats


def test_matrix_text_format():
    text = emit_matrix_text(np.eye(2))
    assert text == "1,0\n0,1\n"
