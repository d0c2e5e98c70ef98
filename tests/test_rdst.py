"""Null-space oracle construction and signed-permutation equivalence."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfst as rfst_package
from rfst.rdst import (
    RDST_MAX_SIZE,
    apply_half_postprocessing,
    half_postprocessing_matrix,
    modified_dst,
    null_vector,
    rdst,
    rdst_stages,
    signed_perm_equivalent,
)
from rfst.opcount import OpCounter, counting_vector
from rfst.regularity import rfst
from rfst.transforms import OrthonormalTransform, dst2, hadamard


@pytest.mark.parametrize("m", (2, 4, 8, 16, 32))
def test_modified_dst_structure(m):
    start = modified_dst(m)
    assert np.abs(start[0] - math.sqrt(1.0 / m)).max() <= 1e-15
    n = np.arange(m)
    for k in range(1, m):
        expected = math.sqrt(2.0 / m) * np.sin(np.pi / m * k * (n + 0.5))
        assert np.abs(start[k] - expected).max() <= 1e-15
    # the constant row is a combination of the sine rows: rank M-1
    assert np.linalg.matrix_rank(start, tol=1e-10) == m - 1


def test_null_vector_finds_the_dropped_direction():
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rows = q.copy()
    rows[3, :] = 0.0
    v = null_vector(rows)
    assert abs(abs(v @ q[3]) - 1.0) <= 1e-12
    assert np.abs(rows @ v).max() <= 1e-12
    assert v[np.flatnonzero(np.abs(v) > 1e-9)[0]] > 0  # sign convention


def test_null_vector_rejects_wrong_nullity():
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    with pytest.raises(ValueError):
        null_vector(q)  # full rank
    two_dropped = q.copy()
    two_dropped[1, :] = 0.0
    two_dropped[4, :] = 0.0
    with pytest.raises(ValueError):
        null_vector(two_dropped)


@pytest.mark.parametrize("m", (2, 4, 8, 16))
def test_stages_progress_and_final_matrix(m):
    stages = list(rdst_stages(m))
    assert len(stages) == m // 2
    # stage k replaces odd row 2k+1 and leaves every other row as it was
    before = modified_dst(m)
    for k, after in enumerate(stages):
        changed = np.flatnonzero(np.abs(after - before).max(axis=1) > 0.0)
        assert set(changed) <= {2 * k + 1}
        before = after
    final = rdst(m)
    assert final.kind == "RDST"
    assert np.array_equal(final.entries, stages[-1])
    assert final.orthonormality_residual() <= 1e-12
    a = final.entries @ np.ones(m)
    assert abs(a[0] - math.sqrt(m)) <= 1e-12
    assert np.abs(a[1:]).max() <= 1e-12


@pytest.mark.parametrize("m", (2, 4, 8, 16))
def test_oracle_equivalent_to_cascade_route(m):
    witness = signed_perm_equivalent(rdst(m), rfst(m))
    assert witness is not None
    assert witness.max_residual <= 1e-12
    # the witness really maps one onto the other
    a = rdst(m).entries
    b = rfst(m).as_matrix().entries
    rebuilt = witness.signs[:, None] * b[witness.perm, :]
    assert np.abs(a - rebuilt).max() <= 1e-12


def test_equivalence_is_a_negative_answer_not_an_error():
    assert signed_perm_equivalent(rfst(8), hadamard(8)) is None


@pytest.mark.parametrize("tol", (float("nan"), -1e-8))
def test_equivalence_rejects_a_nan_or_negative_tolerance(tol):
    # NaN compares false with every residual, so it would accept any matching
    with pytest.raises(ValueError, match="tolerance"):
        signed_perm_equivalent(rfst(8), hadamard(8), tol)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported by signed_perm_equivalent alone
    src = str(Path(rfst_package.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import rfst, rfst.cli; "
            "print('scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_equivalence_shape_mismatch_raises():
    with pytest.raises(ValueError):
        signed_perm_equivalent(rfst(4), rfst(8))


def test_equivalence_recovers_a_planted_witness():
    rng = np.random.default_rng(23)
    base = rfst(8).as_matrix().entries
    perm = rng.permutation(8)
    signs = rng.choice([-1.0, 1.0], size=8)
    shuffled = signs[:, None] * base[perm, :]
    witness = signed_perm_equivalent(OrthonormalTransform(shuffled), OrthonormalTransform(base))
    assert witness is not None
    assert np.array_equal(witness.perm, perm)
    assert np.array_equal(witness.signs, signs)
    assert witness.max_residual == 0.0


@pytest.mark.parametrize("m", (4, 8, 16))
def test_half_postprocessing_block(m):
    pp = half_postprocessing_matrix(m)
    assert pp.shape == (m // 2, m // 2)
    assert np.abs(pp @ pp.T - np.eye(m // 2)).max() <= 1e-14
    dense = rfst(m).cascade.as_matrix()
    assert np.abs(dense[0::2, 0::2] - pp).max() == 0.0
    # the cascade is the identity on odd coordinates
    assert np.abs(dense[1::2, 1::2] - np.eye(m // 2)).max() == 0.0
    assert np.abs(dense[0::2, 1::2]).max() == 0.0
    assert np.abs(dense[1::2, 0::2]).max() == 0.0


def test_half_postprocessing_requires_size_four():
    with pytest.raises(ValueError):
        half_postprocessing_matrix(2)


def test_apply_half_postprocessing_object_path_matches_float_path():
    pp = half_postprocessing_matrix(8)
    v = np.linspace(-1.0, 1.0, 4)
    counter = OpCounter()
    counted = apply_half_postprocessing(pp, counting_vector(v, counter))
    plain = apply_half_postprocessing(pp, v)
    assert np.abs(np.array([float(x) for x in counted]) - plain).max() <= 1e-15
    assert (counter.mul, counter.add) == (16, 12)


def test_rdst_two_equals_sine_two():
    assert np.abs(rdst(2).entries - dst2(2).entries).max() <= 1e-15


def test_rdst_rejects_sizes_above_the_cap():
    with pytest.raises(ValueError, match="exceeds 512"):
        next(rdst_stages(2 * RDST_MAX_SIZE))
    with pytest.raises(ValueError, match="exceeds 512"):
        rdst(2 * RDST_MAX_SIZE)
    assert next(rdst_stages(RDST_MAX_SIZE)).shape == (RDST_MAX_SIZE, RDST_MAX_SIZE)
