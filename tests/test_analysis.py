"""Coding gain, DC leakage, and frequency response measures."""

import math

import numpy as np
import pytest

from rfst import analysis
from rfst.analysis import (
    Ar1Process,
    coding_gain,
    coding_gain_csv_row,
    dc_leakage_energy,
    frequency_response,
    frequency_response_csv,
)
from rfst.regularity import rfst
from rfst.transforms import OrthonormalTransform, dct2, dst2, hadamard


def test_ar1_covariance_structure():
    cov = Ar1Process(0.5, 4).covariance()
    expected = np.array(
        [
            [1.0, 0.5, 0.25, 0.125],
            [0.5, 1.0, 0.5, 0.25],
            [0.25, 0.5, 1.0, 0.5],
            [0.125, 0.25, 0.5, 1.0],
        ]
    )
    assert np.abs(cov - expected).max() <= 1e-15


def test_ar1_validation():
    with pytest.raises(ValueError):
        Ar1Process(1.0, 4)
    with pytest.raises(ValueError):
        Ar1Process(-1.5, 4)
    with pytest.raises(ValueError):
        Ar1Process(0.5, 0)


def test_coding_gain_against_direct_loop():
    t = dst2(8)
    report = coding_gain(t, rho=0.9)
    cov = Ar1Process(0.9, 8).covariance()
    variances = np.array([t.entries[m] @ cov @ t.entries[m] for m in range(8)])
    assert np.abs(report.subband_variances - variances).max() <= 1e-14
    gain = -10.0 / 8 * np.log10(variances).sum()
    assert abs(report.gain_db - gain) <= 1e-12
    assert abs(variances.mean() - 1.0) <= 1e-12  # orthonormal: mean variance is 1


def test_coding_gain_known_values():
    # two-decimal values for the classical transforms at the default rho
    assert f"{coding_gain(dst2(4)).gain_db:.2f}" == "4.73"
    assert f"{coding_gain(rfst(8)).gain_db:.2f}" == "7.72"
    assert f"{coding_gain(hadamard(16)).gain_db:.2f}" == "8.19"


def test_coding_gain_kind_tagging():
    assert coding_gain(dct2(4)).kind == "DCT2"
    assert coding_gain(rfst(4)).kind == "RFST"
    assert coding_gain(OrthonormalTransform(np.eye(4))).kind == "CUSTOM"


def test_identity_transform_has_zero_gain():
    assert abs(coding_gain(OrthonormalTransform(np.eye(8))).gain_db) <= 1e-12


def test_dc_leakage_energy_values():
    # the sine transform of size 4 leaks 2 (cos pi/8 - sin pi/8)^2 of the
    # total DC energy 4; the regularized transforms leak nothing
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    expected = 2.0 * (c - s) ** 2
    assert abs(dc_leakage_energy(dst2(4)) - expected) <= 1e-14
    assert abs(expected - 0.5857864376269049) <= 1e-15
    assert dc_leakage_energy(rfst(4)) <= 1e-28
    assert dc_leakage_energy(dct2(8)) <= 1e-28
    assert abs(dc_leakage_energy(OrthonormalTransform(np.eye(4))) - 3.0) <= 1e-15


def test_frequency_response_grid_and_endpoints():
    fr = frequency_response(rfst(8), 0, n_points=9)
    assert fr.omegas[0] == 0.0
    assert abs(fr.omegas[-1] - math.pi) <= 1e-15
    assert len(fr.magnitudes) == 9
    # row 0 of a regular transform collects the full DC response at omega 0
    assert abs(fr.magnitudes[0] - math.sqrt(8)) <= 1e-12
    # every other row of a regular transform vanishes at DC
    for row in range(1, 8):
        assert frequency_response(rfst(8), row, n_points=5).magnitudes[0] <= 1e-12


def test_frequency_response_of_sine_rows_leaks_at_dc():
    mags = [frequency_response(dst2(8), row, n_points=3).magnitudes[0] for row in range(8)]
    leaking = [row for row, mag in enumerate(mags) if mag > 1e-9]
    assert leaking == [0, 2, 4, 6]


def test_frequency_response_builds_its_grid_once():
    analysis._phase_grid.cache_clear()
    t = rfst(16)
    entries = t.as_matrix().entries
    omegas = np.linspace(0.0, np.pi, 33)
    phases = np.exp(-1j * omegas[:, None] * np.arange(16)[None, :])
    for row in range(16):
        fr = frequency_response(t, row, n_points=33)
        assert np.array_equal(fr.magnitudes, np.abs(phases @ entries[row]))
        fr.omegas[:] = -1.0  # a caller's copy; the shared grid stays intact
    assert analysis._phase_grid.cache_info().misses == 1
    assert np.array_equal(frequency_response(t, 0, n_points=33).omegas, omegas)


def test_frequency_response_validation():
    with pytest.raises(ValueError):
        frequency_response(dst2(8), 8)
    with pytest.raises(ValueError):
        frequency_response(dst2(8), 0, n_points=1)


def test_csv_formats():
    report = coding_gain(dst2(8))
    assert coding_gain_csv_row(report) == "dst2,8,0.95,5.09"
    assert coding_gain_csv_row(report, label="dst") == "dst,8,0.95,5.09"
    fr = frequency_response(dst2(4), 1, n_points=4)
    lines = frequency_response_csv(fr).strip().split("\n")
    assert lines[0] == "omega,mag"
    assert len(lines) == 5
    w, mag = lines[1].split(",")
    assert float(w) == 0.0
    assert abs(float(mag) - fr.magnitudes[0]) == 0.0
