"""Coding gain, DC leakage, and frequency response of block transforms.

Coding gain is evaluated under the standard first-order autoregressive
image model: unit-variance samples with covariance rho^|i-j|.  For an
orthonormal transform the arithmetic mean of the subband variances is
exactly the process variance, so the gain in dB reduces to
10 log10 of 1 over the geometric mean of the subband variances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_RHO = 0.95
MEAN_VARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class Ar1Process:
    """First-order autoregressive signal model with unit sample variance."""

    rho: float
    size: int

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"correlation coefficient must lie in (-1, 1), got {self.rho}")
        if self.size < 1:
            raise ValueError("process size must be positive")

    def covariance(self) -> np.ndarray:
        idx = np.arange(self.size)
        return self.rho ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class CodingGainReport:
    kind: str
    size: int
    rho: float
    subband_variances: np.ndarray
    gain_db: float


def coding_gain(t, rho: float = DEFAULT_RHO) -> CodingGainReport:
    """Transform coding gain in dB under the AR(1) model.

    Subband variance m is t_m R t_m' against the Toeplitz covariance.
    The arithmetic mean of the variances must equal 1 (it does exactly
    for any orthonormal transform); inputs failing that check are
    rejected rather than silently producing a meaningless gain.
    """
    dense = t.as_matrix()
    entries, m = dense.entries, dense.size
    cov = Ar1Process(rho, m).covariance()
    variances = np.einsum("mi,ij,mj->m", entries, cov, entries)
    if abs(variances.mean() - 1.0) > MEAN_VARIANCE_TOL:
        raise ValueError(
            "subband variances do not average to the process variance; "
            "input transform is not orthonormal"
        )
    gain_db = float(-10.0 / m * np.sum(np.log10(variances)))
    return CodingGainReport(kind=dense.kind, size=m, rho=rho, subband_variances=variances, gain_db=gain_db)


def dc_leakage_energy(t) -> float:
    """Energy of the constant input leaked outside subband 0 (equals M - a0^2)."""
    dense = t.as_matrix()
    a = dense.entries @ np.ones(dense.size)
    return float(np.sum(a[1:] ** 2))


@dataclass(frozen=True)
class FrequencyResponse:
    """Magnitude response of one transform row on a uniform grid over [0, pi]."""

    row: int
    omegas: np.ndarray
    magnitudes: np.ndarray


def frequency_response(t, row: int, n_points: int = 512) -> FrequencyResponse:
    """Sample |sum_n t[row, n] exp(-i w n)| at n_points frequencies from 0 to pi."""
    dense = t.as_matrix()
    m = dense.size
    if not 0 <= row < m:
        raise ValueError(f"row {row} out of range for size {m}")
    if n_points < 2:
        raise ValueError("need at least two frequency samples")
    omegas, phases = _phase_grid(m, n_points)
    magnitudes = np.abs(phases @ dense.entries[row])
    return FrequencyResponse(row=row, omegas=omegas.copy(), magnitudes=magnitudes)


@lru_cache(maxsize=1)
def _phase_grid(m: int, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    # `rfst freq` asks for every row of one size in turn; the arrays are
    # shared between calls, so they are read-only and never handed out
    omegas = np.linspace(0.0, np.pi, n_points)
    phases = np.exp(-1j * omegas[:, None] * np.arange(m)[None, :])
    omegas.setflags(write=False)
    phases.setflags(write=False)
    return omegas, phases


def coding_gain_csv_row(report: CodingGainReport, label: str | None = None) -> str:
    """One CSV row `kind,M,rho,gain_db` with the gain at two decimals."""
    kind = label if label is not None else report.kind.lower()
    return f"{kind},{report.size},{report.rho:g},{report.gain_db:.2f}"


def frequency_response_csv(fr: FrequencyResponse) -> str:
    """CSV text `omega,mag` for one row's response, 17 significant digits."""
    lines = ["omega,mag"]
    for w, mag in zip(fr.omegas, fr.magnitudes):
        lines.append(f"{w:.17g},{mag:.17g}")
    return "\n".join(lines) + "\n"
