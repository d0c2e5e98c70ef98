"""Regularity-constrained fast sine transform and friends.

The package builds orthonormal block transforms whose first basis vector is
flat (they pass the DC component to a single subband), compares two
constructions of that property — a streamed cascade of plane reflections
appended to the sine transform, and an SVD-based redesign of the sine basis —
and measures coding gain, operation counts, and runtime on 2-D images.

The package namespace holds what a user calls or constructs.  Result
records, the op-counting instruments, the SVD oracle's stages and the
reflection primitives stay in their submodules.
"""

from .analysis import DEFAULT_RHO, coding_gain, dc_leakage_energy, frequency_response
from .imaging import (
    CoeffPlane,
    GrayImage,
    bench_postprocessing,
    forward_2d,
    inverse_2d,
    read_coeff_file,
    read_pgm,
    subband_energy,
    subband_mosaic,
    write_coeff_file,
    write_pgm,
)
from .rdst import rdst, signed_perm_equivalent
from .regularity import (
    FastRegularTransform,
    RegularityCascade,
    extra_op_count,
    rfst,
)
from .transforms import GivensReflection, OrthonormalTransform, dct2, dst2, hadamard

__version__ = "0.1.0"

__all__ = [
    "CoeffPlane",
    "DEFAULT_RHO",
    "FastRegularTransform",
    "GivensReflection",
    "GrayImage",
    "OrthonormalTransform",
    "RegularityCascade",
    "bench_postprocessing",
    "coding_gain",
    "dc_leakage_energy",
    "dct2",
    "dst2",
    "extra_op_count",
    "forward_2d",
    "frequency_response",
    "hadamard",
    "inverse_2d",
    "rdst",
    "read_coeff_file",
    "read_pgm",
    "rfst",
    "signed_perm_equivalent",
    "subband_energy",
    "subband_mosaic",
    "write_coeff_file",
    "write_pgm",
]
