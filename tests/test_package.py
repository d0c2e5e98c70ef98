"""The package namespace and source-wide rules."""

import ast
from pathlib import Path

import rfst

SRC = Path(rfst.__file__).resolve().parent


def test_public_names_are_pinned_and_resolve():
    assert sorted(rfst.__all__) == [
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
    for name in rfst.__all__:
        assert getattr(rfst, name) is not None


def test_source_has_no_assert_statements():
    # python -O strips asserts, so runtime checks must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
