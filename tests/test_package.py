"""The package namespace and source-wide rules."""

import ast
from pathlib import Path

import rfst

SRC = Path(rfst.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "rfstbench"


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


def test_every_public_name_has_a_caller_outside_the_tests():
    # a function or class of a submodule, public or private, is referenced by the package,
    # the CLI or the benchmark, not by the tests alone; its own def or class line does not
    # count
    programs = sorted(SRC.glob("*.py")) + sorted(
        path for path in BENCH.glob("*.py") if not path.name.startswith("test_"))
    defined, referenced = {}, set()
    for path in programs:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == SRC:
            defined.update(
                (node.name, path.name) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert BENCH.is_dir() and defined
    unused = sorted(f"{file}:{name}" for name, file in defined.items() if name not in referenced)
    assert unused == []
