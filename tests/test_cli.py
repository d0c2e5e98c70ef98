"""Command-line behaviors: formats, files, exit codes."""

import importlib
import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from rfst import cli, imaging, regularity
from rfst.cli import main
from rfst.imaging import (
    BAND_ROWS,
    GrayImage,
    emit_coeff_file,
    emit_pgm,
    forward_2d,
    inverse_2d,
    read_coeff_file,
    read_pgm,
    subband_mosaic,
    write_pgm,
)
from rfst.rdst import EQUIV_DEFAULT_TOL
from rfst.regularity import FFT_MIN_SIZE, rfst
from rfst.transforms import dst2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_matrix_to_stdout(capsys):
    code, out, err = run(capsys, "gen", "--type", "dst", "--size", "4")
    assert code == 0 and err == ""
    assert np.array_equal(np.loadtxt(io.StringIO(out), delimiter=","), dst2(4).entries)


def test_gen_matrix_to_file(tmp_path, capsys):
    target = tmp_path / "m.txt"
    code, out, _ = run(capsys, "gen", "--type", "rfst", "--size", "8", "--out", str(target))
    assert code == 0 and out == ""
    parsed = np.loadtxt(target, delimiter=",")
    assert np.abs(parsed - rfst(8).as_matrix().entries).max() == 0.0


def test_gen_cascade_csv(capsys):
    code, out, _ = run(capsys, "gen", "--type", "rfst", "--size", "8", "--what", "cascade")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,i,j,theta"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["1", "0", "2"],
        ["2", "0", "4"],
        ["3", "0", "6"],
    ]


def test_gen_cascade_requires_rfst(capsys):
    code, out, err = run(capsys, "gen", "--type", "dct", "--size", "8", "--what", "cascade")
    assert code == 1
    assert "cascade" in err


def test_gen_deterministic_output(capsys):
    _, first, _ = run(capsys, "gen", "--type", "rdst", "--size", "8")
    _, second, _ = run(capsys, "gen", "--type", "rdst", "--size", "8")
    assert first == second


def test_check_reports_regularity_facts(capsys):
    code, out, _ = run(capsys, "check", "--type", "rfst", "--size", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("orthonormality_residual,")
    assert float(lines[0].split(",")[1]) <= 1e-12
    assert lines[1].startswith("dc_response,")
    response = [float(tok) for tok in lines[1].split(",")[1:]]
    assert abs(response[0] - math.sqrt(8)) <= 1e-12
    assert max(abs(x) for x in response[1:]) <= 1e-12
    assert lines[2].startswith("dc_leakage_energy,")
    assert float(lines[2].split(",")[1]) <= 1e-24


def test_coding_gain_row(capsys):
    code, out, _ = run(capsys, "coding-gain", "--type", "dst", "--size", "8")
    assert code == 0
    assert out == "kind,M,rho,gain_db\ndst,8,0.95,5.09\n"


def test_table1_values(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "kind,M,rho,gain_db"
    table = {}
    for line in lines[1:]:
        kind, size, rho, gain = line.split(",")
        assert rho == "0.95"
        table[(kind, int(size))] = gain
    assert len(table) == 15
    expected = {
        "dst": ["5.05", "4.73", "5.09", "6.02", "7.24"],
        "rfst": ["5.05", "7.17", "7.72", "7.85", "8.09"],
        "ht": ["5.05", "7.17", "7.95", "8.19", "8.27"],
    }
    for kind, gains in expected.items():
        assert [table[(kind, m)] for m in (2, 4, 8, 16, 32)] == gains


def test_opcount_rows(capsys):
    code, out, _ = run(capsys, "opcount", "--size", "16")
    assert code == 0
    assert out == "style,M,mul,add\ncascade,16,28,14\ndense_half,16,64,56\n"


def test_equiv_success_witness(capsys):
    code, out, _ = run(capsys, "equiv", "--size", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("OK max_residual=")
    assert lines[1].startswith("perm,")
    assert lines[2].startswith("signs,")
    perm = [int(tok) for tok in lines[1].split(",")[1:]]
    assert sorted(perm) == list(range(8))
    assert all(tok in ("+1", "-1") for tok in lines[2].split(",")[1:])


def test_equiv_failure_exit_code(capsys):
    # an absurdly tight tolerance turns the equivalence into a failed check
    code, out, err = run(capsys, "equiv", "--size", "8", "--tol", "1e-30")
    assert code == 2
    assert out.strip() == "FAIL"
    assert "signed row permutation" in err


def test_equiv_rejects_a_nan_tolerance(capsys):
    # NaN compares false with every residual, so it would accept any matching
    assert cli._build_parser().parse_args(["equiv", "--size", "8"]).tol == EQUIV_DEFAULT_TOL
    code, out, err = run(capsys, "equiv", "--size", "8", "--tol", "nan")
    assert code == 1 and out == ""
    assert err.startswith("rfst: error: equivalence tolerance")


@pytest.mark.parametrize("tol", ("nan", "-1"))
def test_equiv_rejects_a_bad_tolerance_before_building(capsys, monkeypatch, tol):
    def no_build(m):
        pytest.fail("a design was built before the tolerance was checked")

    monkeypatch.setattr(cli, "rdst", no_build)
    monkeypatch.setattr(regularity, "rfst", no_build)
    code, out, err = run(capsys, "equiv", "--size", "512", "--tol", tol)
    assert code == 1 and out == ""
    assert err.startswith("rfst: error: equivalence tolerance")


@pytest.mark.parametrize("argv", (("gen", "--type", "rdst"), ("equiv",)))
def test_rdst_above_the_size_cap_exits_one_at_once(capsys, monkeypatch, argv):
    def no_svd(rows):
        pytest.fail("the null-space construction started above the size cap")

    # the package-level name rfst.rdst is the function, so fetch the module
    monkeypatch.setattr(importlib.import_module("rfst.rdst"), "null_vector", no_svd)
    code, out, err = run(capsys, *argv, "--size", "1024")
    assert code == 1
    assert out == ""
    assert err.startswith("rfst: error: rdst size 1024 exceeds 512")


def test_freq_writes_row_files(tmp_path, capsys):
    out_dir = tmp_path / "responses"
    code, _, _ = run(
        capsys, "freq", "--type", "rfst", "--size", "16",
        "--points", "33", "--out", str(out_dir),
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names[0] == "row_00.csv"
    assert names[-1] == "row_15.csv"
    assert len(names) == 16
    lines = (out_dir / "row_00.csv").read_text().strip().split("\n")
    assert lines[0] == "omega,mag"
    assert len(lines) == 34
    assert float(lines[1].split(",")[1]) == pytest.approx(4.0, abs=1e-12)


def test_image_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(41)
    src = tmp_path / "in.pgm"
    coeff = tmp_path / "c.rfc"
    back = tmp_path / "out.pgm"
    write_pgm(GrayImage(rng.integers(0, 256, size=(32, 40), dtype=np.uint8)), src)

    code, _, _ = run(capsys, "image", "forward", "--transform", "rfst",
                     "--block", "8", "--in", str(src), "--out", str(coeff))
    assert code == 0
    plane = read_coeff_file(coeff)
    assert plane.block == 8 and plane.width == 40 and plane.height == 32

    code, _, _ = run(capsys, "image", "inverse", "--transform", "rfst",
                     "--block", "8", "--in", str(coeff), "--out", str(back))
    assert code == 0
    assert np.array_equal(read_pgm(back).pixels, read_pgm(src).pixels)


def test_image_mosaic(tmp_path, capsys):
    rng = np.random.default_rng(42)
    src = tmp_path / "in.pgm"
    out = tmp_path / "mosaic.pgm"
    write_pgm(GrayImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8)), src)
    code, _, _ = run(capsys, "image", "mosaic", "--transform", "dst",
                     "--block", "4", "--in", str(src), "--out", str(out))
    assert code == 0
    assert read_pgm(out).pixels.shape == (16, 16)


def test_image_block_mismatch_is_validation_error(tmp_path, capsys):
    rng = np.random.default_rng(43)
    src = tmp_path / "in.pgm"
    coeff = tmp_path / "c.rfc"
    write_pgm(GrayImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8)), src)
    run(capsys, "image", "forward", "--transform", "rfst",
        "--block", "8", "--in", str(src), "--out", str(coeff))
    code, _, err = run(capsys, "image", "inverse", "--transform", "rfst",
                       "--block", "4", "--in", str(coeff), "--out", str(src))
    assert code == 1
    assert "does not match" in err


def _forward_rfst_file(tmp_path, capsys):
    src, coeff = tmp_path / "in.pgm", tmp_path / "c.rfc"
    write_pgm(GrayImage(np.random.default_rng(50).integers(0, 256, size=(16, 24), dtype=np.uint8)), src)
    code, _, _ = run(capsys, "image", "forward", "--transform", "rfst",
                     "--block", "8", "--in", str(src), "--out", str(coeff))
    assert code == 0
    return src, coeff


def test_image_inverse_rejects_another_transforms_file(tmp_path, capsys, monkeypatch):
    _, coeff = _forward_rfst_file(tmp_path, capsys)
    assert coeff.read_bytes()[:4] == b"RFC2" and read_coeff_file(coeff).kind == "RFST"

    def no_build(*args, **kwargs):
        pytest.fail("a transform was built before the input was checked")

    monkeypatch.setitem(cli.TRANSFORMS, "dct", no_build)
    out = tmp_path / "o.pgm"
    code, stdout, err = run(capsys, "image", "inverse", "--transform", "dct",
                            "--block", "8", "--in", str(coeff), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == "rfst: error: --transform dct does not match coefficient file transform RFST\n"
    assert not out.exists()


def test_image_inverse_reads_rfc1_files(tmp_path, capsys):
    # RFC1 is RFC2 with a zero last header word and no transform id
    src, coeff = _forward_rfst_file(tmp_path, capsys)
    blob = coeff.read_bytes()
    old, back = tmp_path / "old.rfc", tmp_path / "back.pgm"
    old.write_bytes(b"RFC1" + blob[4:16] + bytes(4) + blob[20:])
    code, _, err = run(capsys, "image", "inverse", "--transform", "rfst",
                       "--block", "8", "--in", str(old), "--out", str(back))
    assert (code, err) == (0, "")
    assert back.read_bytes() == src.read_bytes()


def test_image_inverse_rejects_unknown_transform_id(tmp_path, capsys):
    _, coeff = _forward_rfst_file(tmp_path, capsys)
    blob = bytearray(coeff.read_bytes())
    blob[16:20] = np.array([99], dtype="<u4").tobytes()
    coeff.write_bytes(bytes(blob))
    out = tmp_path / "o.pgm"
    code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst",
                            "--block", "8", "--in", str(coeff), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == "rfst: error: unknown transform id 99 in coefficient header\n"
    assert not out.exists()


def test_image_inverse_rejects_bad_block_header(tmp_path, capsys):
    coeff = tmp_path / "c.rfc"
    header = np.array([8, 8, 0, 0], dtype="<u4").tobytes()  # width, height, block=0
    coeff.write_bytes(b"RFC1" + header + bytes(8 * 64))
    code, out, err = run(capsys, "image", "inverse", "--transform", "rfst",
                         "--block", "8", "--in", str(coeff), "--out", str(tmp_path / "o.pgm"))
    assert code == 1 and out == ""
    assert err.startswith("rfst: error:") and "power of two" in err


def test_image_forward_rejects_trailing_bytes(tmp_path, capsys):
    src, out = tmp_path / "in.pgm", tmp_path / "c.rfc"
    src.write_bytes(b"P5\n8 8\n255\n" + bytes(64) + b"\n")
    code, stdout, err = run(capsys, "image", "forward", "--transform", "rfst",
                            "--block", "8", "--in", str(src), "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("rfst: error:") and "trailing" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "width,payload", [(0, b""), (8, np.full(64, np.nan).tobytes())], ids=["empty", "nan"]
)
def test_image_inverse_rejects_empty_or_nan_planes(tmp_path, capsys, width, payload):
    coeff, out = tmp_path / "c.rfc", tmp_path / "o.pgm"
    coeff.write_bytes(b"RFC1" + np.array([width, 8, 8, 0], dtype="<u4").tobytes() + payload)
    code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst",
                            "--block", "8", "--in", str(coeff), "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("rfst: error:")
    assert not out.exists()


def test_image_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "image", "forward", "--transform", "rfst",
                       "--block", "8", "--in", str(tmp_path / "nope.pgm"),
                       "--out", str(tmp_path / "c.rfc"))
    assert code == 1
    assert err != ""


@pytest.mark.parametrize("action,infile,block,message", (
    ("forward", "nope.pgm", "4096", "[Errno 2] No such file or directory: '{}'"),
    ("inverse", "c.rfc", "4096", "--block 4096 does not match coefficient file block 8"),
    ("forward", "in.pgm", "4096", "image dimensions 16x16 not divisible by block size 4096; "
                                  "padding is deliberately not supported"),
    ("mosaic", "in.pgm", "3", "transform size must be a power of two >= 2, got 3"),
    ("forward", "in.pgm", "0", "transform size must be a power of two >= 2, got 0"),
), ids=("missing", "inverse-mismatch", "forward-indivisible", "mosaic-block-3", "block-0"))
def test_image_checks_its_input_before_building(tmp_path, capsys, monkeypatch, action, infile,
                                                block, message):
    write_pgm(GrayImage(np.zeros((16, 16), dtype=np.uint8)), tmp_path / "in.pgm")
    imaging.write_coeff_file(imaging.CoeffPlane(np.zeros((16, 16)), block=8), tmp_path / "c.rfc")

    def no_build(*args, **kwargs):
        pytest.fail("a transform was built before the input was checked")

    for kind in cli.TRANSFORMS:
        monkeypatch.setitem(cli.TRANSFORMS, kind, no_build)
    path, out = tmp_path / infile, tmp_path / "out"
    code, stdout, err = run(capsys, "image", action, "--transform", "rfst",
                            "--block", block, "--in", str(path), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"rfst: error: {message.format(path)}\n"
    assert not out.exists()


@pytest.mark.parametrize("rows,cols,block", (
    (2 * BAND_ROWS + 8, 48, 8),  # the dense core, ending in a partial band
    (2 * FFT_MIN_SIZE, FFT_MIN_SIZE, FFT_MIN_SIZE),  # the FFT core, two block rows
), ids=("8-bands", "fft"))
def test_streamed_image_commands_match_the_library(tmp_path, capsys, rows, cols, block):
    img = GrayImage(np.random.default_rng(52).integers(0, 256, size=(rows, cols), dtype=np.uint8))
    src, coeff, back = tmp_path / "in.pgm", tmp_path / "c.rfc", tmp_path / "out.pgm"
    write_pgm(img, src)
    opts = ("--transform", "rfst", "--block", str(block))
    assert run(capsys, "image", "forward", *opts, "--in", str(src), "--out", str(coeff))[0] == 0
    t = rfst(block)
    plane = forward_2d(img, t)
    assert coeff.read_bytes() == emit_coeff_file(plane)
    assert run(capsys, "image", "inverse", *opts, "--in", str(coeff), "--out", str(back))[0] == 0
    # the whole-plane rounding that image inverse ran before it streamed bands
    real = inverse_2d(plane, t)
    pixels = np.clip(np.rint(real, out=real), 0, 255, out=real).astype(np.uint8)
    assert back.read_bytes() == emit_pgm(GrayImage(pixels)) == src.read_bytes()
    assert run(capsys, "image", "mosaic", *opts, "--in", str(src), "--out", str(back))[0] == 0
    assert back.read_bytes() == emit_pgm(subband_mosaic(plane))


@pytest.mark.parametrize("where", ("band-loop", "write"))
def test_failed_image_forward_leaves_no_file(tmp_path, capsys, monkeypatch, where):
    src, out = tmp_path / "in.pgm", tmp_path / "c.rfc"
    write_pgm(GrayImage(np.zeros((3 * BAND_ROWS, 16), dtype=np.uint8)), src)
    if where == "band-loop":
        blockwise = imaging._blockwise_2d

        def failing(*args, **kwargs):
            bands = blockwise(*args, **kwargs)
            yield next(bands)
            raise OSError("band loop failed")

        monkeypatch.setattr(imaging, "_blockwise_2d", failing)
    else:
        write = imaging._write

        def failing(f, header, bands, dtype):
            write(f, header, [next(iter(bands))], dtype)
            f.flush()
            assert out.stat().st_size > 20  # the header and the first band are on disk
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(imaging, "_write", failing)
    code, stdout, err = run(capsys, "image", "forward", "--transform", "rfst",
                            "--block", "8", "--in", str(src), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.count("rfst: error:") == 1 and err.count("\n") == 1
    assert not out.exists()


def test_image_inverse_refuses_a_pipe(tmp_path, capsys):
    _, coeff = _forward_rfst_file(tmp_path, capsys)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, coeff.read_bytes())  # 3 KiB fits in the pipe's buffer
        os.close(write_end)
        out = tmp_path / "o.pgm"
        code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst", "--block", "8",
                                "--in", f"/dev/fd/{read_end}", "--out", str(out))
    finally:
        os.close(read_end)
    assert (code, stdout) == (1, "")
    assert err == ("rfst: error: cannot read the coefficient payload from a pipe or another "
                   "input that is not seekable\n")
    assert not out.exists()


@pytest.mark.parametrize("action,planes", (("forward", 0.45), ("inverse", 1.3), ("mosaic", 1.6)))
def test_image_commands_hold_no_extra_plane(tmp_path, capsys, action, planes):
    # forward: the uint8 image (1/8 plane) and two band buffers (2 x 64 of 512 rows, 1/4 plane);
    # inverse: the coefficient plane, the same band buffers and one uint8 band;
    # mosaic: the uint8 image, the band buffers, the mosaic plane and its uint8 copy
    img = GrayImage(np.random.default_rng(53).integers(0, 256, size=(512, 768), dtype=np.uint8))
    src, coeff, back = tmp_path / "in.pgm", tmp_path / "c.rfc", tmp_path / "out.pgm"
    write_pgm(img, src)
    argv = {"forward": ("image", "forward", "--transform", "rfst", "--block", "8",
                        "--in", str(src), "--out", str(coeff)),
            "inverse": ("image", "inverse", "--transform", "rfst", "--block", "8",
                        "--in", str(coeff), "--out", str(back)),
            "mosaic": ("image", "mosaic", "--transform", "rfst", "--block", "8",
                       "--in", str(src), "--out", str(back))}
    for warm in argv.values():  # imports and first-call caches stay outside the trace
        assert run(capsys, *warm)[0] == 0
    tracemalloc.start()
    try:
        code = main(list(argv[action]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= planes * 8 * img.pixels.size, peak / (8 * img.pixels.size)


def test_bench_csv_shape(capsys):
    code, out, _ = run(capsys, "bench", "--size", "8", "--image-size", "64", "--repeats", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "metric,value"
    metrics = [line.split(",")[0] for line in lines[1:]]
    assert metrics == [
        "cascade_median_seconds",
        "dense_half_median_seconds",
        "saved_seconds",
        "max_abs_diff",
    ]
    assert float(lines[4].split(",")[1]) <= 1e-10


@pytest.mark.parametrize("argv", (
    ("gen", "--type", "dst", "--size"),
    ("gen", "--type", "rfst", "--what", "cascade", "--size"),
    ("check", "--type", "rfst", "--size"),
    ("coding-gain", "--type", "ht", "--size"),
    ("freq", "--type", "dct", "--out", "unused", "--size"),
    ("image", "forward", "--transform", "rfst", "--in", "a.pgm", "--out", "a.rfc", "--block"),
    ("bench", "--size"),
    ("bench", "--size", "8", "--image-size"),
    ("freq", "--type", "dct", "--size", "8", "--out", "unused", "--points"),
    ("bench", "--size", "8", "--repeats"),
), ids=("gen", "gen-cascade", "check", "coding-gain", "freq", "image", "bench", "image-size",
        "points", "repeats"))
def test_sizes_above_the_cli_cap_exit_one_at_once(capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        pytest.fail("a transform was built above the CLI size cap")

    for kind in cli.TRANSFORMS:
        monkeypatch.setitem(cli.TRANSFORMS, kind, no_build)
    monkeypatch.setattr(regularity, "rfst", no_build)
    monkeypatch.setattr(imaging, "bench_postprocessing", no_build)
    code, out, err = run(capsys, *argv, "8192")
    assert code == 1 and out == ""
    assert err.endswith(f"error: argument {argv[-1]}: 8192 exceeds the largest size 4096\n")
    dest = argv[-1][2:].replace("-", "_")
    assert getattr(cli._build_parser().parse_args([*argv, "4096"]), dest) == 4096


@pytest.mark.parametrize("flags", (("--repeats", "0"), ("--image-size", "0"), ("--size", "0")),
                         ids=("repeats", "image-size", "size"))
def test_bench_rejects_empty_or_zero_size_runs(capsys, flags):
    code, out, err = run(capsys, "bench", "--size", "8", "--image-size", "64", *flags)
    assert code == 1 and out == ""
    assert err.startswith("rfst: error:")


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "gen", "--type", "dst")[0] == 1  # missing --size
    assert run(capsys, "gen", "--type", "martian", "--size", "4")[0] == 1
    code, _, err = run(capsys, "gen", "--type", "dst", "--size", "3")
    assert code == 1
    assert "power of two" in err
