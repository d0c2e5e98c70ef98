"""Command-line behaviors: formats, files, exit codes."""

import importlib
import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rfst import cli, imaging, regularity
from rfst.cli import main
from rfst.imaging import (
    BAND_ROWS,
    GrayImage,
    forward_2d,
    inverse_2d,
    read_coeff_file,
    read_pgm,
    subband_mosaic,
    write_coeff_file,
    write_pgm,
)
from rfst.rdst import EQUIV_DEFAULT_TOL
from rfst.regularity import FFT_MIN_SIZE, rfst
from rfst.transforms import dst2


def _random_image(rng, h, w):
    return GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


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


def test_successive_calls_share_one_parser(capsys, monkeypatch):
    # main() builds its parser once; the calls through it, usage errors between them
    # included, give what a fresh parser per call gives
    argvs = (("opcount", "--size", "8"),
             ("check", "--type", "nope", "--size", "4"),
             ("check", "--type", "dct", "--size", "4"),
             ("gen", "--type", "dst"),
             ("gen", "--type", "dst", "--size", "4"),
             ("equiv", "--size", "8", "--tol", "nan"),
             ("coding-gain", "--type", "rfst", "--size", "8"),
             ("opcount", "--size", "8", "--bogus"),
             ("opcount", "--size", "8"))
    shared = [run(capsys, *argv) for argv in argvs]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in argvs]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert shared[0] == shared[-1]


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


@pytest.mark.parametrize("points", ("1", "0"))
def test_freq_checks_its_arguments_before_making_out(tmp_path, capsys, points):
    out_dir = tmp_path / "responses"
    code, stdout, err = run(capsys, "freq", "--type", "rfst", "--size", "8",
                            "--points", points, "--out", str(out_dir))
    assert (code, stdout) == (1, "")
    assert err == "rfst: error: need at least two frequency samples\n"
    assert not out_dir.exists()


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


def test_image_inverse_rejects_rfc1_files(tmp_path, capsys):
    # RFC1, RFC2 before its transform id (the last header word was zero), is not read
    _, coeff = _forward_rfst_file(tmp_path, capsys)
    blob = coeff.read_bytes()
    old, back = tmp_path / "old.rfc", tmp_path / "back.pgm"
    old.write_bytes(b"RFC1" + blob[4:16] + bytes(4) + blob[20:])
    code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst",
                            "--block", "8", "--in", str(old), "--out", str(back))
    assert (code, stdout) == (1, "")
    assert err == "rfst: error: not a coefficient file (bad magic)\n"
    assert not back.exists()


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
    coeff.write_bytes(b"RFC2" + header + bytes(8 * 64))
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
    coeff.write_bytes(b"RFC2" + np.array([width, 8, 8, 0], dtype="<u4").tobytes() + payload)
    code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst",
                            "--block", "8", "--in", str(coeff), "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("rfst: error:")
    assert not out.exists()


def _rfc(width=16, height=8, block=8, kind_id=0, bad=None):
    # an RFC2 file of zeros, with bad, if given, as its last coefficient
    values = np.zeros((height, width), "<f8")
    if bad is not None:
        values[-1, -1] = bad
    return b"RFC2" + np.array([width, height, block, kind_id], dtype="<u4").tobytes() + values.tobytes()


_BAD_RFC_FILES = {
    "bad-magic": (b"JUNK" + _rfc()[4:], "bad magic"),
    "rfc1": (b"RFC1" + _rfc()[4:], "bad magic"),
    "short-header": (_rfc()[:12], "truncated coefficient header"),
    "unknown-id": (_rfc(kind_id=99), "unknown transform id 99"),
    "block-0": (_rfc(block=0), "power of two"),
    "block-3": (_rfc(block=3), "power of two"),
    "empty": (_rfc(width=0), "empty coefficient plane"),
    "not-divisible": (_rfc(width=12), "not divisible by block size 8"),
    "truncated": (_rfc()[:-8], "truncated coefficient payload"),
    "trailing": (_rfc() + bytes(8), "trailing bytes"),
    "nan": (_rfc(bad=np.nan), "NaN or infinite"),
    "inf": (_rfc(bad=np.inf), "NaN or infinite"),
    "-inf": (_rfc(bad=-np.inf), "NaN or infinite"),
    "block-3-nan": (_rfc(block=3, bad=np.nan), "power of two"),  # the plane is checked first
}


@pytest.mark.parametrize("blob,message", _BAD_RFC_FILES.values(), ids=_BAD_RFC_FILES.keys())
def test_library_and_image_inverse_reject_a_bad_coefficient_file_alike(tmp_path, capsys, blob,
                                                                      message):
    coeff, out = tmp_path / "c.rfc", tmp_path / "o.pgm"
    coeff.write_bytes(blob)
    with pytest.raises(ValueError, match=message) as library:
        read_coeff_file(coeff)
    code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst",
                            "--block", "8", "--in", str(coeff), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"rfst: error: {library.value}\n"
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


@pytest.mark.parametrize("transform,rows,cols,block", (
    # the dense core, ending in a partial band: rfst's folded matrix and two plain matrices
    pytest.param("rfst", 2 * BAND_ROWS + 8, 48, 8, id="8-bands"),
    pytest.param("dct", 2 * BAND_ROWS + 8, 48, 8, id="dct-8-bands"),
    pytest.param("ht", 2 * BAND_ROWS + 8, 48, 8, id="ht-8-bands"),
    # the FFT core, two block rows
    pytest.param("rfst", 2 * FFT_MIN_SIZE, FFT_MIN_SIZE, FFT_MIN_SIZE, id="fft"),
))
def test_streamed_image_commands_match_the_library(tmp_path, capsys, transform, rows, cols, block):
    img = GrayImage(np.random.default_rng(52).integers(0, 256, size=(rows, cols), dtype=np.uint8))
    src, coeff, back = tmp_path / "in.pgm", tmp_path / "c.rfc", tmp_path / "out.pgm"
    write_pgm(img, src)
    opts = ("--transform", transform, "--block", str(block))
    assert run(capsys, "image", "forward", *opts, "--in", str(src), "--out", str(coeff))[0] == 0
    t = cli.TRANSFORMS[transform](block)
    plane = forward_2d(img, t)

    def written(write, obj):  # the library's file for obj
        write(obj, tmp_path / "lib")
        return (tmp_path / "lib").read_bytes()

    assert coeff.read_bytes() == written(write_coeff_file, plane)
    assert run(capsys, "image", "inverse", *opts, "--in", str(coeff), "--out", str(back))[0] == 0
    # the whole-plane rounding that image inverse ran before it streamed bands
    real = inverse_2d(plane, t)
    pixels = np.clip(np.rint(real, out=real), 0, 255, out=real).astype(np.uint8)
    assert back.read_bytes() == written(write_pgm, GrayImage(pixels)) == src.read_bytes()
    assert run(capsys, "image", "mosaic", *opts, "--in", str(src), "--out", str(back))[0] == 0
    assert back.read_bytes() == written(write_pgm, subband_mosaic(plane))


def _on_cpus(monkeypatch, count):
    # the image commands then run one worker per CPU of these count
    monkeypatch.setattr(imaging.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _band_tops(rows, cpus):
    # the first row of every band of a dense-core plane of rows rows, at block 8, on cpus CPUs
    return list(range(0, rows, max(BAND_ROWS // cpus, 8) // 8 * 8))


def _record_pwrites(monkeypatch, fail_at=None, path=None):
    """(offset, bytes) of every positioned write that returned.

    The write at offset fail_at fails, once the file at path is checked
    to hold every write that returned before it.
    """
    written, pwrite = [], os.pwrite

    def recording(fd, data, offset):
        if offset == fail_at:
            done, blob = list(written), path.read_bytes()
            assert done and all(blob[at:at + len(chunk)] == chunk for at, chunk in done)
            raise OSError(28, "No space left on device")
        n = pwrite(fd, data, offset)
        written.append((offset, bytes(data[:n])))
        return n

    monkeypatch.setattr(imaging.os, "pwrite", recording)
    return written


def _assert_bands_written(written, header, row_bytes, tops, cpus):
    """The header and the bands at tops were written, each once, and nothing else.

    On one worker every band at tops is written before the failing one.
    On more, a worker whose run is done may take the failing band from
    the end of another's run, and once it fails no worker takes another
    band, so only some of them may be.
    """
    offsets = sorted(at for at, _ in written)
    bands = [header + row_bytes * top for top in tops]
    if cpus == 1:
        assert offsets == [0] + bands
    else:
        assert offsets[0] == 0 and len(set(offsets)) == len(offsets) and set(offsets[1:]) <= set(bands)


@pytest.mark.parametrize("bad", (np.nan, np.inf), ids=("nan", "inf"))
def test_image_inverse_rejects_a_bad_value_in_the_last_band(tmp_path, capsys, monkeypatch, bad):
    # three bands of BAND_ROWS rows on one worker, which writes every other band to the
    # PGM before the error; six of BAND_ROWS // 2 on two, where the other worker may take
    # the bad band from the end of a run before bands it then never takes
    values = np.zeros((3 * BAND_ROWS, 16))
    values[-1, 5] = bad
    coeff, out = tmp_path / "c.rfc", tmp_path / "o.pgm"
    write_coeff_file(imaging.CoeffPlane(values, block=8), coeff)
    header = len(b"P5\n16 192\n255\n")
    written, baseline = _record_pwrites(monkeypatch), threading.active_count()
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        written.clear()
        code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst",
                                "--block", "8", "--in", str(coeff), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "rfst: error: coefficient payload holds NaN or infinite values\n"
        _assert_bands_written(written, header, 16, _band_tops(3 * BAND_ROWS, cpus)[:-1], cpus)
        assert not out.exists()
        assert threading.active_count() == baseline


def test_image_inverse_rejects_a_payload_that_shrinks_while_read(tmp_path, capsys, monkeypatch):
    coeff, out = tmp_path / "c.rfc", tmp_path / "o.pgm"
    plane = imaging.CoeffPlane(np.zeros((3 * BAND_ROWS, 16)), block=8)
    preadv, lock = os.preadv, threading.Lock()

    def shrinking(fd, buffers, offset):  # the file loses its last 8 bytes as the first band is read
        with lock:
            if coeff.stat().st_size == size:
                os.truncate(coeff, size - 8)
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(imaging.os, "preadv", shrinking)
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        write_coeff_file(plane, coeff)
        size = coeff.stat().st_size
        code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst",
                                "--block", "8", "--in", str(coeff), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "rfst: error: truncated coefficient payload\n"
        assert coeff.stat().st_size == size - 8
        assert not out.exists()


@pytest.mark.parametrize("where", ("band-loop", "write"))
def test_failed_image_forward_leaves_no_file(tmp_path, capsys, monkeypatch, where):
    # on two CPUs the failing band is the last of the second worker's run
    src, out = tmp_path / "in.pgm", tmp_path / "c.rfc"
    write_pgm(_random_image(np.random.default_rng(54), 3 * BAND_ROWS, 16), src)
    baseline = threading.active_count()
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        if where == "band-loop":
            blockwise = imaging._blockwise_2d

            def failing(*args, **kwargs):
                # a worker may find no band left once the other has failed: it fails at once
                for band in blockwise(*args, **kwargs):
                    yield band
                    break
                raise OSError("band loop failed")

            monkeypatch.setattr(imaging, "_blockwise_2d", failing)
        else:
            # the last band's write fails; the file then holds every write that returned
            tops = _band_tops(3 * BAND_ROWS, cpus)
            written = _record_pwrites(monkeypatch, fail_at=20 + 8 * 16 * tops[-1], path=out)
        code, stdout, err = run(capsys, "image", "forward", "--transform", "rfst",
                                "--block", "8", "--in", str(src), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.count("rfst: error:") == 1 and err.count("\n") == 1
        assert not out.exists()
        assert threading.active_count() == baseline
        if where == "write":
            _assert_bands_written(written, 20, 8 * 16, tops[:-1], cpus)
        monkeypatch.undo()


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


def _from_pipe(capsys, data, *argv):
    # run rfst with data, which fits in a pipe's buffer, fed through a pipe as --in
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        return run(capsys, *argv, "--in", f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


@pytest.mark.parametrize("action", ("forward", "mosaic"))
def test_image_commands_read_a_pgm_from_a_pipe(tmp_path, capsys, action):
    img = _random_image(np.random.default_rng(47), 48, 40)
    src = tmp_path / "in.pgm"
    write_pgm(img, src)
    from_file, from_pipe = tmp_path / "file.out", tmp_path / "pipe.out"
    argv = ("image", action, "--transform", "rfst", "--block", "8")
    assert run(capsys, *argv, "--in", str(src), "--out", str(from_file)) == (0, "", "")
    assert _from_pipe(capsys, src.read_bytes(), *argv, "--out", str(from_pipe)) == (0, "", "")
    assert from_pipe.read_bytes() == from_file.read_bytes()


def test_huge_pgm_header_in_a_pipe_fails_before_allocating(tmp_path, capsys):
    # a header that claims a 65535 x 65535 raster (4 GiB), with 8 bytes of it in the pipe
    out = tmp_path / "c.rfc"
    argv = ("image", "forward", "--transform", "rfst", "--block", "8", "--out", str(out))
    tracemalloc.start()
    try:
        code, stdout, err = _from_pipe(capsys, b"P5\n65535 65535\n255\n" + bytes(8), *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, stdout, err) == (1, "", "rfst: error: truncated PGM raster\n")
    assert peak < 2**20, peak
    assert not out.exists()


@pytest.mark.parametrize("action", ("forward", "inverse", "mosaic"))
def test_image_commands_refuse_a_pipe_as_out(tmp_path, capsys, monkeypatch, action):
    # positioned writes cannot go to a pipe: refused before the transform runs
    src, coeff = _forward_rfst_file(tmp_path, capsys)

    def no_run(*args, **kwargs):
        pytest.fail("the transform ran before the output was checked")

    monkeypatch.setattr(imaging, "_blockwise_2d", no_run)
    read_end, write_end = os.pipe()
    try:
        code, stdout, err = run(capsys, "image", action, "--transform", "rfst", "--block", "8",
                                "--in", str(coeff if action == "inverse" else src),
                                "--out", f"/dev/fd/{write_end}")
        os.set_blocking(read_end, False)
        with pytest.raises(BlockingIOError):  # nothing was written to the pipe
            os.read(read_end, 1)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert (code, stdout) == (1, "")
    assert err == "rfst: error: cannot write to a pipe or another output that is not seekable\n"


@pytest.mark.parametrize("action", ("forward", "inverse", "mosaic"))
def test_image_commands_rewrite_an_existing_output_exactly(tmp_path, capsys, action):
    # the output is not truncated when it is opened, but cut or extended to its size
    src, coeff = _forward_rfst_file(tmp_path, capsys)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    argv = ("image", action, "--transform", "rfst", "--block", "8",
            "--in", str(coeff if action == "inverse" else src), "--out")
    assert run(capsys, *argv, str(fresh))[0] == 0
    want = fresh.read_bytes()
    for old in (b"\xff" * (2 * len(want)), b"\xff" * (len(want) // 2)):
        out.write_bytes(old)
        assert run(capsys, *argv, str(out))[0] == 0
        assert out.read_bytes() == want


@pytest.mark.parametrize("transform,block,rows,cols", (
    # 72 rows on the dense core: 2, 3, 5 and 9 bands at 1, 2, 3 and 5 workers
    pytest.param("rfst", 8, 72, 48, id="rfst-8"),
    pytest.param("dct", 8, 72, 48, id="dct-8"),
    # the FFT core: 7 bands of one block row
    pytest.param("rfst", FFT_MIN_SIZE, 7 * FFT_MIN_SIZE, FFT_MIN_SIZE, id="rfst-fft"),
))
def test_image_files_do_not_depend_on_workers(tmp_path, capsys, monkeypatch, transform, block,
                                              rows, cols):
    src = tmp_path / "in.pgm"
    write_pgm(_random_image(np.random.default_rng(55), rows, cols), src)
    runs = []  # one band loop per worker
    blockwise = imaging._blockwise_2d
    monkeypatch.setattr(imaging, "_blockwise_2d", lambda *a: runs.append(1) or blockwise(*a))

    def files(cpus):
        _on_cpus(monkeypatch, cpus)
        opts = ("--transform", transform, "--block", str(block))
        coeff, back, mosaic = (tmp_path / f"{name}-{cpus}" for name in ("c.rfc", "back.pgm", "m.pgm"))
        for action, infile, out in (("forward", src, coeff), ("inverse", tmp_path / "c.rfc-1", back),
                                    ("mosaic", src, mosaic)):
            runs.clear()
            assert run(capsys, "image", action, *opts, "--in", str(infile), "--out", str(out))[0] == 0
            assert len(runs) == cpus, action
        return [path.read_bytes() for path in (coeff, back, mosaic)]

    one = files(1)
    assert one[1] == src.read_bytes()
    for cpus in (2, 3, 5):
        assert files(cpus) == one, cpus


_RACE_CODE = """
import os, sys
from pathlib import Path
import numpy as np
from rfst import cli, imaging
sys.setswitchinterval(1e-6)
work = Path(sys.argv[1])
img = imaging.GrayImage(np.random.default_rng(56).integers(0, 256, (512, 256), np.uint8))
imaging.write_pgm(img, work / "in.pgm")

def files(cpus):
    os.sched_getaffinity = lambda pid: set(range(cpus))
    names = (f"c{cpus}.rfc", f"b{cpus}.pgm", f"m{cpus}.pgm")
    for action, infile, out in zip(("forward", "inverse", "mosaic"), ("in.pgm", "c1.rfc", "in.pgm"), names):
        assert cli.main(["image", action, "--transform", "rfst", "--block", "8",
                         "--in", str(work / infile), "--out", str(work / out)]) == 0
    return [(work / name).read_bytes() for name in names]

one = files(1)
for _ in range(3):
    print(*(a == b for a, b in zip(files(4), one)))
"""


def test_image_workers_race_nothing_under_a_short_switch_interval(tmp_path):
    # four workers share the output file (and the mosaic plane) while the interpreter
    # switches threads every microsecond, so a band written at a wrong offset would show
    src = str(Path(imaging.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r})\n" + _RACE_CODE
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == ["True"] * 9


def test_image_inverse_refuses_to_write_over_its_input(tmp_path, capsys):
    _, coeff = _forward_rfst_file(tmp_path, capsys)
    blob = coeff.read_bytes()
    (tmp_path / "link.rfc").symlink_to(coeff)
    for out in (coeff, tmp_path / "link.rfc"):
        code, stdout, err = run(capsys, "image", "inverse", "--transform", "rfst", "--block", "8",
                                "--in", str(coeff), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == ("rfst: error: --out names the --in file, which image inverse reads as it "
                       "writes\n")
        assert coeff.read_bytes() == blob


@pytest.mark.parametrize("action,planes", (("forward", 0.45), ("inverse", 0.45), ("mosaic", 1.6)))
def test_image_commands_hold_no_extra_plane(tmp_path, capsys, monkeypatch, action, planes):
    # forward: the uint8 image (1/8 plane) and two band buffers (2 x 64 of 512 rows, 1/4 plane);
    # inverse: the band the file is read into, the two band buffers and one uint8 band (3/8 + 1/64);
    # mosaic: the uint8 image, the band buffers, the mosaic plane and its uint8 copy.
    # Two workers share the same bands between them, 32 rows each
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
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            code = main(list(argv[action]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= planes * 8 * img.pixels.size, (cpus, peak / (8 * img.pixels.size))


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
        "shipped_median_seconds",
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


def test_bench_bounds_its_total_work(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        pytest.fail("the bench built its image or transform above the work limit")

    # every flag is within the size cap, but together they ask for hours
    with monkeypatch.context() as patched:
        patched.setattr(regularity, "rfst", no_build)
        patched.setattr(imaging, "rfst", no_build)
        patched.setattr(imaging, "GrayImage", no_build)
        code, out, err = run(capsys, "bench", "--size", "1024", "--image-size", "4096",
                             "--repeats", "4096")
    assert (code, out) == (1, "")
    assert err == (f"rfst: error: 4096 repeats x 4096^2 pixels x 3 routes = {3 * 4096**3} pixel "
                   f"passes exceeds the bench's limit of {imaging.BENCH_MAX_WORK}\n")
    # criterion 9's call and test_bench_csv_shape's run are under it
    assert 3 * 25 * 512**2 <= imaging.BENCH_MAX_WORK
    # the limit itself is allowed, and one pixel pass more is not
    monkeypatch.setattr(imaging, "BENCH_MAX_WORK", 3 * 3 * 64**2)
    assert run(capsys, "bench", "--size", "8", "--image-size", "64", "--repeats", "3")[0] == 0
    code, out, err = run(capsys, "bench", "--size", "8", "--image-size", "64", "--repeats", "4")
    assert (code, out) == (1, "")
    assert err.endswith(f"exceeds the bench's limit of {3 * 3 * 64**2}\n")


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
