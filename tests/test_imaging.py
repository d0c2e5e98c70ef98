"""Image I/O, separable block transforms and mosaics."""

import concurrent.futures
import contextlib
import functools
import gc
import io
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from rfst import imaging, regularity, timing
from rfst.imaging import (
    BAND_ROWS,
    CoeffPlane,
    GrayImage,
    forward_2d,
    inverse_2d,
    parse_pgm,
    read_coeff_file,
    read_pgm,
    subband_energy,
    subband_mosaic,
    write_coeff_file,
    write_pgm,
)
from rfst.rdst import DenseHalf, half_postprocessing_matrix
from rfst.regularity import FFT_MIN_SIZE, FastRegularTransform, RegularityCascade, rfst
from rfst.transforms import KINDS, GivensReflection, dct2, dst2, hadamard


def _random_image(rng, h, w):
    return GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


def _assert_owned_array(a):
    # a parsed payload is its own aligned, writable, C-ordered copy, not a view of the file
    flags = a.flags
    assert flags.aligned and flags.writeable and flags.c_contiguous and flags.owndata


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.zeros((4, 4), dtype=np.float64))
    with pytest.raises(ValueError):
        GrayImage(np.zeros(16, dtype=np.uint8))


def test_coeff_plane_validation():
    with pytest.raises(ValueError):
        CoeffPlane(np.zeros((6, 8)), block=4)
    with pytest.raises(ValueError):
        CoeffPlane(np.zeros(8), block=4)
    for block in (0, 1, 3, 6):
        with pytest.raises(ValueError, match="power of two"):
            CoeffPlane(np.zeros((12, 12)), block=block)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    img = _random_image(rng, 5, 7)
    write_pgm(img, tmp_path / "t.pgm")
    again = read_pgm(tmp_path / "t.pgm")
    assert np.array_equal(img.pixels, again.pixels)
    _assert_owned_array(again.pixels)


def _pgm_entries(tmp_path, data):
    # the one PGM reader, through its two entries: bytes, and a file via read_pgm
    path = tmp_path / "entry.pgm"
    path.write_bytes(data)
    return {"bytes": lambda: parse_pgm(io.BytesIO(data)), "file": lambda: read_pgm(path)}


def test_pgm_accepts_comments_and_whitespace(tmp_path):
    raster = bytes(range(6))
    # the 64 KiB comment is longer than any first read of the header
    long_comment = b"#" + b"x" * 2**16 + b"\n"
    for data in (b"P5 # magic\n# a comment line\n 3 \n# another\n2\n255\n" + raster,
                 b"P5\n" + long_comment + b"3 2 " + long_comment + b"255\n" + raster):
        for entry, read in _pgm_entries(tmp_path, data).items():
            img = read()
            assert img.pixels.shape == (2, 3), entry
            assert img.pixels.tobytes() == raster, entry
            _assert_owned_array(img.pixels)


def test_pgm_rejects_bad_inputs(tmp_path):
    # both entries run one reader, so a bad input gives one message
    for data, message in (
        (b"P2\n2 2\n255\n0000", r"not a binary PGM \(missing P5 magic\)"),  # ASCII unsupported
        (b"P5\n2 2\n65535\n" + bytes(8), r"unsupported PGM maxval 65535 \(8-bit only\)"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated PGM raster"),
        (b"P5\n2 2\n255", "truncated PGM raster"),  # no byte after the maxval
        (b"P5\n2", "truncated PGM header"),
        (b"", "truncated PGM header"),
        (b"P5\n#" + b"x" * 2**16, "truncated PGM header"),  # a comment to the end of the input
        (b"P5\n0 2\n255\n", "bad PGM dimensions"),
        (b"P5\n2 2\n255\n" + bytes(5), "trailing bytes after PGM raster"),
        (b"P5\n2 2\n15\n" + bytes([0, 15, 16, 3]), "PGM pixel value 16 exceeds maxval 15"),
        # a header number is ASCII decimal digits only, and a bad one names its field
        (b"P5\n1_0 1\n255\n" + bytes(10), "PGM width '1_0' is not a decimal number"),
        (b"P5\n1e3 1\n255\n" + bytes(10), "PGM width '1e3' is not a decimal number"),
        (b"P5\n0x10 1\n255\n" + bytes(10), "PGM width '0x10' is not a decimal number"),
        (b"P5\n25.5 1\n255\n" + bytes(10), r"PGM width '25\.5' is not a decimal number"),
        (b"P5\n2 +4\n255\n" + bytes(8), r"PGM height '\+4' is not a decimal number"),
    ):
        for read in _pgm_entries(tmp_path, data).values():
            with pytest.raises(ValueError, match=f"^{message}$"):
                read()
    for read in _pgm_entries(tmp_path, b"P5\n2 2\n15\n" + bytes([0, 15, 15, 3])).values():
        assert read().pixels.max() == 15


def test_huge_pgm_header_fails_before_allocating(tmp_path):
    # a header that claims a 65535 x 65535 raster (4 GiB), with 8 bytes of it
    for read in _pgm_entries(tmp_path, b"P5\n65535 65535\n255\n" + bytes(8)).values():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^truncated PGM raster$"):
                read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


def test_a_pipe_is_read_no_further_than_its_header_claims():
    # a header that claims 4 x 4 pixels, then 8 MiB: more than a pipe's buffer holds, so a
    # thread writes it, and stops once the reader has closed its end
    data = b"P5\n4 4\n255\n" + bytes(2**23)
    read_end, write_end = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(write_end, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    tracemalloc.start()
    try:
        writer.start()
        with open(read_end, "rb") as f, pytest.raises(
                ValueError, match="^trailing bytes after PGM raster$"):
            parse_pgm(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        writer.join(10)
    assert not writer.is_alive()
    assert peak < 2**20, peak


def test_pgm_file_round_trip(tmp_path):
    rng = np.random.default_rng(32)
    img = _random_image(rng, 8, 16)
    path = tmp_path / "t.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path).pixels, img.pixels)


def test_coeff_file_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    plane = CoeffPlane(rng.standard_normal((8, 12)), block=4)
    path = tmp_path / "t.rfc"
    write_coeff_file(plane, path)
    assert path.read_bytes()[:4] == b"RFC2"
    again = read_coeff_file(path)
    assert again.block == 4 and again.kind is None
    assert np.array_equal(again.values, plane.values)
    _assert_owned_array(again.values)
    # RFC2's transform ids are part of the file format
    ids = {"DCT2": 1, "DST2": 2, "HT": 3, "RFST": 4, "RDST": 5, "CUSTOM": 6}
    assert set(ids) == set(KINDS)
    for kind, kind_id in ids.items():
        write_coeff_file(CoeffPlane(plane.values, block=4, kind=kind), path)
        assert np.frombuffer(path.read_bytes(), "<u4", 1, 16)[0] == kind_id
        tagged = read_coeff_file(path)
        assert tagged.kind == kind and np.array_equal(tagged.values, plane.values)


def test_threads_slicing_one_payload_each_get_their_own_rows(tmp_path):
    # the workers of `rfst image inverse` share one _Payload, each thread reading into a
    # buffer of its own: every thread reads its band before any checks it, while the
    # interpreter switches threads every microsecond, and no band was overwritten
    rng = np.random.default_rng(77)
    values = rng.standard_normal((64, 24))
    path = tmp_path / "t.rfc"
    write_coeff_file(CoeffPlane(values, block=8), path)
    threads, rounds = 4, 50
    barrier = threading.Barrier(threads, timeout=30)

    def call(payload, i):
        barrier.wait()
        for k in range(rounds):
            top, r = 8 * ((i + k) % 7), 8 * (1 + (i + k) % 2)  # 8- and 16-row bands
            band = payload[top:top + r]
            barrier.wait()
            assert np.array_equal(band, values[top:top + r]), (i, k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with open(path, "rb") as f, concurrent.futures.ThreadPoolExecutor(threads) as pool:
            payload = imaging._Payload(f)
            for future in [pool.submit(call, payload, i) for i in range(threads)]:
                future.result(timeout=60)
            # all rows at once, as read_coeff_file slices them: the plane owns its data
            whole = payload[0:64]
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(whole, values)
    _assert_owned_array(whole)


def test_coeff_file_rejects_bad_inputs(tmp_path):
    path = tmp_path / "t.rfc"
    write_coeff_file(CoeffPlane(np.zeros((4, 4)), block=4), path)
    blob = path.read_bytes()

    def read_blob(data):
        path.write_bytes(data)
        return read_coeff_file(path)

    for magic in (b"JUNK", b"RFC1"):  # RFC1, the container before transform ids, is not read
        with pytest.raises(ValueError, match=r"^not a coefficient file \(bad magic\)$"):
            read_blob(magic + blob[4:])
    for kind_id in (len(KINDS) + 1, 2**32 - 1):
        tampered = bytearray(blob)
        tampered[16:20] = np.array([kind_id], dtype="<u4").tobytes()  # RFC2's transform id
        with pytest.raises(ValueError, match=f"unknown transform id {kind_id}"):
            read_blob(bytes(tampered))
    with pytest.raises(ValueError, match="unknown transform kind"):
        CoeffPlane(np.zeros((4, 4)), block=4, kind="DST4")
    with pytest.raises(ValueError):
        read_blob(blob[:-8])
    for block in (0, 3):
        tampered = bytearray(blob)
        tampered[12:16] = np.array([block], dtype="<u4").tobytes()  # block header word
        with pytest.raises(ValueError, match="power of two"):
            read_blob(bytes(tampered))
    with pytest.raises(ValueError, match="trailing"):
        read_blob(blob + bytes(8))
    with pytest.raises(ValueError, match="truncated"):
        read_blob(blob[:12])
    for width, height in ((0, 4), (4, 0), (0, 0)):
        header = np.array([width, height, 4, 0], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="empty"):
            read_blob(b"RFC2" + header)
    for bad in (np.nan, np.inf, -np.inf):
        tampered = bytearray(blob)
        offset = 20 + 8 * (2 * 4 + 1)  # the payload's value at (2, 1)
        tampered[offset:offset + 8] = np.array([bad], dtype="<f8").tobytes()
        with pytest.raises(ValueError, match="NaN or infinite"):
            read_blob(bytes(tampered))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_coeff_file_writer_refuses_what_no_reader_reads_back(tmp_path, bad):
    # refused with the readers' message before the path is opened: a file already
    # there keeps its bytes, and no file is created
    values = np.zeros((8, 8))
    values[3, 2] = bad
    path, new = tmp_path / "t.rfc", tmp_path / "new.rfc"
    path.write_bytes(b"an existing file")
    for target in (path, new):
        with pytest.raises(ValueError, match=r"^coefficient payload holds NaN or infinite values$"):
            write_coeff_file(CoeffPlane(values, block=8), target)
    assert path.read_bytes() == b"an existing file"
    assert not new.exists()


def test_codecs_accept_non_contiguous_arrays(tmp_path):
    rng = np.random.default_rng(44)
    pixels = rng.integers(0, 256, size=(6, 10), dtype=np.uint8)
    values = rng.standard_normal((8, 12))
    for write, strided, contiguous in (
        (write_pgm, GrayImage(pixels.T), GrayImage(np.ascontiguousarray(pixels.T))),
        (write_coeff_file, CoeffPlane(np.asfortranarray(values), block=4),
         CoeffPlane(values, block=4)),
    ):
        write(strided, tmp_path / "strided")
        write(contiguous, tmp_path / "contiguous")
        assert (tmp_path / "strided").read_bytes() == (tmp_path / "contiguous").read_bytes()


def test_codecs_copy_their_payload_once(tmp_path):
    # the readers allocate the payload once; the writers send it from the caller's array
    rng = np.random.default_rng(45)
    plane = CoeffPlane(rng.standard_normal((256, 256)), block=8)
    img = _random_image(rng, 512, 512)
    header = np.array([256, 256, 8, 0], dtype="<u4").tobytes()
    blob = b"RFC2" + header + plane.values.astype("<f8").tobytes()
    raster = b"P5\n512 512\n255\n" + img.pixels.tobytes()
    coeff_path = tmp_path / "t.rfc"
    coeff_path.write_bytes(blob)
    pgm_path = tmp_path / "t.pgm"
    pgm_path.write_bytes(raster)
    for codec, args, payload, bound in (
        (read_coeff_file, (coeff_path,), plane.values.nbytes, 1.05),
        (write_coeff_file, (plane, tmp_path / "w.rfc"), plane.values.nbytes, 0.05),
        (parse_pgm, (io.BytesIO(raster),), img.pixels.nbytes, 1.25),
        (read_pgm, (pgm_path,), img.pixels.nbytes, 1.05),
        (write_pgm, (img, tmp_path / "w.pgm"), img.pixels.nbytes, 0.05),
    ):
        tracemalloc.start()
        try:
            codec(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * payload, (codec.__name__, peak / payload)
    _assert_owned_array(read_pgm(pgm_path).pixels)
    assert (tmp_path / "w.rfc").read_bytes() == blob
    assert (tmp_path / "w.pgm").read_bytes() == raster


@pytest.mark.parametrize("write,value", (
    (write_pgm, GrayImage(np.arange(48, dtype=np.uint8).reshape(6, 8))),
    (write_coeff_file, CoeffPlane(np.arange(64.0).reshape(8, 8), block=4, kind="DST2")),
), ids=("pgm", "coeff"))
def test_writers_refuse_a_pipe_and_rewrite_a_longer_file_exactly(tmp_path, write, value):
    # positioned writes cannot go to a pipe; a regular file is cut to its size, not truncated
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    write(value, fresh)
    want = fresh.read_bytes()
    out.write_bytes(b"\xff" * (2 * len(want)))
    write(value, out)
    assert out.read_bytes() == want
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(ValueError, match="^cannot write to a pipe or another output "
                                             "that is not seekable$"):
            write(value, f"/dev/fd/{write_end}")
        os.set_blocking(read_end, False)
        with pytest.raises(BlockingIOError):  # nothing was written to the pipe
            os.read(read_end, 1)
    finally:
        os.close(read_end)
        os.close(write_end)


def test_an_empty_image_is_refused_before_its_path_is_opened(tmp_path):
    # parse_pgm reads no image without rows or columns back, so none is written
    kept, missing = tmp_path / "kept.pgm", tmp_path / "missing.pgm"
    kept.write_bytes(b"an existing file")
    for h, w in ((0, 5), (5, 0)):
        img = GrayImage(np.zeros((h, w), np.uint8))
        for path in (kept, missing):
            with pytest.raises(ValueError, match=f"^cannot write an empty {w}x{h} plane$"):
                write_pgm(img, path)
    assert kept.read_bytes() == b"an existing file"
    assert not missing.exists()


@pytest.mark.parametrize("side,block,payload,message", [
    # a 20-byte file whose header claims a 65535 x 65535 plane (32 GiB)
    (65535, 8, 0, "^truncated coefficient payload$"),
    # a whole 512 x 512 payload (2 MiB) under a header whose block is no power of two
    (512, 0, 8 * 512 * 512, "power of two"),
    (512, 3, 8 * 512 * 512, "power of two"),
], ids=["huge", "block-0", "block-3"])
def test_huge_coefficient_header_fails_before_allocating(tmp_path, side, block, payload, message):
    blob = b"RFC2" + np.array([side, side, block, 0], dtype="<u4").tobytes() + bytes(payload)
    path = tmp_path / "huge.rfc"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            read_coeff_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def _per_block(plane, mat):
    # every M x M block of plane replaced by mat @ block @ mat.T
    m = mat.shape[0]
    h, w = plane.shape
    blocks = plane.reshape(h // m, m, w // m, m).transpose(0, 2, 1, 3)
    return (mat @ blocks @ mat.T).transpose(0, 2, 1, 3).reshape(h, w)


_LAYOUTS = (
    np.ascontiguousarray,
    np.asfortranarray,
    lambda a: np.ascontiguousarray(a.T).T,  # transposed view
    lambda a: np.stack([a, a], axis=2)[:, :, 0],  # strided view
)

# (M, block rows, block columns, bound).  The "bands" case is 2 BAND_ROWS + M
# rows tall, so it crosses two band edges and ends in a partial band.  From
# FFT_MIN_SIZE on, rfst runs its FFT core; a 2 x 3 grid of blocks keeps those
# planes small.  Coefficients grow as 255 M, so the bound there is about 35
# ulps of the largest one at 2 FFT_MIN_SIZE (255 * 512 * 2^-52 = 2.9e-11); the
# measured error is 8.7e-11.
_ORACLE_CASES = [
    pytest.param(m, rows, cols, tol, id=str(m))
    for m, rows, cols, tol in (
        (2, 4, 6, 1e-11),
        (4, 4, 6, 1e-11),
        (8, 4, 6, 1e-11),
        (FFT_MIN_SIZE, 2, 3, 1e-9),
        (2 * FFT_MIN_SIZE, 2, 3, 1e-9),
    )
] + [pytest.param(8, 2 * BAND_ROWS // 8 + 1, 3, 1e-11, id="8-bands")]


@pytest.mark.parametrize("m,rows,cols,tol", _ORACLE_CASES)
def test_forward_matches_per_block_oracle(m, rows, cols, tol):
    rng = np.random.default_rng(34)
    pixels = rng.integers(0, 256, size=(rows * m, cols * m), dtype=np.uint8)
    t = rfst(m)
    expected = _per_block(pixels.astype(np.float64), t.as_matrix().entries)
    # the pipeline writes through views of its plane, so inputs that are
    # not C-ordered must give the same coefficients
    for layout in _LAYOUTS:
        img = GrayImage(layout(pixels))
        coeffs = forward_2d(img, t)
        assert coeffs.block == m
        assert np.array_equal(img.pixels, pixels)
        assert np.abs(coeffs.values - expected).max() <= tol


@pytest.mark.parametrize("m,rows,cols,tol", _ORACLE_CASES)
def test_inverse_matches_per_block_oracle(m, rows, cols, tol):
    rng = np.random.default_rng(40)
    values = rng.standard_normal((rows * m, cols * m)) * 100.0
    t = rfst(m)
    expected = _per_block(values, t.as_matrix().entries.T)
    for layout in _LAYOUTS:
        coeffs = CoeffPlane(layout(values), block=m)
        plane = inverse_2d(coeffs, t)
        assert np.array_equal(coeffs.values, values)
        assert np.abs(plane - expected).max() <= tol


@pytest.mark.parametrize("t", (rfst(8), dct2(16), hadamard(8), rfst(FFT_MIN_SIZE)),
                         ids=("rfst-8", "dct-16", "ht-8", "rfst-fft"))
def test_inverse_is_bit_identical_for_every_plane_layout(t):
    # below FFT_MIN_SIZE the column pass reads the plane where it lies, in block layout
    rng = np.random.default_rng(58)
    values = rng.standard_normal((2 * max(BAND_ROWS, t.size) + t.size, 3 * t.size)) * 100.0
    expected = inverse_2d(CoeffPlane(values, block=t.size), t)
    for layout in _LAYOUTS[1:]:
        assert np.array_equal(inverse_2d(CoeffPlane(layout(values), block=t.size), t), expected)


def test_fft_and_dense_cores_agree_at_large_blocks(monkeypatch):
    # 2048^2 at M = 1024: coefficients reach 255 M = 2.6e5, whose ulp is 5.8e-11;
    # the two cores differed by 7.3e-11 forward and 1.4e-12 in the round trip
    rng = np.random.default_rng(47)
    img = _random_image(rng, 2048, 2048)
    t = rfst(1024)
    fft_coeffs = forward_2d(img, t)
    fft_plane = inverse_2d(fft_coeffs, t)
    monkeypatch.setattr(regularity, "FFT_MIN_SIZE", 2 * t.size)
    dense_coeffs = forward_2d(img, t)
    assert not np.array_equal(fft_coeffs.values, dense_coeffs.values)  # the patch took effect
    assert np.abs(fft_coeffs.values - dense_coeffs.values).max() <= 1e-9
    assert np.abs(fft_plane - inverse_2d(dense_coeffs, t)).max() <= 1e-9
    assert np.abs(fft_plane - img.pixels).max() <= 1e-9


# below FFT_MIN_SIZE rfst runs one product with its folded matrix, which rounds
# differently from the sine core and the cascade run one after the other: here
# forward differs by up to 1.1e-11 at M = 128, where coefficients reach 255 M, and
# inverse by 4.5e-13.  From there on both routes run the same code
@pytest.mark.parametrize("m", (2, 4, 8, 16, 32, 64, 128, FFT_MIN_SIZE, 2 * FFT_MIN_SIZE))
def test_shipped_route_matches_the_unfolded_route(m):
    rng = np.random.default_rng(56)
    img = _random_image(rng, max(256, 2 * m), max(256, 3 * m))
    coeffs = CoeffPlane(rng.standard_normal(img.pixels.shape) * 100.0, block=m)
    shipped, reference = ((forward_2d(img, t).values, inverse_2d(coeffs, t))
                          for t in (rfst(m), timing._Unfolded(rfst(m).cascade)))
    for got, want in zip(shipped, reference):
        if m < FFT_MIN_SIZE:
            assert np.abs(got - want).max() <= 1e-10
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("m", (FFT_MIN_SIZE, 2 * FFT_MIN_SIZE))
def test_tiled_column_pass_matches_the_unfolded_route(monkeypatch, m, cpus):
    # rfst runs its cascade's row pass inside the column pass's tiles, a few partners per
    # tile, against one carried lane 0 per segment; the unfolded route runs it as a pass
    # of its own over the band.  3 block rows of 5 segments, each of M / TILE tiles
    _on_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(66)
    img = _random_image(rng, 3 * m, 5 * m)
    coeffs = CoeffPlane(rng.standard_normal(img.pixels.shape) * 100.0, block=m)
    shipped, reference = rfst(m), timing._Unfolded(rfst(m).cascade)
    assert shipped.carried is shipped.cascade and reference.carried is None
    assert np.array_equal(forward_2d(img, shipped).values, forward_2d(img, reference).values)
    assert np.array_equal(inverse_2d(coeffs, shipped), inverse_2d(coeffs, reference))


def test_a_cascade_that_cannot_run_tile_by_tile_runs_its_row_pass_on_its_own():
    # a pivot other than 0, or partners out of order, cannot be carried from tile to tile
    m = FFT_MIN_SIZE
    rng = np.random.default_rng(68)
    img = _random_image(rng, m, 3 * m)
    for reflections in (((0, 4, 0.3), (1, 3, -0.7)), ((0, m - 2, 0.3), (0, 2, -0.7))):
        cascade = RegularityCascade(tuple(GivensReflection(*r) for r in reflections), m)
        t = FastRegularTransform(cascade)
        assert t.carried is None
        expected = _per_block(img.pixels.astype(np.float64), t.as_matrix().entries)
        assert np.abs(forward_2d(img, t).values - expected).max() <= 1e-9


def test_fft_route_reads_neither_the_dense_core_nor_the_folded_matrix(monkeypatch):
    def unread(self):
        pytest.fail("the dense sine core or the folded matrix was read")

    for name in ("core", "_matrix"):
        monkeypatch.setattr(FastRegularTransform, name, property(unread))
    img = _random_image(np.random.default_rng(57), 1024, 2048)
    t = rfst(1024)
    assert np.abs(inverse_2d(forward_2d(img, t), t) - img.pixels).max() <= 1e-9


def _on_cpus(monkeypatch, count):
    # forward_2d and inverse_2d then run one worker per CPU of these count
    monkeypatch.setattr(imaging.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _bands_taken_by(monkeypatch, take):
    # each worker of _run_bands then calls take(tops, rows) in place of its band loop
    def bands(src, out, transform, inverse, rows, tops):
        take(tops, rows)
        return iter(())

    monkeypatch.setattr(imaging, "_blockwise_2d", bands)


def test_fft_route_builds_no_transpose(monkeypatch):
    # the FFT route never runs the dense core's product, so it holds no second M x M
    # matrix, even with the dense core built
    _on_cpus(monkeypatch, 2)
    img = _random_image(np.random.default_rng(58), 2 * FFT_MIN_SIZE, 2 * FFT_MIN_SIZE)
    t = rfst(FFT_MIN_SIZE)
    core = t.core
    assert np.abs(inverse_2d(forward_2d(img, t), t) - img.pixels).max() <= 1e-9
    assert "_transposed" not in vars(core)
    assert "_matrix" not in vars(t)


@pytest.mark.parametrize("inverse", (False, True), ids=("forward", "inverse"))
@pytest.mark.parametrize("make,dense", (
    (rfst, lambda t: t.as_matrix()),
    (dct2, lambda t: t),
    (lambda m: timing._Unfolded(rfst(m).cascade), lambda t: t.core),
), ids=("rfst", "dct", "unfolded"))
def test_workers_start_with_every_matrix_built(monkeypatch, make, dense, inverse):
    # the row pass runs one of entries and its transpose and the column pass the
    # other: both are built before the threads start, never by two workers at once
    _on_cpus(monkeypatch, 2)
    t = make(8)
    matrix = dense(t)
    assert "_transposed" not in vars(matrix)
    workers = []
    _bands_taken_by(monkeypatch, lambda tops, rows: workers.append(rows))
    imaging._run_bands(np.zeros((16 * 32, 8)), t, inverse)
    assert workers == [32, 32]
    assert "_transposed" in vars(matrix)


@pytest.mark.parametrize("m,planes,rows,cpus", [
    pytest.param(m, planes, rows, cpus, id=f"{m}-{planes}" + ("" if cpus == 1 else f"-{cpus}-cpus"))
    for m, planes, rows in ((8, 1.3, 512), (128, 1.3, 1024), (FFT_MIN_SIZE, 1.1, 512))
    for cpus in (1, 2, 8)])
def test_2d_pipeline_holds_at_most_two_planes(monkeypatch, m, planes, rows, cpus):
    # the output plane and, on the dense core, two band-sized scratch buffers of
    # max(64, M) rows, a quarter of the plane, split between the workers: two of
    # 128 rows each would be half the plane; the FFT core works in place on its output,
    # but for one tile of M x (TILE + 8) floats and a lane of M per worker
    rng = np.random.default_rng(48)
    img = _random_image(rng, rows, 768)
    t = rfst(m)
    coeffs = forward_2d(img, t)  # also builds rfst(m)'s dense core once, outside the trace
    plane_bytes = coeffs.values.nbytes
    _on_cpus(monkeypatch, cpus)
    for call, arg in ((forward_2d, img), (inverse_2d, coeffs)):
        # no released plane to reuse: the output plane is allocated under the trace
        gc.collect()
        imaging._released.clear()
        tracemalloc.start()
        try:
            call(arg, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= planes * plane_bytes, (call.__name__, peak / plane_bytes)


@pytest.mark.parametrize("m,scratch,rows", ((8, 0.3, 512), (128, 0.3, 1024), (FFT_MIN_SIZE, 0.1, 512)))
def test_a_call_into_a_released_plane_allocates_only_its_scratch(monkeypatch, m, scratch, rows):
    # the scratch allowances of test_2d_pipeline_holds_at_most_two_planes, less its
    # output plane, which here is the one the previous call of the shape released
    img = _random_image(np.random.default_rng(48), rows, 768)
    t = rfst(m)
    coeffs = forward_2d(img, t)
    plane_bytes = coeffs.values.nbytes
    _on_cpus(monkeypatch, 2)
    for call, arg in ((forward_2d, img), (inverse_2d, coeffs)):
        gc.collect()
        call(arg, t)  # released at once, for the traced call to reuse
        tracemalloc.start()
        try:
            call(arg, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scratch * plane_bytes, (call.__name__, peak / plane_bytes)


def test_fft_route_scratch_does_not_grow_with_the_width(monkeypatch):
    # two workers, each with one tile of M x (TILE + 8) floats and a lane of M floats,
    # above the output plane at either width; a band-sized buffer would be 1.5 and 6 MiB.
    # The interpreter's own objects (threads, views, frames) add 20-27 KB on top, for
    # which the bound allows 32 KiB
    m = FFT_MIN_SIZE
    t = rfst(m)
    _on_cpus(monkeypatch, 2)
    for width in (768, 3072):
        img = _random_image(np.random.default_rng(67), 2 * m, width)
        coeffs = forward_2d(img, t)
        for call, arg in ((forward_2d, img), (inverse_2d, coeffs)):
            gc.collect()
            imaging._released.clear()
            tracemalloc.start()
            try:
                call(arg, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            scratch = peak - coeffs.values.nbytes
            tiles = 2 * (m * (imaging.TILE + 8) + m) * 8  # two workers' tile and lane
            assert scratch <= tiles + 2**15, (call.__name__, width, scratch)


@pytest.mark.parametrize("maker,m", ((rfst, 8), (dct2, 8), (rfst, FFT_MIN_SIZE)))
def test_outputs_do_not_depend_on_band_height(monkeypatch, maker, m):
    rng = np.random.default_rng(49)
    img = _random_image(rng, 2 * max(BAND_ROWS, m) + m, 6 * m)
    t = maker(m)
    shipped = forward_2d(img, t)
    plane = inverse_2d(shipped, t)
    for rows in (m, len(img.pixels)):
        monkeypatch.setattr(imaging, "BAND_ROWS", rows)
        coeffs = forward_2d(img, t)
        assert np.array_equal(coeffs.values, shipped.values)
        assert np.array_equal(inverse_2d(coeffs, t), plane)


# every way to keep a returned plane's memory without the array itself
_VIEWS = {
    "array": lambda a: a,
    "slice": lambda a: a[8:24, 16:],
    "transpose": lambda a: a.T,
    "reshape": lambda a: a.reshape(-1, 8),
    "memoryview": memoryview,
    "frombuffer": np.frombuffer,
}


@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("direction", ("forward", "inverse"))
def test_later_calls_never_write_into_a_held_output(direction, view):
    # only the view is held; every later output of the plane's shape is released
    # as soon as it is made, so each call after the first may reuse a plane
    rng = np.random.default_rng(70)
    img, other = _random_image(rng, 32, 48), _random_image(rng, 32, 48)
    t = rfst(8)
    coeffs = forward_2d(img, t)
    out = coeffs.values if direction == "forward" else inverse_2d(coeffs, t)
    held = _VIEWS[view](out)
    expected = np.array(held, copy=True)
    del coeffs, out
    for _ in range(3):
        again = forward_2d(other, t)
        back = inverse_2d(again, t)
        assert not np.shares_memory(again.values, held) and not np.shares_memory(back, held)
        del again, back
    assert np.array_equal(np.asarray(held), expected)


def test_a_released_plane_is_reused_by_the_next_call_of_its_shape():
    gc.collect()  # no plane an earlier test left in a reference cycle is released in this one
    rng = np.random.default_rng(71)
    img = _random_image(rng, 32, 48)
    t = rfst(8)
    coeffs = forward_2d(img, t)
    expected, address = coeffs.values.copy(), coeffs.values.ctypes.data
    del coeffs
    coeffs = forward_2d(img, t)
    assert coeffs.values.ctypes.data == address
    assert np.array_equal(coeffs.values, expected)
    plane = inverse_2d(coeffs, t)  # coeffs is held, so this plane is new
    expected, address = plane.copy(), plane.ctypes.data
    assert address != coeffs.values.ctypes.data
    del plane
    plane = inverse_2d(coeffs, t)
    assert plane.ctypes.data == address
    assert np.array_equal(plane, expected)


def test_a_call_of_another_shape_frees_the_kept_plane():
    # before it allocates its own, so it holds one plane at a time, as the pipeline's
    # memory bound (test_2d_pipeline_holds_at_most_two_planes) allows at M = 8
    gc.collect()
    rng = np.random.default_rng(72)
    wide, tall = _random_image(rng, 512, 768), _random_image(rng, 768, 512)  # as many pixels
    t = rfst(8)
    expected = forward_2d(tall, t).values.copy()
    tracemalloc.start()
    try:
        forward_2d(wide, t)
        (kept,) = imaging._released
        assert kept.shape == (512, 768)
        kept = weakref.ref(kept)
        tracemalloc.reset_peak()
        coeffs = forward_2d(tall, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept() is None and not imaging._released
    assert peak <= 1.3 * coeffs.values.nbytes, peak / coeffs.values.nbytes
    assert np.array_equal(coeffs.values, expected)


def test_threads_calling_at_once_get_distinct_planes():
    # each round, more threads than CPUs call forward_2d together, while the interpreter
    # switches threads every microsecond, with one plane released by the round before;
    # each holds its output until all have checked theirs
    rng = np.random.default_rng(73)
    t, threads, rounds = rfst(8), 4, 25
    images = [_random_image(rng, 64, 96) for _ in range(threads)]
    expected = [forward_2d(img, t).values.copy() for img in images]
    barrier, addresses = threading.Barrier(threads, timeout=30), [[] for _ in range(threads)]

    def call(i):
        for _ in range(rounds):
            barrier.wait()
            coeffs = forward_2d(images[i], t)
            assert np.array_equal(coeffs.values, expected[i])
            addresses[i].append(coeffs.values.ctypes.data)
            barrier.wait()
            del coeffs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            for future in [pool.submit(call, i) for i in range(threads)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert all(len(set(held)) == threads for held in zip(*addresses))
    assert len(set().union(*addresses)) < threads * rounds  # planes were reused


@pytest.mark.parametrize("direction", ("forward", "inverse"))
@pytest.mark.parametrize("where", ("caller", "worker"))
def test_a_call_that_fails_mid_fill_leaves_later_outputs_intact(monkeypatch, where, direction):
    # the failed call's plane holds part of another image's bands; it is released as
    # soon as the error is dropped, with the cyclic collector off, and the next call of
    # its shape fills all of it
    gc.collect()  # no plane an earlier test left in a reference cycle is released in this one
    rng = np.random.default_rng(74)
    img, other = _random_image(rng, 4 * BAND_ROWS, 48), _random_image(rng, 4 * BAND_ROWS, 48)
    t = rfst(8)
    coeffs, bad = forward_2d(img, t), forward_2d(other, t)
    expected = coeffs.values.copy() if direction == "forward" else inverse_2d(coeffs, t).copy()
    call, arg, bad_arg = ((forward_2d, img, other) if direction == "forward"
                          else (inverse_2d, coeffs, bad))
    along, caller, calls, planes = FastRegularTransform._along, threading.current_thread(), [], []
    new_plane = imaging._new_plane

    def fail_late(self, x, y, inverse=False):
        if (threading.current_thread() is caller) == (where == "caller"):
            calls.append(1)
            if len(calls) == 3:  # the second band's row pass
                raise RuntimeError("failed mid-fill")
        else:  # slowed, so that it leaves the failing thread bands of its own
            time.sleep(0.002)
        along(self, x, y, inverse)

    _on_cpus(monkeypatch, 2)
    gc.disable()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(FastRegularTransform, "_along", fail_late)
            patch.setattr(imaging, "_new_plane",
                          lambda shape: planes.append(new_plane(shape)) or planes[-1])
            with pytest.raises(RuntimeError, match="failed mid-fill"):
                call(bad_arg, t)
        address = planes.pop().ctypes.data
        assert [a.ctypes.data for a in imaging._released] == [address]
    finally:
        gc.enable()
    out = call(arg, t)
    out = out.values if direction == "forward" else out
    assert out.ctypes.data == address
    assert np.array_equal(out, expected)


def _dense_half(m):
    return FastRegularTransform(DenseHalf(half_postprocessing_matrix(m)))


# (transform, block rows): every route of the pipeline, on planes whose band count is
# a multiple of none of the worker counts.  At M = 8 the bands of 1, 2, 3 and 5 workers
# are 64, 32, 16 and 8 rows: 2, 3, 5 and 9 bands of 72 rows; from FFT_MIN_SIZE on a
# band is one block row, 7 of them
_WORKER_CASES = [
    pytest.param(make, m, 9 if m == 8 else 7, id=f"{name}-{m}")
    for name, make, m in (
        ("rfst", rfst, 8),
        ("dct", dct2, 8),
        ("ht", hadamard, 8),
        ("unfolded", lambda m: timing._Unfolded(rfst(m).cascade), 8),
        ("dense-half", _dense_half, 8),
        ("rfst", rfst, FFT_MIN_SIZE),
        ("dense-half", _dense_half, FFT_MIN_SIZE),
    )
]


@pytest.mark.parametrize("make,m,block_rows", _WORKER_CASES)
def test_outputs_do_not_depend_on_workers(monkeypatch, make, m, block_rows):
    rng = np.random.default_rng(60)
    img = _random_image(rng, block_rows * m, 2 * m if m > 8 else 48)
    t = make(m)
    _on_cpus(monkeypatch, 1)
    coeffs = forward_2d(img, t)
    plane = inverse_2d(coeffs, t)
    for cpus in (2, 3, 5):
        _on_cpus(monkeypatch, cpus)
        assert np.array_equal(forward_2d(img, t).values, coeffs.values), cpus
        assert np.array_equal(inverse_2d(coeffs, t), plane), cpus


def test_workers_are_the_cpus_this_process_may_use(monkeypatch):
    # one per CPU in the affinity mask, one where the mask cannot be read; never more
    # than bands, nor on the dense core than max(BAND_ROWS, M) // M
    runs = []  # one band loop per worker
    blockwise = imaging._blockwise_2d
    monkeypatch.setattr(imaging, "_blockwise_2d", lambda *a: runs.append(1) or blockwise(*a))
    monkeypatch.setattr(imaging.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    for m, rows, workers in ((8, 9 * 8, 3), (8, 8, 1), (32, 4 * 32, 2), (64, 4 * 64, 1),
                             (128, 4 * 128, 1), (FFT_MIN_SIZE, 2 * FFT_MIN_SIZE, 2),
                             (FFT_MIN_SIZE, 7 * FFT_MIN_SIZE, 3)):
        runs.clear()
        forward_2d(_random_image(np.random.default_rng(61), rows, m), rfst(m))
        assert len(runs) == workers, (m, rows)
    monkeypatch.delattr(imaging.os, "sched_getaffinity")
    runs.clear()
    forward_2d(_random_image(np.random.default_rng(61), 9 * 8, 8), rfst(8))
    assert len(runs) == 1


@pytest.mark.parametrize("cpus", (2, 8))
def test_a_one_band_plane_starts_no_thread(monkeypatch, cpus):
    def no_thread(*args, **kwargs):
        pytest.fail("a thread was started for a plane of one band")

    _on_cpus(monkeypatch, cpus)
    monkeypatch.setattr(imaging.threading, "Thread", no_thread)
    for m in (8, FFT_MIN_SIZE):
        img = _random_image(np.random.default_rng(62), m, 2 * m)
        t = rfst(m)
        assert np.abs(inverse_2d(forward_2d(img, t), t) - img.pixels).max() <= 1e-9


def test_a_held_up_worker_leaves_its_bands_to_the_others(monkeypatch):
    # 16 bands of 32 rows on two workers: the one that takes the first band holds it
    # until all 16 are taken, which the other does only if it takes the rest of the
    # first worker's run after its own
    _on_cpus(monkeypatch, 2)
    rest, taken, lock = threading.Event(), [], threading.Lock()

    def work(tops, rows):
        for top in tops:
            with lock:
                taken.append(top)
                if len(taken) == 16:
                    rest.set()
            if top == 0:
                assert rest.wait(10), "the other worker left bands untaken"

    _bands_taken_by(monkeypatch, work)
    imaging._run_bands(np.zeros((16 * 32, 8)), rfst(8), False)
    assert sorted(taken) == list(range(0, 16 * 32, 32))


def test_no_band_is_taken_after_a_worker_fails(monkeypatch):
    # the worker that takes the first band fails; the other finishes the band it holds
    # and takes no other, where it would otherwise run the 15 bands left
    _on_cpus(monkeypatch, 2)
    failing, others = threading.Event(), []

    def work(tops, rows):
        for top in tops:
            if top == 0:
                failing.set()
                raise OSError("band failed")
            others.append(top)
            assert failing.wait(10)
            time.sleep(0.01)  # past the failing worker's raise

    _bands_taken_by(monkeypatch, work)
    with pytest.raises(OSError, match="band failed"):
        imaging._run_bands(np.zeros((16 * 32, 8)), rfst(8), False)
    assert len(others) <= 1


def test_every_worker_thread_is_joined(monkeypatch):
    # the core sleeps in the worker threads, so a worker still running when the call
    # returns or raises would be counted; with fail set, the second core call in a
    # worker fails, and the caller gets that error
    img = _random_image(np.random.default_rng(63), 3 * BAND_ROWS, 48)
    t = rfst(8)
    coeffs = forward_2d(img, t)
    caller, calls, lock = threading.current_thread(), [], threading.Lock()
    along = FastRegularTransform._along

    def slow(self, x, y, inverse=False, fail=False):
        if threading.current_thread() is not caller:
            time.sleep(0.005)
            with lock:
                calls.append(1)
                if fail and len(calls) == 2:
                    raise RuntimeError("the second call failed")
        along(self, x, y, inverse)

    _on_cpus(monkeypatch, 5)
    baseline = threading.active_count()
    for fail in (False, True):
        monkeypatch.setattr(FastRegularTransform, "_along", functools.partialmethod(slow, fail=fail))
        for call, arg in ((forward_2d, img), (inverse_2d, coeffs)):
            calls.clear()
            with pytest.raises(RuntimeError, match="second call") if fail else contextlib.nullcontext():
                call(arg, t)
            assert calls and threading.active_count() == baseline


@pytest.mark.parametrize("make", (rfst, lambda m: timing._Unfolded(rfst(m).cascade)),
                         ids=("rfst", "unfolded"))
def test_a_cold_transform_builds_its_dense_matrices_once(monkeypatch, make):
    # (size, threads alive) per build: one build, made before any worker started
    dst2_calls = []
    real = regularity.dst2
    monkeypatch.setattr(regularity, "dst2",
                        lambda m: dst2_calls.append((m, threading.active_count())) or real(m))
    _on_cpus(monkeypatch, 2)
    img = _random_image(np.random.default_rng(64), 2 * BAND_ROWS, 48)
    t = make(8)
    baseline = threading.active_count()
    inverse_2d(forward_2d(img, t), t)
    assert dst2_calls == [(8, baseline)]


_RACE_CODE = """
import hashlib, os, sys
import numpy as np
import rfst
from rfst.rdst import DenseHalf, half_postprocessing_matrix
from rfst.regularity import FFT_MIN_SIZE, FastRegularTransform
sys.setswitchinterval(1e-6)
rng = np.random.default_rng(65)
for t, rows in ((rfst.rfst(8), 512), (rfst.rfst(FFT_MIN_SIZE), 4 * FFT_MIN_SIZE),
                (FastRegularTransform(DenseHalf(half_postprocessing_matrix(FFT_MIN_SIZE))),
                 4 * FFT_MIN_SIZE)):
    img = rfst.GrayImage(rng.integers(0, 256, size=(rows, 2 * FFT_MIN_SIZE), dtype=np.uint8))
    os.sched_getaffinity = lambda pid: {0}
    coeffs = rfst.forward_2d(img, t)
    plane = rfst.inverse_2d(coeffs, t)
    os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
    for _ in range(3):
        got = (rfst.forward_2d(img, t).values, rfst.inverse_2d(coeffs, t))
        print(*(hashlib.sha256(a.tobytes()).hexdigest() == hashlib.sha256(b.tobytes()).hexdigest()
                for a, b in zip(got, (coeffs.values, plane))))
"""


def test_workers_race_nothing_under_a_short_switch_interval():
    # four workers, while the interpreter switches threads every microsecond, so
    # any state that the workers share without a lock would be raced
    src = str(Path(imaging.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r})\n" + _RACE_CODE
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.split() == ["True"] * 18


@pytest.mark.parametrize("m", (8, FFT_MIN_SIZE))
def test_scipy_fft_is_imported_by_the_fft_core_alone(m):
    # and scipy.linalg, whose BLAS only the cascade's own pass runs, never below FFT_MIN_SIZE
    src = str(Path(imaging.__file__).resolve().parents[1])
    for calls in (f"img = rfst.GrayImage(np.zeros((2 * {m}, {m}), np.uint8)); "
                "rfst.inverse_2d(rfst.forward_2d(img, t), t)",
                f"t.inverse(t.forward(np.ones({m})))"):
        code = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
                f"import rfst, rfst.cli; t = rfst.rfst({m}); {calls}; "
                "print('scipy.fft' in sys.modules, 'scipy.linalg' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        fft, linalg = done.stdout.split()
        assert fft == str(m >= FFT_MIN_SIZE), calls
        if m < FFT_MIN_SIZE:
            assert linalg == "False", calls


# (M, block rows, block columns, bound): the dense core at the codec block size
# and, past FFT_MIN_SIZE, where only rfst switches to the FFT core
_PLAIN_CASES = [
    pytest.param(maker, m, rows, cols, tol, id=maker.__name__ + ("" if m == 8 else f"-{m}"))
    for m, rows, cols, tol in ((8, 4, 6, 1e-11), (FFT_MIN_SIZE, 2, 3, 1e-9))
    for maker in (dct2, dst2, hadamard)
]


@pytest.mark.parametrize("maker,m,rows,cols,tol", _PLAIN_CASES)
def test_forward_accepts_plain_transforms(maker, m, rows, cols, tol):
    rng = np.random.default_rng(35)
    img = _random_image(rng, rows * m, cols * m)
    t = maker(m)
    coeffs = forward_2d(img, t)
    assert np.abs(coeffs.values - _per_block(img.pixels.astype(np.float64), t.entries)).max() <= tol
    assert np.abs(inverse_2d(coeffs, t) - img.pixels).max() <= tol


@pytest.mark.parametrize("m", (2, 4, 8, 16, 32))
def test_perfect_reconstruction(m):
    rng = np.random.default_rng(36)
    img = _random_image(rng, 64, 64)
    t = rfst(m)
    recon = inverse_2d(forward_2d(img, t), t)
    assert np.abs(recon - img.pixels.astype(np.float64)).max() <= 1e-9


def test_shape_checks():
    rng = np.random.default_rng(37)
    img = _random_image(rng, 12, 12)
    with pytest.raises(ValueError):
        forward_2d(img, rfst(8))
    coeffs = forward_2d(_random_image(rng, 16, 16), rfst(8))
    with pytest.raises(ValueError):
        inverse_2d(coeffs, rfst(4))
    with pytest.raises(TypeError):
        forward_2d(img, np.eye(4))
    with pytest.raises(ValueError, match="must be positive"):
        forward_2d(GrayImage(np.zeros((0, 8), dtype=np.uint8)), rfst(8))
    with pytest.raises(ValueError, match="empty coefficient plane 8x0"):
        inverse_2d(CoeffPlane(np.zeros((0, 8)), block=8), rfst(8))


def test_forward_tags_the_plane_with_its_transform_kind():
    img = _random_image(np.random.default_rng(51), 16, 16)
    for t, kind in ((rfst(8), "RFST"), (dct2(8), "DCT2"), (dst2(8), "DST2"), (hadamard(8), "HT")):
        assert forward_2d(img, t).kind == kind


def test_subband_energy_partitions_total_energy():
    rng = np.random.default_rng(38)
    img = _random_image(rng, 32, 32)
    coeffs = forward_2d(img, rfst(8))
    energies = subband_energy(coeffs)
    assert energies.shape == (8, 8)
    total = float((img.pixels.astype(np.float64) ** 2).sum())
    assert abs(energies.sum() - total) <= 1e-6 * total


def test_constant_image_energy_lands_in_dc_subband():
    img = GrayImage(np.full((32, 32), 200, dtype=np.uint8))
    energies = subband_energy(forward_2d(img, rfst(8)))
    total = energies.sum()
    assert energies[0, 0] >= total * (1.0 - 1e-15)


def test_subband_mosaic_layout():
    rng = np.random.default_rng(39)
    img = _random_image(rng, 16, 24)
    coeffs = forward_2d(img, rfst(8))
    mosaic = subband_mosaic(coeffs)
    assert mosaic.pixels.shape == (16, 24)
    # tile (u, v) of the mosaic regroups coefficient (u, v) of every block
    m = 8
    th, tw = 16 // m, 24 // m
    values = coeffs.values
    mags = np.abs(values)
    peak = mags.max()
    mapped = np.clip(np.rint(255.0 * np.log1p(mags) / np.log1p(peak)), 0, 255)
    for u, v in ((0, 0), (3, 5), (7, 7)):
        tile = mosaic.pixels[u * th : (u + 1) * th, v * tw : (v + 1) * tw]
        expected = mapped[u::m, v::m]
        assert np.array_equal(tile, expected.astype(np.uint8))


def test_subband_mosaic_holds_one_plane():
    plane = CoeffPlane(np.random.default_rng(46).standard_normal((256, 256)) * 100.0, block=8)
    tracemalloc.start()
    try:
        subband_mosaic(plane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the regrouped float plane plus the uint8 result
    assert peak <= 1.25 * plane.values.nbytes, peak / plane.values.nbytes


def test_subband_mosaic_of_zero_plane_is_black():
    mosaic = subband_mosaic(CoeffPlane(np.zeros((8, 8)), block=4))
    assert mosaic.pixels.max() == 0


@pytest.mark.parametrize("m", (8, FFT_MIN_SIZE))
def test_post_replaces_only_the_rfst_cascade(m):
    # a postprocessing in the cascade's place that records its views and does nothing
    # leaves rfst(m) the plain sine transform; it sees the band's 2M segments as an (M, 2M)
    # view, F-ordered after the row pass and C-ordered after the column pass.  Below
    # FFT_MIN_SIZE only the bench's unfolded route runs it as a pass of its own
    img = _random_image(np.random.default_rng(54), m, 2 * m)
    views = []

    class Record:
        target_size = m

        def apply(self, v, inverse=False):
            views.append((v.shape, v.flags.f_contiguous, v.flags.c_contiguous, inverse))
            return v

    t = (FastRegularTransform if m >= FFT_MIN_SIZE else timing._Unfolded)(Record())
    plane = forward_2d(img, t)
    row, column = ((m, 2 * m), True, False), ((m, 2 * m), False, True)
    assert views == [(*row, False), (*column, False)]
    np.testing.assert_allclose(plane.values, forward_2d(img, dst2(m)).values, rtol=0, atol=1e-8)
    views.clear()
    inverse_2d(plane, t)
    assert views == [(*column, True), (*row, True)]
