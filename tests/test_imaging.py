"""Image I/O, separable block transforms, mosaics, and the timing harness."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rfst import imaging, regularity
from rfst.imaging import (
    BAND_ROWS,
    CoeffPlane,
    GrayImage,
    bench_postprocessing,
    emit_coeff_file,
    emit_pgm,
    forward_2d,
    inverse_2d,
    parse_coeff_file,
    parse_pgm,
    read_coeff_file,
    read_pgm,
    subband_energy,
    subband_mosaic,
    write_coeff_file,
    write_pgm,
)
from rfst.regularity import FFT_MIN_SIZE, rfst
from rfst.transforms import KINDS, dct2, dst2, hadamard


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


def test_pgm_round_trip():
    rng = np.random.default_rng(31)
    img = _random_image(rng, 5, 7)
    again = parse_pgm(emit_pgm(img))
    assert np.array_equal(img.pixels, again.pixels)
    _assert_owned_array(again.pixels)


def test_pgm_accepts_comments_and_whitespace():
    raster = bytes(range(6))
    data = b"P5 # magic\n# a comment line\n 3 \n# another\n2\n255\n" + raster
    img = parse_pgm(data)
    assert img.width == 3 and img.height == 2
    assert img.pixels.tobytes() == raster


def test_pgm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        parse_pgm(b"P2\n2 2\n255\n0000")  # ASCII variant unsupported
    with pytest.raises(ValueError):
        parse_pgm(b"P5\n2 2\n65535\n" + bytes(8))  # 16-bit unsupported
    with pytest.raises(ValueError):
        parse_pgm(b"P5\n2 2\n255\n" + bytes(3))  # truncated raster
    with pytest.raises(ValueError):
        parse_pgm(b"P5\n2")  # truncated header
    with pytest.raises(ValueError):
        parse_pgm(b"P5\n0 2\n255\n")
    with pytest.raises(ValueError, match="trailing"):
        parse_pgm(b"P5\n2 2\n255\n" + bytes(5))
    with pytest.raises(ValueError, match="exceeds maxval"):
        parse_pgm(b"P5\n2 2\n15\n" + bytes([0, 15, 16, 3]))
    # int() reads these as 10 and 4; a header number is ASCII decimal digits only
    with pytest.raises(ValueError, match="width"):
        parse_pgm(b"P5\n1_0 1\n255\n" + bytes(10))
    with pytest.raises(ValueError, match="height"):
        parse_pgm(b"P5\n2 +4\n255\n" + bytes(8))
    assert parse_pgm(b"P5\n2 2\n15\n" + bytes([0, 15, 15, 3])).pixels.max() == 15


def test_pgm_file_round_trip(tmp_path):
    rng = np.random.default_rng(32)
    img = _random_image(rng, 8, 16)
    path = tmp_path / "t.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path).pixels, img.pixels)


def test_coeff_file_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    plane = CoeffPlane(rng.standard_normal((8, 12)), block=4)
    blob = emit_coeff_file(plane)
    assert blob[:4] == b"RFC2"
    again = parse_coeff_file(blob)
    assert again.block == 4 and again.kind is None
    assert np.array_equal(again.values, plane.values)
    _assert_owned_array(again.values)
    # RFC2's transform ids are part of the file format
    ids = {"DCT2": 1, "DST2": 2, "HT": 3, "RFST": 4, "RDST": 5, "CUSTOM": 6}
    assert set(ids) == set(KINDS)
    for kind, kind_id in ids.items():
        tagged_blob = emit_coeff_file(CoeffPlane(plane.values, block=4, kind=kind))
        assert np.frombuffer(tagged_blob, "<u4", 1, 16)[0] == kind_id
        tagged = parse_coeff_file(tagged_blob)
        assert tagged.kind == kind and np.array_equal(tagged.values, plane.values)
    # an RFC1 file is the same container with a zero last header word and no kind
    old = parse_coeff_file(b"RFC1" + blob[4:])
    assert old.kind is None and np.array_equal(old.values, plane.values)
    path = tmp_path / "t.rfc"
    write_coeff_file(plane, path)
    assert np.array_equal(read_coeff_file(path).values, plane.values)


def test_coeff_file_rejects_bad_inputs():
    plane = CoeffPlane(np.zeros((4, 4)), block=4)
    blob = bytearray(emit_coeff_file(plane))
    with pytest.raises(ValueError):
        parse_coeff_file(b"JUNK" + bytes(blob[4:]))
    tampered = bytearray(b"RFC1" + blob[4:])
    tampered[16] = 1  # RFC1's reserved header word
    with pytest.raises(ValueError, match="reserved header field must be zero"):
        parse_coeff_file(bytes(tampered))
    for kind_id in (len(KINDS) + 1, 2**32 - 1):
        tampered = bytearray(blob)
        tampered[16:20] = np.array([kind_id], dtype="<u4").tobytes()  # RFC2's transform id
        with pytest.raises(ValueError, match=f"unknown transform id {kind_id}"):
            parse_coeff_file(bytes(tampered))
    with pytest.raises(ValueError, match="unknown transform kind"):
        CoeffPlane(np.zeros((4, 4)), block=4, kind="DST4")
    with pytest.raises(ValueError):
        parse_coeff_file(bytes(blob[:-8]))
    for block in (0, 3):
        tampered = bytearray(blob)
        tampered[12:16] = np.array([block], dtype="<u4").tobytes()  # block header word
        with pytest.raises(ValueError, match="power of two"):
            parse_coeff_file(bytes(tampered))
    with pytest.raises(ValueError, match="trailing"):
        parse_coeff_file(bytes(blob) + bytes(8))
    with pytest.raises(ValueError, match="truncated"):
        parse_coeff_file(bytes(blob[:12]))
    for width, height in ((0, 4), (4, 0), (0, 0)):
        header = np.array([width, height, 4, 0], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="empty"):
            parse_coeff_file(b"RFC1" + header)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((4, 4))
        values[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            parse_coeff_file(emit_coeff_file(CoeffPlane(values, block=4)))


def test_codecs_accept_non_contiguous_arrays():
    rng = np.random.default_rng(44)
    pixels = rng.integers(0, 256, size=(6, 10), dtype=np.uint8)
    assert emit_pgm(GrayImage(pixels.T)) == emit_pgm(GrayImage(np.ascontiguousarray(pixels.T)))
    values = rng.standard_normal((8, 12))
    fortran = CoeffPlane(np.asfortranarray(values), block=4)
    assert emit_coeff_file(fortran) == emit_coeff_file(CoeffPlane(values, block=4))


def test_codecs_copy_their_payload_once(tmp_path):
    # the readers allocate the payload once; the writers send it from the caller's array
    rng = np.random.default_rng(45)
    plane = CoeffPlane(rng.standard_normal((256, 256)), block=8)
    img = _random_image(rng, 512, 512)
    blob, raster = emit_coeff_file(plane), emit_pgm(img)
    coeff_path = tmp_path / "t.rfc"
    coeff_path.write_bytes(blob)
    for codec, args, payload, bound in (
        (emit_coeff_file, (plane,), plane.values.nbytes, 1.25),
        (parse_coeff_file, (blob,), plane.values.nbytes, 1.25),
        (read_coeff_file, (coeff_path,), plane.values.nbytes, 1.05),
        (write_coeff_file, (plane, tmp_path / "w.rfc"), plane.values.nbytes, 0.05),
        (emit_pgm, (img,), img.pixels.nbytes, 1.25),
        (parse_pgm, (raster,), img.pixels.nbytes, 1.25),
        (write_pgm, (img, tmp_path / "w.pgm"), img.pixels.nbytes, 0.05),
    ):
        tracemalloc.start()
        try:
            codec(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * payload, (codec.__name__, peak / payload)
    assert (tmp_path / "w.rfc").read_bytes() == blob
    assert (tmp_path / "w.pgm").read_bytes() == raster


def test_huge_coefficient_header_fails_before_allocating(tmp_path):
    # a 20-byte file whose header claims a 65535 x 65535 plane (32 GiB)
    blob = b"RFC2" + np.array([65535, 65535, 8, 0], dtype="<u4").tobytes()
    path = tmp_path / "huge.rfc"
    path.write_bytes(blob)
    for reader, arg in ((parse_coeff_file, blob), (read_coeff_file, path)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^truncated coefficient payload$"):
                reader(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (reader.__name__, peak)


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


@pytest.mark.parametrize("m,planes", ((8, 1.3), (FFT_MIN_SIZE, 1.1)))
def test_2d_pipeline_holds_at_most_two_planes(m, planes):
    # the output plane and, on the dense core, two band-sized scratch buffers:
    # 2 x 64 of 512 rows is 1.25 planes; the FFT core works in place on its output
    rng = np.random.default_rng(48)
    img = _random_image(rng, 512, 768)
    t = rfst(m)
    coeffs = forward_2d(img, t)  # also builds rfst(8)'s dense core once, outside the trace
    plane_bytes = coeffs.values.nbytes
    for call, arg in ((forward_2d, img), (inverse_2d, coeffs)):
        tracemalloc.start()
        try:
            call(arg, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= planes * plane_bytes, (call.__name__, peak / plane_bytes)


@pytest.mark.parametrize("maker,m", ((rfst, 8), (dct2, 8), (rfst, FFT_MIN_SIZE)))
def test_outputs_do_not_depend_on_band_height(monkeypatch, maker, m):
    rng = np.random.default_rng(49)
    img = _random_image(rng, 2 * max(BAND_ROWS, m) + m, 6 * m)
    t = maker(m)
    shipped = forward_2d(img, t)
    plane = inverse_2d(shipped, t)
    for rows in (m, img.height):
        monkeypatch.setattr(imaging, "BAND_ROWS", rows)
        coeffs = forward_2d(img, t)
        assert np.array_equal(coeffs.values, shipped.values)
        assert np.array_equal(inverse_2d(coeffs, t), plane)


@pytest.mark.parametrize("m", (8, FFT_MIN_SIZE))
def test_scipy_fft_is_imported_by_the_fft_core_alone(m):
    src = str(Path(imaging.__file__).resolve().parents[1])
    for calls in (f"img = rfst.GrayImage(np.zeros((2 * {m}, {m}), np.uint8)); "
                "rfst.inverse_2d(rfst.forward_2d(img, t), t)",
                f"t.inverse(t.forward(np.ones({m})))"):
        code = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
                f"import rfst, rfst.cli; t = rfst.rfst({m}); {calls}; "
                "print('scipy.fft' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        assert done.stdout.strip() == str(m >= FFT_MIN_SIZE), calls


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


def test_bench_reports_consistent_fields():
    report = bench_postprocessing(8, image_size=64, repeats=3, seed=5)
    assert report.size == 8
    assert report.image_size == 64
    assert report.repeats == 3
    assert report.cascade_median_s > 0.0
    assert report.dense_half_median_s > 0.0
    assert abs(report.saved_s - (report.dense_half_median_s - report.cascade_median_s)) <= 1e-12
    assert report.max_abs_diff <= 1e-10
    assert report.blas_pinning == "unpinned" or report.blas_pinning.startswith(
        ("openblas_set_num_threads", "scipy_openblas_set_num_threads"))


@pytest.mark.parametrize("m,image_size,band_rows", (
    (8, 3 * BAND_ROWS, BAND_ROWS), (8, 16, 16), (2 * BAND_ROWS, 4 * BAND_ROWS, 2 * BAND_ROWS)))
def test_bench_reports_its_band_height(m, image_size, band_rows):
    # max(BAND_ROWS, M) rows, or the whole image when it is shorter
    report = bench_postprocessing(m, image_size=image_size, repeats=1, seed=6)
    assert report.band_rows == band_rows
    assert report.max_abs_diff <= 1e-10


@pytest.mark.parametrize("m", (8, FFT_MIN_SIZE))
def test_post_replaces_only_the_rfst_cascade(m):
    # a post that records its lanes and does nothing leaves rfst(m) the plain sine transform;
    # a plain matrix never calls it
    img = _random_image(np.random.default_rng(54), m, 2 * m)
    lanes = []

    def record(flat, n, lane, step):
        lanes.append((n, lane, step))

    for t, calls in ((rfst(m), [(2 * m, 1, m), (2 * m, 2 * m, 1)]), (dst2(m), [])):
        lanes.clear()
        out = np.empty(img.pixels.shape)
        for _ in imaging._blockwise_2d(img.pixels, out, t, post=record):
            pass
        assert lanes == calls
        np.testing.assert_allclose(out, forward_2d(img, dst2(m)).values, rtol=0, atol=1e-8)


def test_bench_runs_the_fft_core_from_fft_min_size(monkeypatch):
    # from FFT_MIN_SIZE on, forward_2d never builds the dense sine core, and neither does the bench
    def no_dense_core(m):
        pytest.fail(f"the dense sine core dst2({m}) was built")

    monkeypatch.setattr(regularity, "dst2", no_dense_core)
    report = bench_postprocessing(FFT_MIN_SIZE, FFT_MIN_SIZE, 1)
    assert report.band_rows == FFT_MIN_SIZE
    assert report.max_abs_diff <= 1e-9


def test_bench_validates_input():
    with pytest.raises(ValueError):
        bench_postprocessing(8, image_size=100)
    with pytest.raises(ValueError):
        bench_postprocessing(2, image_size=64)
    with pytest.raises(ValueError, match="power of two"):
        bench_postprocessing(0, image_size=64)
    for image_size in (0, -8):
        with pytest.raises(ValueError, match="must be positive"):
            bench_postprocessing(8, image_size=image_size)
    with pytest.raises(ValueError, match="repeats"):
        bench_postprocessing(8, image_size=64, repeats=0)
