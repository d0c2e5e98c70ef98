"""Properties of the file and text formats and of the 2-D pipeline, on generated inputs.

Examples are derandomized, so every run checks the same inputs.
"""

import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rfst.imaging import (
    CoeffPlane,
    GrayImage,
    forward_2d,
    inverse_2d,
    parse_pgm,
    read_coeff_file,
    write_coeff_file,
    write_pgm,
)
from rfst.regularity import RegularityCascade, emit_cascade_csv, rfst
from rfst.transforms import GivensReflection, dct2, dst2, emit_matrix_text, hadamard

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)
ROUND_TRIP = settings(derandomize=True, database=None, deadline=None, max_examples=60)

finite = st.floats(allow_nan=False, allow_infinity=False)
blocks = st.sampled_from((2, 4, 8))


def _only_value_error(parse, data):
    try:
        parse(data)
    except ValueError:
        pass


def _parse_coeff_file(data):
    # read_coeff_file reads a file at offsets, so each example goes through one
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.rfc"
        path.write_bytes(data)
        return read_coeff_file(path)


def _written(write, obj):
    # the bytes write_pgm or write_coeff_file puts in a file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(obj, path)
        return path.read_bytes()


def _header_prefixed(magic, header):
    # most random blobs fail at the magic; prefixing it reaches the later checks
    return st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(lambda b: magic + b),
                     st.tuples(header, st.binary(max_size=200)).map(lambda hb: magic + hb[0] + hb[1]))


pgm_headers = st.tuples(st.integers(0, 300), st.integers(0, 20), st.integers(0, 20)).map(
    lambda whm: f"\n{whm[1]} {whm[2]}\n{whm[0]}\n".encode()
)
rfc_headers = st.lists(st.integers(0, 16), min_size=4, max_size=4).map(
    lambda words: np.array(words, dtype="<u4").tobytes()
)


@FUZZ
@given(_header_prefixed(b"P5", pgm_headers))
def test_parse_pgm_raises_only_value_error(data):
    _only_value_error(lambda data: parse_pgm(io.BytesIO(data)), data)


@FUZZ
@given(_header_prefixed(b"RFC2", rfc_headers))
def test_parse_coeff_file_raises_only_value_error(data):
    _only_value_error(_parse_coeff_file, data)


@ROUND_TRIP
@given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24)))
def test_pgm_round_trip(pixels):
    written = io.BytesIO(_written(write_pgm, GrayImage(pixels)))
    assert np.array_equal(parse_pgm(written).pixels, pixels)


@ROUND_TRIP
@given(blocks.flatmap(lambda m: st.tuples(
    st.just(m),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
        lambda hw: (m * hw[0], m * hw[1])), elements=finite),
)))
def test_coeff_file_round_trip(block_values):
    block, values = block_values
    plane = _parse_coeff_file(_written(write_coeff_file, CoeffPlane(values, block=block)))
    assert plane.block == block
    assert np.array_equal(plane.values, values)


@ROUND_TRIP
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=finite))
def test_matrix_text_round_trip(entries):
    text = emit_matrix_text(entries)
    assert np.array_equal(np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2), entries)


@ROUND_TRIP
@given(st.sampled_from((2, 4, 8, 16)).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(st.integers(0, m - 2), st.integers(1, m - 1), finite)
             .filter(lambda ijt: ijt[0] < ijt[1]), max_size=10),
)))
def test_cascade_csv_round_trip(size_terms):
    m, terms = size_terms
    cascade = RegularityCascade(tuple(GivensReflection(i, j, t) for i, j, t in terms), m)
    header, *rows = emit_cascade_csv(cascade).splitlines()
    assert header == "k,i,j,theta"
    parsed = [(int(k), int(i), int(j), float(t)) for k, i, j, t in (row.split(",") for row in rows)]
    assert parsed == [(k, i, j, t) for k, (i, j, t) in enumerate(terms, start=1)]


@FUZZ
@given(st.tuples(st.integers(0, 16), st.integers(0, 16), st.sampled_from((0, 1, 2, 3, 4, 8, 16)),
                 st.binary(max_size=8 * 256)))
def test_any_parsed_coeff_file_inverts(fields):
    width, height, block, payload = fields
    header = np.array([width, height, block, 0], dtype="<u4").tobytes()
    payload = payload[: 8 * width * height].ljust(8 * width * height, b"\0")
    try:
        plane = _parse_coeff_file(b"RFC2" + header + payload)
    except ValueError:
        return
    try:
        inverse_2d(plane, rfst(plane.block))
    except ValueError:
        pass


@ROUND_TRIP
@given(st.sampled_from((rfst, dst2, dct2, hadamard)), st.sampled_from((2, 4, 8, 16, 32)).flatmap(
    lambda m: st.tuples(st.just(m), hnp.arrays(np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 6))
                                               .map(lambda hw: (m * hw[0], m * hw[1]))))))
def test_2d_round_trip_transforms_every_block(maker, block_pixels):
    m, pixels = block_pixels
    t = maker(m)
    coeffs = forward_2d(GrayImage(pixels), t)
    assert np.abs(inverse_2d(coeffs, t) - pixels).max() <= 1e-9
    # block (r, c) of the plane is T B T', B the pixel block in the same place
    h, w = pixels.shape
    blocks = pixels.astype(np.float64).reshape(h // m, m, w // m, m).transpose(0, 2, 1, 3)
    dense = t.as_matrix().entries
    expected = (dense @ blocks @ dense.T).transpose(0, 2, 1, 3).reshape(h, w)
    assert np.abs(coeffs.values - expected).max() <= 1e-11
