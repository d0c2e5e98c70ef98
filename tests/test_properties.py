"""Properties of the file and text formats, checked on generated inputs.

Examples are derandomized, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rfst.imaging import (
    CoeffPlane,
    GrayImage,
    emit_coeff_file,
    emit_pgm,
    inverse_2d,
    parse_coeff_file,
    parse_pgm,
)
from rfst.regularity import RegularityCascade, emit_cascade_csv, parse_cascade_csv, rfst
from rfst.transforms import GivensReflection, emit_matrix_text, parse_matrix_text

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)
ROUND_TRIP = settings(derandomize=True, database=None, deadline=None, max_examples=60)

finite = st.floats(allow_nan=False, allow_infinity=False)
blocks = st.sampled_from((2, 4, 8))


def _only_value_error(parse, data):
    try:
        parse(data)
    except ValueError:
        pass


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
    _only_value_error(parse_pgm, data)


@FUZZ
@given(_header_prefixed(b"RFC1", rfc_headers))
def test_parse_coeff_file_raises_only_value_error(data):
    _only_value_error(parse_coeff_file, data)


@FUZZ
@given(st.text(alphabet=st.sampled_from("0123456789.,-+eEinfa \n\t#x"), max_size=120) | st.text(max_size=120))
def test_parse_matrix_text_raises_only_value_error(text):
    _only_value_error(parse_matrix_text, text)


@FUZZ
@given(st.text(alphabet=st.sampled_from("0123456789.,-+ekijth \n"), max_size=120) | st.text(max_size=120))
def test_parse_cascade_csv_raises_only_value_error(text):
    _only_value_error(lambda t: parse_cascade_csv(t, 8), text)


@ROUND_TRIP
@given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24)))
def test_pgm_round_trip(pixels):
    assert np.array_equal(parse_pgm(emit_pgm(GrayImage(pixels))).pixels, pixels)


@ROUND_TRIP
@given(blocks.flatmap(lambda m: st.tuples(
    st.just(m),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
        lambda hw: (m * hw[0], m * hw[1])), elements=finite),
)))
def test_coeff_file_round_trip(block_values):
    block, values = block_values
    plane = parse_coeff_file(emit_coeff_file(CoeffPlane(values, block=block)))
    assert plane.block == block
    assert np.array_equal(plane.values, values)


@ROUND_TRIP
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=finite))
def test_matrix_text_round_trip(entries):
    assert np.array_equal(parse_matrix_text(emit_matrix_text(entries)), entries)


@ROUND_TRIP
@given(st.sampled_from((2, 4, 8, 16)).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(st.integers(0, m - 2), st.integers(1, m - 1), finite)
             .filter(lambda ijt: ijt[0] < ijt[1]), max_size=10),
)))
def test_cascade_csv_round_trip(size_terms):
    m, terms = size_terms
    cascade = RegularityCascade(tuple(GivensReflection(i, j, t) for i, j, t in terms), m)
    assert parse_cascade_csv(emit_cascade_csv(cascade), m) == cascade


@FUZZ
@given(st.tuples(st.integers(0, 16), st.integers(0, 16), st.sampled_from((0, 1, 2, 3, 4, 8, 16)),
                 st.binary(max_size=8 * 256)))
def test_any_parsed_coeff_file_inverts(fields):
    width, height, block, payload = fields
    header = np.array([width, height, block, 0], dtype="<u4").tobytes()
    payload = payload[: 8 * width * height].ljust(8 * width * height, b"\0")
    try:
        plane = parse_coeff_file(b"RFC1" + header + payload)
    except ValueError:
        return
    try:
        inverse_2d(plane, rfst(plane.block))
    except ValueError:
        pass
