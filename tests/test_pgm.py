import json
import re

import numpy as np
import pytest

from svopt.formats import SpecValidationError
from svopt.ism import INVALID_DISPARITY, DisparityMap, Frame
from svopt.pgm import (
    frame_from_pgm,
    frame_to_pgm,
    read_disparity,
    read_pgm,
    sidecar_path,
    write_disparity,
    write_pgm,
)


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [255, 65535])
def test_raster_roundtrip(tmp_path, binary, maxval):
    rng = np.random.default_rng(0)
    raster = rng.integers(0, maxval + 1, (7, 5)).astype(np.int64)
    path = tmp_path / "img.pgm"
    write_pgm(path, raster, maxval, binary=binary)
    got, got_max = read_pgm(path)
    assert got_max == maxval
    assert np.array_equal(got, raster)


def test_plain_pgm_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2\n# a comment\n3 2\n# another\n255\n1 2 3\n4 5 6\n")
    raster, maxval = read_pgm(path)
    assert maxval == 255
    assert raster.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_frame_roundtrip_is_close(tmp_path):
    rng = np.random.default_rng(1)
    frame = Frame(rng.random((6, 9)).astype(np.float32))
    path = tmp_path / "f.pgm"
    frame_to_pgm(path, frame, maxval=65535)
    got = frame_from_pgm(path)
    assert np.abs(got.luma - frame.luma).max() <= 0.5 / 65535 + 1e-6


def test_disparity_roundtrip_with_sidecar(tmp_path):
    d = np.array([[0, 3, 7], [INVALID_DISPARITY, 2, INVALID_DISPARITY]], np.int32)
    dmap = DisparityMap(d)
    path = tmp_path / "d.pgm"
    write_disparity(path, dmap, scale=256)
    assert sidecar_path(path).exists()
    got = read_disparity(path)
    assert np.array_equal(got.d, d)


def test_disparity_roundtrip_plain_8bit(tmp_path):
    d = np.array([[0, 1, 2], [5, 4, 3]], np.int32)
    path = tmp_path / "d8.pgm"
    write_disparity(path, DisparityMap(d), scale=1, invalid_raw=255, maxval=255, binary=False)
    got = read_disparity(path)
    assert np.array_equal(got.d, d)


def test_truncated_body_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_negative_plain_sample_rejected(tmp_path):
    # read as-is, -3 would be a disparity of -3 rather than the invalid sentinel
    path = tmp_path / "neg.pgm"
    path.write_text("P2\n2 1\n255\n4 -3\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: negative sample -3")):
        read_pgm(path)
    with pytest.raises(ValueError, match="negative sample"):
        read_disparity(path)


@pytest.mark.parametrize("text, token", [
    ("P2\nx 1\n255\n4\n", "x"),  # the width
    ("P2\n# c\n2 1 255\n4 1.5\n", "1.5"),  # a sample
    ("P2\n2 1\n255\n4 99999999999999999999\n", "99999999999999999999"),
])
def test_non_integer_token_rejected_naming_the_file(tmp_path, text, token):
    path = tmp_path / "tok.pgm"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: PGM token {token!r} is not")):
        read_pgm(path)


def test_non_pgm_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"hello")
    with pytest.raises(ValueError, match="not a PGM"):
        read_pgm(path)


@pytest.mark.parametrize("meta, match", [
    ({"format_version": 1, "scale": 0}, r"field 'scale' must be >= 1, got 0"),
    ({"format_version": 1, "scale": [1]}, r"field 'scale' must be a JSON integer"),
    ({"format_version": 1, "scale": 2.9}, r"field 'scale' must be a JSON integer"),
    ({"format_version": 1, "invalid": 65535.7}, r"field 'invalid' must be a JSON integer"),
    ({"format_version": 2, "scale": 1}, r"field 'format_version' must be 1, got 2"),
    ({"scale": 1}, r"missing field\(s\) \['format_version'\]"),
    ([1, 65535], r"top level must be a JSON object"),
])
def test_bad_sidecar_rejected_naming_the_field(tmp_path, meta, match):
    path = tmp_path / "d.pgm"
    write_disparity(path, DisparityMap(np.array([[0, 1], [2, INVALID_DISPARITY]], np.int32)))
    sidecar_path(path).write_text(json.dumps(meta))
    with pytest.raises(SpecValidationError, match=match):
        read_disparity(path)
