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
    # write_pgm writes P5 only; a plain P2 raster comes from elsewhere, so its
    # text is written here
    rng = np.random.default_rng(0)
    raster = rng.integers(0, maxval + 1, (7, 5)).astype(np.int64)
    path = tmp_path / "img.pgm"
    if binary:
        write_pgm(path, raster, maxval)
    else:
        rows = "\n".join(" ".join(str(v) for v in row) for row in raster.tolist())
        path.write_text(f"P2\n5 7\n{maxval}\n{rows}\n")
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
    path = tmp_path / "d.pgm"
    write_disparity(path, DisparityMap(d))
    assert read_pgm(path)[1] == 65535
    meta = json.loads(sidecar_path(path).read_text())
    assert meta == {"format_version": 1, "scale": 1, "invalid": 65535}
    assert np.array_equal(read_disparity(path).d, d)


def test_plain_8bit_scaled_disparity_reads_through_its_sidecar(tmp_path):
    path = tmp_path / "d8.pgm"
    path.write_text("P2\n3 2\n255\n0 2 4\n255 8 6\n")
    sidecar_path(path).write_text('{"format_version": 1, "scale": 2, "invalid": 255}')
    got = read_disparity(path)
    assert got.d.tolist() == [[0, 1, 2], [INVALID_DISPARITY, 4, 3]]


@pytest.mark.parametrize("d, match", [
    ([[65535, INVALID_DISPARITY, 3]], r"disparity 65535 is the invalid sentinel"),
    ([[65536, INVALID_DISPARITY, 3]], r"disparity exceeds maxval 65535"),
], ids=["on_the_sentinel", "above_maxval"])
def test_disparity_the_raster_cannot_hold_rejected(tmp_path, d, match):
    # written as-is, the valid disparity would read back as invalid or not fit
    path = tmp_path / "d.pgm"
    with pytest.raises(ValueError, match=match):
        write_disparity(path, DisparityMap(np.array(d, np.int32)))
    assert not path.exists() and not sidecar_path(path).exists()


@pytest.mark.parametrize("raster, maxval, match", [
    # 70000 would wrap to a 16-bit 4464 under a maxval read_pgm rejects
    ([[70000, 1]], 70000, r"maxval must be an int in 1\.\.65535, got 70000"),
    ([[0, 0]], 0, r"maxval must be an int in 1\.\.65535, got 0"),
    ([[1, 2]], 255.0, r"maxval must be an int in 1\.\.65535, got 255\.0"),
    # a float raster would be truncated to [[0, 1]]
    ([[0.7, 1.2]], 255, r"raster must be a 2-d integer array, got 2-d float64"),
    ([[True, False]], 255, r"raster must be a 2-d integer array, got 2-d bool"),
])
def test_raster_or_maxval_a_pgm_cannot_hold_rejected_before_writing(tmp_path, raster, maxval,
                                                                     match):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match=match):
        write_pgm(path, np.array(raster), maxval)
    assert not path.exists()


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
    ("P2\n2 1\n255\n+3 4\n", "+3"),  # int() takes a sign
    ("P2\n2 1\n255\n4 1_0\n", "1_0"),  # and digit separators
    ("P2\n2 1\n+9\n4 1\n", "+9"),  # the maxval
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
