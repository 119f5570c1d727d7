import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from svopt.formats import SpecValidationError
from svopt import pgm
from svopt.ism import INVALID_DISPARITY, DisparityMap, Frame
from svopt.pgm import (
    frame_from_pgm,
    read_disparity,
    read_pgm,
    read_pgm_header,
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


@pytest.mark.parametrize("maxval, dtype", [(255, np.uint8), (65535, np.uint16)])
def test_frame_roundtrip_is_exact(tmp_path, maxval, dtype):
    rng = np.random.default_rng(1)
    frame = Frame(rng.integers(0, maxval + 1, (6, 9), dtype=dtype))
    path = tmp_path / "f.pgm"
    write_pgm(path, frame.luma, maxval)
    assert read_pgm(path)[1] == maxval
    # and the same samples from a plain P2 raster
    rows = "\n".join(" ".join(str(v) for v in row) for row in frame.luma.tolist())
    plain = tmp_path / "f2.pgm"
    plain.write_text(f"P2\n9 6\n{maxval}\n{rows}\n")
    for got in (frame_from_pgm(path), frame_from_pgm(plain)):
        assert got.luma.dtype == dtype
        assert np.array_equal(got.luma, frame.luma)


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


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [255, 65535])
def test_header_matches_the_raster(tmp_path, binary, maxval):
    raster = np.arange(35).reshape(7, 5) * (maxval // 34)
    path = tmp_path / "img.pgm"
    if binary:
        write_pgm(path, raster, maxval)
    else:
        path.write_text(f"P2\n# c\n5 7 {maxval}\n" + " ".join(map(str, raster.ravel())) + "\n")
    got, got_max = read_pgm(path)
    assert read_pgm_header(path) == (got.shape[1], got.shape[0], got_max) == (5, 7, maxval)


@pytest.mark.parametrize("head, match", [
    (b"XX 64 48 255\n", "not a PGM file"),
    (b"P5\n0 48\n255\n", "bad PGM geometry 0x48"),
    (b"P5\n6x4 48\n255\n", "PGM token '6x4' is not"),
], ids=["magic", "zero-width", "token"])
def test_malformed_header_rejected_without_reading_the_file(tmp_path, monkeypatch, head, match):
    # the header is scanned in a map of the file, so its read is never called
    path = tmp_path / "big.pgm"
    path.write_bytes(head + b"\0" * (1 << 20))
    reads = []
    real_open = open

    def counting_open(file, mode):
        f = real_open(file, mode)
        read = f.read
        f.read = lambda *n: reads.append(n) or read(*n)
        return f

    monkeypatch.setattr(pgm, "open", counting_open, raising=False)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {match}")):
        read_pgm_header(path)
    assert reads == []


def reference_header_tokens(raw: bytes) -> tuple[list[bytes], int]:
    """Up to three tokens after the magic, skipping # comments, one byte at a time.

    Also returns the offset just past the last token found; a `#` opens a
    comment only where a token would start, and runs to a newline.
    """
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos == len(raw):
            break
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    return tokens, pos


def test_header_pattern_matches_the_byte_loop():
    rng = np.random.default_rng(2)
    alphabet = [b"1", b"7", b"-", b"x", b"#", b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"\0"]
    for _ in range(3000):
        raw = b"P5" + b"".join(alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(0, 24)))
        tokens, pos = reference_header_tokens(raw)
        m = pgm._HEADER.match(raw)
        if len(tokens) < 3:
            assert m is None, raw
        else:
            assert (list(m.group(2, 3, 4)), m.end()) == (tokens, pos), raw


@pytest.mark.parametrize("head", [b"P5\n# " + b"c" * (16 << 20), b"P5\n" + b"1" * (16 << 20)],
                         ids=["comment-without-newline", "token-without-whitespace"])
def test_header_that_never_ends_is_truncated_at_once(tmp_path, head):
    # a Python loop over the header's bytes took about 8 s on these 16 MiB
    path = tmp_path / "endless.pgm"
    path.write_bytes(head)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"{path}: truncated PGM header")):
        read_pgm_header(path)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("head", [b"P5" + b" " * (1 << 20), b"P5\n" + b"#\n" * (1 << 19)],
                         ids=["whitespace", "comment-lines"])
def test_header_that_never_ends_is_scanned_in_constant_memory(tmp_path, head):
    # a backtracking repeat keeps about 150 bytes per whitespace byte or comment
    path = tmp_path / "endless.pgm"
    path.write_bytes(head)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated PGM header"):
            read_pgm_header(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("magic, match", [(b"P5", "truncated P5 body"),
                                          (b"P2", "expected 1 samples, got 0")])
def test_maxval_on_the_last_byte_is_a_header(tmp_path, magic, match):
    # the maxval ends at the end of the file: a whole header with no body
    path = tmp_path / "m.pgm"
    path.write_bytes(magic + b"\n1 1\n255")
    assert read_pgm_header(path) == (1, 1, 255)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {match}")):
        read_pgm(path)


def test_header_comment_of_1000_bytes_before_the_dimensions_reads(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# " + b"c" * 1000 + b"\n3 2\n255\n" + bytes(6))
    assert read_pgm_header(path) == (3, 2, 255)


@pytest.mark.parametrize("cut", [1, 3, 5])
def test_maxval_is_read_whole_where_a_prefix_would_parse(tmp_path, cut):
    # after a comment, byte 256 falls `cut` bytes into the maxval "65535": its prefixes
    # "6" and "655" are maxvals too, so a reader that stopped there would still parse
    head = b"P5\n3 2\n"
    pad = b"#" + b"c" * (256 - cut - len(head) - 2) + b"\n"
    path = tmp_path / "m.pgm"
    path.write_bytes(head + pad + b"65535\n" + bytes(12))
    assert len(head + pad) + cut == 256
    assert read_pgm_header(path) == (3, 2, 65535)


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
