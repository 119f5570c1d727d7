"""PGM image I/O plus disparity sidecars.

Plain P2 and binary P5 rasters, 8- or 16-bit, are read; binary P5 is
written. 16-bit binary samples are big-endian. A disparity raster has a
JSON sidecar next to it recording an integer scale and the raw value
that marks invalid pixels; written maps use scale 1 and the 16-bit
maxval, 65535, as that value.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .formats import SpecValidationError, _load_json, _record, _save_json
from .ism import INVALID_DISPARITY, DisparityMap, Frame

__all__ = [
    "frame_from_pgm",
    "frame_to_pgm",
    "read_disparity",
    "read_pgm",
    "sidecar_path",
    "write_disparity",
    "write_pgm",
]


def _integers(path, tokens: list[bytes]) -> np.ndarray:
    """PGM tokens as int64 values; a ValueError names the file and the bad token.

    A token is ASCII digits with an optional leading '-': the '+' signs and
    '_' separators that Python's int() also takes are rejected.
    """
    bad = next((t for t in tokens if not t.removeprefix(b"-").isdigit()), None)
    if bad is None:
        try:
            return np.array(tokens, dtype=np.int64)
        except OverflowError:
            bad = next(t for t in tokens if abs(int(t)) >= 2**63)
    raise ValueError(f"{path}: PGM token {bad.decode('latin-1')!r} is not a 64-bit integer")


def _read_tokens(path, raw: bytes, count: int) -> tuple[list[int], int]:
    """First `count` whitespace-separated integer tokens, skipping # comments."""
    tokens: list[bytes] = []
    pos = 0
    length = len(raw)
    while len(tokens) < count:
        while pos < length and raw[pos : pos + 1].isspace():
            pos += 1
        if pos >= length:
            raise ValueError(f"{path}: truncated PGM header")
        if raw[pos : pos + 1] == b"#":
            while pos < length and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < length and not raw[pos : pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    return _integers(path, tokens).tolist(), pos


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a P2 or P5 PGM; returns (raster of shape (h, w), maxval)."""
    raw = Path(path).read_bytes()
    if raw[:2] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {raw[:2]!r})")
    magic = raw[:2]
    (width, height, maxval), pos = _read_tokens(path, raw[2:], 3)
    pos += 2
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad PGM geometry {width}x{height} maxval {maxval}")
    count = width * height
    if magic == b"P2":
        values = _integers(path, raw[pos:].split()[:count])
        if values.size != count:
            raise ValueError(f"{path}: expected {count} samples, got {values.size}")
        if values.min() < 0:
            raise ValueError(f"{path}: negative sample {values.min()}")
    else:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        body = raw[pos : pos + count * dtype.itemsize]
        if len(body) != count * dtype.itemsize:
            raise ValueError(f"{path}: truncated P5 body")
        values = np.frombuffer(body, dtype=dtype).astype(np.int64)
    if values.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample exceeds declared maxval {maxval}")
    return values.reshape(height, width), maxval


def write_pgm(path, raster: np.ndarray, maxval: int) -> None:
    """Write a (h, w) integer raster as a binary P5 PGM."""
    raster = np.asarray(raster)
    if raster.ndim != 2:
        raise ValueError("raster must be 2-d")
    if raster.min(initial=0) < 0 or raster.max(initial=0) > maxval:
        raise ValueError(f"raster values must lie in [0, {maxval}]")
    height, width = raster.shape
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + raster.astype(dtype).tobytes())


def frame_from_pgm(path) -> Frame:
    """Load a PGM as a luma frame normalized to [0, 1]."""
    raster, maxval = read_pgm(path)
    return Frame(raster.astype(np.float32) / np.float32(maxval))


def frame_to_pgm(path, frame: Frame, maxval: int = 255) -> None:
    raster = np.rint(np.clip(frame.luma, 0.0, 1.0) * maxval).astype(np.int64)
    write_pgm(path, raster, maxval)


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


_SIDECAR_FIELDS = {"scale": (int, 1), "invalid": (int, None)}
_SENTINEL = 65535  # what write_disparity stores for invalid pixels: the 16-bit maxval


def write_disparity(path, dmap: DisparityMap) -> None:
    """Store a disparity map as a 16-bit PGM plus a JSON sidecar.

    Valid pixels store d, invalid pixels the maxval 65535, and the sidecar
    records scale 1 and that sentinel so the raster re-ingests losslessly:
    a ValueError is raised, before anything is written, if a valid d does
    not lie below the sentinel.
    """
    raw = dmap.d.astype(np.int64)
    invalid = dmap.d < 0
    if raw[~invalid].max(initial=0) > _SENTINEL:
        raise ValueError(f"disparity exceeds maxval {_SENTINEL}")
    if (raw[~invalid] == _SENTINEL).any():
        raise ValueError(f"disparity {_SENTINEL} is the invalid sentinel, "
                         f"so it would read back invalid")
    raw[invalid] = _SENTINEL
    write_pgm(path, raw, _SENTINEL)
    _save_json(sidecar_path(path), _SIDECAR_FIELDS, 1, _SENTINEL)


def read_disparity(path) -> DisparityMap:
    """Load a disparity raster, applying its sidecar's scale and sentinel.

    The sidecar, if present, is a format-version-1 JSON object whose
    optional `scale` is an integer >= 1 and `invalid` an integer; anything
    else raises SpecValidationError naming the file and the field.
    """
    raster, _ = read_pgm(path)
    side = sidecar_path(path)
    # a raster without a sidecar reads as one whose sidecar leaves out every field
    meta = _load_json(side, _SIDECAR_FIELDS) if side.exists() else _record("", {}, _SIDECAR_FIELDS)
    scale, invalid_raw = meta["scale"], meta["invalid"]
    if scale < 1:
        raise SpecValidationError(f"{side}: field 'scale' must be >= 1, got {scale}")
    d = raster.copy()
    invalid = np.zeros(d.shape, dtype=bool)
    if invalid_raw is not None:
        invalid = d == invalid_raw
    if scale != 1:
        remainder = d[~invalid] % scale
        if remainder.any():
            raise ValueError(f"{path}: raster values are not multiples of scale {scale}")
        d = d // scale
    d[invalid] = INVALID_DISPARITY
    return DisparityMap(d)
