"""PGM image I/O plus disparity sidecars.

Plain P2 and binary P5 rasters, 8- or 16-bit, are read; binary P5 is
written. 16-bit binary samples are big-endian. A disparity raster has a
JSON sidecar next to it recording an integer scale and the raw value
that marks invalid pixels; written maps use scale 1 and the 16-bit
maxval, 65535, as that value.
"""

from __future__ import annotations

import mmap
import os
import re
from pathlib import Path

import numpy as np

from .formats import SpecValidationError, _load_json, _record, _save_json
from .ism import INVALID_DISPARITY, DisparityMap, Frame

__all__ = [
    "frame_from_pgm",
    "read_disparity",
    "read_pgm",
    "read_pgm_header",
    "read_sidecar",
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


# The magic, then width, height and maxval, each after any whitespace and
# `#` comments that run to a newline (Netpbm's grammar), so `#` opens a
# comment only where a token would start, and a comment with no newline
# leaves the header truncated. Every quantifier is possessive: nothing it
# takes is given back, so a header that never ends fails in one pass, in
# constant memory, and no token splits in two.
_HEADER = re.compile(rb"(P[25])" + rb"(?:\s++|#[^\n]*+\n)*+([^\s#]\S*+)" * 3)


def _header(path, raw: bytes | mmap.mmap) -> tuple[bytes, int, int, int, int]:
    """Magic, width, height, maxval, and the offset of the whitespace after maxval."""
    if raw[:2] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {raw[:2]!r})")
    m = _HEADER.match(raw)
    if m is None:
        raise ValueError(f"{path}: truncated PGM header")
    width, height, maxval = _integers(path, list(m.group(2, 3, 4))).tolist()
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad PGM geometry {width}x{height} maxval {maxval}")
    return m[1], width, height, maxval, m.end()


def read_pgm_header(path) -> tuple[int, int, int]:
    """(width, height, maxval) of a P2 or P5 PGM, read without its samples.

    The header pattern scans a read-only map of the file, so only the
    pages it reaches are read: a valid header never reads the samples,
    and a header that never ends is a truncated header.
    """
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:  # an empty file cannot be mapped
            return _header(path, b"")[1:4]
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as raw:
            return _header(path, raw)[1:4]


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a P2 or P5 PGM; returns (raster of shape (h, w), maxval).

    P2 samples come back as int64, P5 samples at their stored width: a
    read-only array of uint8, or of big-endian uint16 when maxval > 255.
    """
    raw = Path(path).read_bytes()
    magic, width, height, maxval, pos = _header(path, raw)
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
        if len(raw) - pos < count * dtype.itemsize:
            raise ValueError(f"{path}: truncated P5 body")
        values = np.frombuffer(raw, dtype, count, pos)
    if values.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample exceeds declared maxval {maxval}")
    return values.reshape(height, width), maxval


def write_pgm(path, raster: np.ndarray, maxval: int) -> None:
    """Write a (h, w) integer raster as a binary P5 PGM; maxval is an int in 1..65535."""
    raster = np.asarray(raster)
    if raster.ndim != 2 or raster.dtype.kind not in "iu":
        raise ValueError(f"raster must be a 2-d integer array, got {raster.ndim}-d {raster.dtype}")
    if type(maxval) is not int or not 0 < maxval < 65536:
        raise ValueError(f"maxval must be an int in 1..65535, got {maxval!r}")
    if raster.min(initial=0) < 0 or raster.max(initial=0) > maxval:
        raise ValueError(f"raster values must lie in [0, {maxval}]")
    height, width = raster.shape
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        f.write(np.ascontiguousarray(raster.astype(dtype, copy=False)))


def frame_from_pgm(path) -> Frame:
    """Load a PGM as a frame of its samples: uint8, or uint16 when maxval > 255."""
    raster, maxval = read_pgm(path)
    return Frame(raster.astype(np.uint16 if maxval > 255 else np.uint8, copy=False))


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
    d = dmap.d
    # an invalid pixel is negative, so the largest value is the largest valid d
    top = d.max(initial=0)
    if top > _SENTINEL:
        raise ValueError(f"disparity exceeds maxval {_SENTINEL}")
    if top == _SENTINEL:
        raise ValueError(f"disparity {_SENTINEL} is the invalid sentinel, "
                         f"so it would read back invalid")
    raw = d.astype(">u2")
    raw[d < 0] = _SENTINEL
    write_pgm(path, raw, _SENTINEL)
    _save_json(sidecar_path(path), _SIDECAR_FIELDS, 1, _SENTINEL)


def read_sidecar(path) -> tuple[int, int | None]:
    """The (scale, invalid raw value) of a disparity raster's sidecar.

    The sidecar, if present, is a format-version-1 JSON object whose
    optional `scale` is an integer >= 1 and `invalid` an integer; anything
    else raises SpecValidationError naming the file and the field. A
    raster without a sidecar reads as (1, None).
    """
    side = sidecar_path(path)
    # a raster without a sidecar reads as one whose sidecar leaves out every field
    meta = _load_json(side, _SIDECAR_FIELDS) if side.exists() else _record("", {}, _SIDECAR_FIELDS)
    if meta["scale"] < 1:
        raise SpecValidationError(f"{side}: field 'scale' must be >= 1, got {meta['scale']}")
    return meta["scale"], meta["invalid"]


def read_disparity(path) -> DisparityMap:
    """Load a disparity raster, applying its sidecar's scale and sentinel (`read_sidecar`)."""
    raster, _ = read_pgm(path)
    scale, invalid_raw = read_sidecar(path)
    invalid = None if invalid_raw is None else raster == invalid_raw
    d = raster
    if scale != 1:
        d = raster.astype(np.int64)  # a scale may not fit the stored sample width
        valid = d if invalid is None else d[~invalid]
        if (valid % scale).any():
            raise ValueError(f"{path}: raster values are not multiples of scale {scale}")
        d //= scale
    if invalid is not None:
        d = np.where(invalid, np.int32(INVALID_DISPARITY), d)
    return DisparityMap(d)
