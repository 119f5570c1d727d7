"""Stereo correspondence propagation across video frames.

Key frames carry an externally supplied disparity map (the expensive
matcher is a black box upstream of this package). For every other frame
the previous disparity is turned back into left/right pixel pairs, both
sides are displaced by dense per-pixel motion, and the resulting noisy
disparity guess is refined by 1-D block matching around the guess. All
disparities are whole pixels; x_right = x_left + d with d >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "INVALID_DISPARITY",
    "CameraRig",
    "CorrespondenceSet",
    "DisparityMap",
    "Frame",
    "MotionField",
    "estimate_motion",
    "gaussian_blur",
    "ism_run",
    "motion_pyramid",
    "nonkey_operation_count",
    "propagate",
    "reconstruct",
    "refine",
    "scatter_pairs",
    "three_pixel_error",
    "triangulate",
]

INVALID_DISPARITY = -1


@dataclass(frozen=True)
class CameraRig:
    """Stereo rig geometry used to turn disparities into metric depth."""

    baseline_m: float
    focal_length_m: float
    pixel_pitch_m: float

    def __post_init__(self) -> None:
        if min(self.baseline_m, self.focal_length_m, self.pixel_pitch_m) <= 0:
            raise ValueError("rig parameters must be positive")


@dataclass(frozen=True, eq=False)
class Frame:
    """Single grayscale image of a PGM's samples, shape (height, width).

    The samples are kept as given, uint8 or uint16; the int32 SADs of
    `estimate_motion` and `refine` hold those of 16-bit samples exactly.
    """

    luma: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.luma)
        if arr.dtype not in (np.uint8, np.uint16):
            raise ValueError(f"frame needs uint8 or uint16 samples, got {arr.dtype}")
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"frame needs a non-empty 2-d luma array, got shape {arr.shape}")
        object.__setattr__(self, "luma", arr)


def _whole_int32(name: str, values) -> np.ndarray:
    """`values` as int32, refusing any value the cast would change; int32 comes back as given."""
    arr = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range values fail the compare
        whole = arr.astype(np.int32, copy=False)
    if whole is not arr and not np.array_equal(whole, arr):
        raise ValueError(f"{name} must hold whole pixels in int32 range")
    return whole


@dataclass(frozen=True, eq=False)
class DisparityMap:
    """Per-pixel integer disparity; INVALID_DISPARITY marks holes.

    Whole values only; an int32 array is kept as given, not copied, as a Frame keeps its luma.
    """

    d: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.d)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"disparity map needs a non-empty 2-d array, got shape {arr.shape}")
        object.__setattr__(self, "d", _whole_int32("disparity", arr))

    def valid_mask(self) -> np.ndarray:
        """True where the disparity is non-negative and x + d stays in frame."""
        width = self.d.shape[1]
        return (self.d >= 0) & (self.d < width - np.arange(width, dtype=np.int32))


@dataclass(frozen=True, eq=False)
class MotionField:
    """Dense per-pixel displacement (dx, dy) in whole pixels, kept as int32."""

    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self) -> None:
        dx, dy = np.asarray(self.dx), np.asarray(self.dy)
        if dx.shape != dy.shape or dx.ndim != 2:
            raise ValueError("dx and dy must be equal-shape 2-d arrays")
        for name, arr in (("dx", dx), ("dy", dy)):
            object.__setattr__(self, name, _whole_int32(f"motion {name}", arr))


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Matched pixel pairs (left <x,y>, right <x,y>).

    Pairs reconstructed straight from a disparity map share their row
    (y_left == y_right); propagated pairs may not until refinement.
    """

    xl: np.ndarray
    yl: np.ndarray
    xr: np.ndarray
    yr: np.ndarray

    def __post_init__(self) -> None:
        names = ("xl", "yl", "xr", "yr")
        arrays = [_whole_int32(name, getattr(self, name)) for name in names]
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError("coordinate arrays must be equal-length 1-d")
        for name, arr in zip(names, arrays):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.xl.shape[0]


def triangulate(disparity_px: float, rig: CameraRig) -> float:
    """Metric depth of a point seen with the given pixel disparity."""
    if disparity_px <= 0:
        raise ValueError(f"disparity must be positive, got {disparity_px}")
    return (rig.baseline_m * rig.focal_length_m) / (disparity_px * rig.pixel_pitch_m)


def reconstruct(dmap: DisparityMap) -> CorrespondenceSet:
    """Pixel pairs (<x,y>, <x+d,y>) for every valid disparity entry, raster order."""
    h, w = dmap.d.shape
    valid = dmap.valid_mask()
    xs = np.broadcast_to(np.arange(w, dtype=np.int32), (h, w))[valid]
    ys = np.broadcast_to(np.arange(h, dtype=np.int32)[:, None], (h, w))[valid]
    return CorrespondenceSet(xs, ys, xs + dmap.d[valid], ys)


def _inside(xs: np.ndarray, ys: np.ndarray, height: int, width: int) -> np.ndarray:
    """True where the int32 pixel (x, y) lies in a height x width frame."""
    # a negative int32 reads as a large uint32, so one compare bounds each axis
    return (xs.view(np.uint32) < width) & (ys.view(np.uint32) < height)


# pairs that `propagate` moves at once, which bounds its temporaries
PAIR_CHUNK = 1 << 16


def propagate(
    cs: CorrespondenceSet, mf_left: MotionField, mf_right: MotionField
) -> CorrespondenceSet:
    """Displace each side of every pair by its own motion vector.

    Each side moves by the motion at its pixel; pairs that leave the frame
    on either side are dropped. Every pair must start inside the motion
    fields. Pairs are moved PAIR_CHUNK at a time into the kept pairs' arrays.
    """
    h, w = mf_left.dx.shape
    if mf_right.dx.shape != (h, w):
        raise ValueError("left and right motion fields must cover the same extent")
    outside = np.count_nonzero(~(_inside(cs.xl, cs.yl, h, w) & _inside(cs.xr, cs.yr, h, w)))
    if outside:
        raise ValueError(f"{outside} of {len(cs)} pairs start outside the {h}x{w} motion field")

    def _move(xs, ys, mf):
        at = ys * w
        at += xs
        nx = mf.dx.ravel().take(at)
        nx += xs
        ny = mf.dy.ravel().take(at)
        ny += ys
        return nx, ny, _inside(nx, ny, h, w)

    out = np.empty((4, len(cs)), np.int32)  # xl, yl, xr, yr of the kept pairs
    n = 0
    for i in range(0, len(cs), PAIR_CHUNK):
        part = slice(i, i + PAIR_CHUNK)
        xl, yl, in_l = _move(cs.xl[part], cs.yl[part], mf_left)
        xr, yr, in_r = _move(cs.xr[part], cs.yr[part], mf_right)
        keep = np.logical_and(in_l, in_r, out=in_l)
        kept = np.count_nonzero(keep)
        for row, moved in zip(out, (xl, yl, xr, yr)):
            np.compress(keep, moved, out=row[n : n + kept])
        n += kept
    return CorrespondenceSet(*out[:, :n])


def gaussian_blur(luma: np.ndarray, sigma: float, radius: int) -> np.ndarray:
    """Separable Gaussian smoothing of a 2-d integer array, edge-clamped; fixed-order, no BLAS.

    The 2*radius+1 taps are normalized to sum to one, so constant arrays
    pass through unchanged. Each axis is edge-padded in turn and its taps
    are multiplied and added left to right in float32, so the result is
    the same bit for bit on every CPU; it is rounded (halves to even) back
    to the array's dtype.
    """
    if luma.dtype.kind not in "iu":
        raise ValueError(f"blur needs integer samples, got {luma.dtype}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    taps = (taps / taps.sum()).astype(np.float32)
    out = luma.astype(np.float32)
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        windows = np.lib.stride_tricks.sliding_window_view(
            np.pad(out, pad, mode="edge"), 2 * radius + 1, axis=axis)
        out = windows[..., 0] * taps[0]
        term = np.empty_like(out)
        for i in range(1, 2 * radius + 1):
            out += np.multiply(windows[..., i], taps[i], out=term)
    return np.rint(out, out=out).astype(luma.dtype)


# every SAD, of the motion search and of the refinement, sums a BLOCK-square
# patch: the 5 entries a side that `_sum5` and `_box_cost` add
BLOCK = 5
# the pyramid block-matching motion estimator: pyramid levels, residual
# search radius, and the Gaussian blur of every level
MOTION_LEVELS = 3
MOTION_RADIUS = 2
BLUR_SIGMA = 1.0
BLUR_RADIUS = 2
# the refinement's search radius around the guess
REFINE_RADIUS = 2


def _sum5(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums of 5 consecutive entries along a's first axis, as (2 + 2) + 1.

    Adjacent entries are added once, then those pair sums two apart, then
    the fifth entry: three adds where a running sum takes four.
    """
    n = len(a) - 4
    pair = np.add(a[: n + 2], a[1 : n + 3])
    out = np.add(pair[:n], pair[2:], out=out)
    out += a[4:]
    return out


def _box_cost(padded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel SAD over 5-square patches of an edge-padded |diff|, into `out` if given.

    `padded` is C-contiguous, shape (..., h + 4, W), with a 2-entry border
    on its last two axes (the frame edge-clamped, as `np.pad(mode="edge")`
    makes it). Rows are summed, then columns along the flat buffer, so
    each add sweeps contiguous memory; both take `_sum5`'s three adds.
    The result drops the border. `out`, if given, is C-contiguous of
    shape (..., h, W): its entry [..., y, j] sums the patch over columns
    j..j+4, and its last 4 columns are junk, sums that straddle two rows
    or are never written.
    """
    rows = _sum5(padded.swapaxes(0, -2)).swapaxes(0, -2)
    out = np.empty(rows.shape, rows.dtype) if out is None else out
    _sum5(rows.ravel(), out.ravel()[:-4])
    return out[..., :-4]


# the residual (dy, dx) each pixel tries: zero first, so that exact ties resolve
# to "no residual motion", then by |dy| + |dx|, then by (dy, dx)
MOTION_OFFSETS = tuple(sorted(
    ((dy, dx) for dy in range(-MOTION_RADIUS, MOTION_RADIUS + 1)
     for dx in range(-MOTION_RADIUS, MOTION_RADIUS + 1)),
    key=lambda o: (abs(o[0]) + abs(o[1]), o)))
MOTION_BAND = 64


def motion_pyramid(frame: Frame) -> list[np.ndarray]:
    """The levels `estimate_motion` searches, finest first, in 1/16 of a grey level.

    The Gaussian-blurred 16x samples as int32, then each blurred half-size
    level while it stays two blocks wide, up to MOTION_LEVELS levels. The
    blur rounds each level to a whole sixteenth, not a whole grey level.
    """
    levels = [gaussian_blur(np.multiply(frame.luma, 16, dtype=np.int32), BLUR_SIGMA, BLUR_RADIUS)]
    while len(levels) < MOTION_LEVELS and min(levels[-1].shape) // 2 >= 2 * BLOCK:
        levels.append(gaussian_blur(levels[-1][::2, ::2], BLUR_SIGMA, BLUR_RADIUS))
    return levels


def estimate_motion(prev: list[np.ndarray], cur: list[np.ndarray]) -> MotionField:
    """Dense per-pixel motion between the frames of two `motion_pyramid`s.

    Coarse to fine: at each level the flow carried up from the coarser
    level (zero above the coarsest) warps `cur`, each pixel takes the
    residual offset in MOTION_OFFSETS whose BLOCK-square SAD between
    `prev` and the warped frame is least, the earliest of equal SADs, and
    the field is clamped to stay inside the frame. The flow is int32, in
    whole pixels. A frame's pyramid can serve as `cur` for one field and
    as `prev` for the next.

    Each level is warped and searched in bands of MOTION_BAND rows, each
    taking the coarser level's flow for its own rows and the
    MOTION_RADIUS + BLOCK // 2 rows its search reads beyond them; the
    bands' buffers stay in cache, and only each level's field is
    frame-sized. A band's rows are padded to one row stride, so that they
    lie end to end in flat buffers, one per dy, and each dx is a flat
    offset: the subtract sweeps one contiguous buffer. Its columns over
    `prev`'s zero border are junk, so the diff's border columns take its
    edge columns' values, as edge padding makes them, and `_box_cost`
    sums rows, then columns, into the band's reused cost buffer.

    Both frames are scaled once by 2**key_bits, key_bits being the bits of
    the last offset index k, so offset k's sum comes out as SAD << key_bits
    and adding k makes the key SAD << key_bits | k. One `np.minimum` per
    offset keeps the least key: the least SAD, then the earliest offset,
    whose k is the key's low bits. With 16-bit samples (16x in the pyramid) the
    largest key, BLOCK**2 * 16 * 65535 << key_bits plus k, is
    838.8 M < 2**31 at MOTION_RADIUS 2 (25 offsets, key_bits 5); radius 4
    (81 offsets, key_bits 7) would wrap the int32, and a test fails first.
    """
    if [p.shape for p in prev] != [c.shape for c in cur]:
        raise ValueError("pyramids must share their levels and extents")
    r, half = MOTION_RADIUS, BLOCK // 2
    border = max(r, half)
    key_bits = (len(MOTION_OFFSETS) - 1).bit_length()
    dys, dxs = (np.array(axis, np.int32) for axis in zip(*MOTION_OFFSETS))
    h, w = prev[-1].shape
    flow = np.zeros((2, (h + 1) // 2, (w + 1) // 2), np.int32)  # the (dx, dy) of the coarser level
    for p, c in zip(prev[::-1], cur[::-1]):
        h, w = p.shape
        xs = np.arange(w, dtype=np.int32)
        field = np.empty((2, h, w), np.int32)
        for y0 in range(0, h, MOTION_BAND):
            rows = min(MOTION_BAND, h - y0)
            lo, hi = max(y0 - r - half, 0), min(y0 + rows + r + half, h)
            ys = np.arange(lo, hi, dtype=np.int32)[:, None]
            # pixel (y, x) of rows lo..hi takes the coarse flow at (y // 2, x // 2), doubled,
            # and points at the in-frame pixel (ty, tx)
            up = (flow[:, lo // 2 : (hi + 1) // 2] * 2).repeat(2, axis=1)
            fx, fy = up[:, lo % 2 : lo % 2 + hi - lo].repeat(2, axis=2)[..., :w]
            tx = np.clip(xs + fx, 0, w - 1)
            ty = np.clip(ys + fy, 0, h - 1)
            # the warped rows edge-padded: a clamped (dy, dx) shift is a row pick and a flat offset
            src = np.pad(c.ravel().take(ty * w + tx), ((0, 0), (border, border)), mode="edge")
            src <<= key_bits
            # band rows plus a `half` halo, clamped: the edge padding of the diff image
            cy = np.clip(np.arange(y0 - half, y0 + rows + half), 0, h - 1)
            src_rows = {dy: src[np.clip(cy + dy, 0, h - 1) - lo].ravel() for dy in range(-r, r + 1)}
            p_rows = np.pad(p[cy], ((0, 0), (border, border))).ravel()
            p_rows <<= key_bits
            n = p_rows.size
            # the band's sweep buffers, which every offset reuses
            diff = np.zeros((len(cy), w + 2 * border), np.int32)
            inner = diff.ravel()[border : n - border]
            cost = np.empty((rows, w + 2 * border), np.int32)
            best = np.full_like(cost, np.iinfo(np.int32).max)
            for k, (dy, dx) in enumerate(MOTION_OFFSETS):
                np.subtract(p_rows[border : n - border],
                            src_rows[dy][border + dx : n - border + dx], out=inner)
                np.abs(inner, out=inner)
                diff[:, border - half : border] = diff[:, border : border + 1]
                diff[:, border + w : border + w + half] = diff[:, border + w - 1 : border + w]
                _box_cost(diff, cost)
                cost += k
                np.minimum(best, cost, out=best)
            best = best[:, border - half : border - half + w] & ((1 << key_bits) - 1)
            band = slice(y0 - lo, y0 - lo + rows)
            field[0, y0 : y0 + rows] = np.clip(tx[band] + dxs.take(best), 0, w - 1) - xs
            field[1, y0 : y0 + rows] = np.clip(ty[band] + dys.take(best), 0, h - 1) - ys[band]
        flow = field
    return MotionField(*flow)


REFINE_TILE = 64
# candidates whose box sums run at once, which bounds a tile's temporaries
REFINE_CHUNK = 32


def refine(left: Frame, right: Frame, init: DisparityMap) -> DisparityMap:
    """Block-matching disparity search around a per-pixel initial guess.

    For each left-image pixel the BLOCK-square SAD is evaluated
    at horizontal offsets init +- REFINE_RADIUS (clipped to keep x+d in
    frame) and the minimizing offset wins; ties go to the offset nearest
    the guess, then to the smaller offset. Pixels whose guess is invalid
    or out of reach fall back to a zero guess with a doubled radius.
    Patches are edge-clamped at the borders.

    The frame is searched in REFINE_TILE-square tiles. A tile scores only
    the distinct offsets that one of its pixels may take, so the work per
    pixel is the number of distinct candidates in its tile
    (2*REFINE_RADIUS+1 on a smooth guess map), not the largest disparity
    in the frame. Each pixel takes the offset in its own [lo, hi], which
    holds the guess or 0, with the least int32 key SAD << rank_bits | rank,
    where the rank orders the offsets by their distance from the guess,
    the one below first: the choice of trying the offsets in increasing
    order and keeping a strictly smaller SAD, or an equal SAD nearer the
    guess. The exact SAD of 16-bit samples leaves int32 room for the rank.
    """
    if left.luma.shape != right.luma.shape or left.luma.shape != init.d.shape:
        raise ValueError("left, right, and init must share their extents")
    h, w = left.luma.shape
    half = BLOCK // 2
    usable = init.valid_mask()
    guess = np.where(usable, init.d, np.int32(0))
    reach = np.where(usable, np.int32(REFINE_RADIUS), np.int32(2 * REFINE_RADIUS))
    lo = np.maximum(guess - reach, 0)
    hi = np.minimum(guess + reach, w - 1 - np.arange(w, dtype=np.int32))  # x + d stays in frame
    # hold the largest rank |4(d - g) + 1| below, 8 * REFINE_RADIUS + 1 at the doubled reach
    rank_bits = (8 * REFINE_RADIUS + 1).bit_length()
    best_d = np.zeros((h, w), np.int32)
    for y0 in range(0, h, REFINE_TILE):
        ty = slice(y0, min(y0 + REFINE_TILE, h))
        # tile rows plus a `half` halo, clamped: the edge padding of the diff image
        cy = np.clip(np.arange(y0 - half, ty.stop + half), 0, h - 1)
        right_rows = right.luma[cy]
        for x0 in range(0, w, REFINE_TILE):
            tx = slice(x0, min(x0 + REFINE_TILE, w))
            cx = np.clip(np.arange(x0 - half, tx.stop + half), 0, w - 1)
            t_lo, t_hi, t_guess = lo[ty, tx], hi[ty, tx], guess[ty, tx]
            # d is a candidate where some pixel's [lo, hi] is open over it
            open_ = np.cumsum(
                np.bincount(t_lo.ravel(), minlength=w + 1)
                - np.bincount(t_hi.ravel() + 1, minlength=w + 1)
            )
            cands = np.flatnonzero(open_ > 0).astype(np.int32)
            left_crop = left.luma[cy[:, None], cx]
            costs = np.empty(cands.shape + t_guess.shape, np.int32)
            for k0 in range(0, cands.size, REFINE_CHUNK):
                ds = cands[k0 : k0 + REFINE_CHUNK, None]
                right_crop = right_rows[:, np.clip(cx + ds, 0, w - 1)].swapaxes(0, 1)
                diff = np.subtract(left_crop, right_crop, dtype=np.int32)
                costs[k0 : k0 + ds.size] = _box_cost(np.abs(diff, out=diff))
            ds = cands[:, None, None]
            # rank |4(d - g) + 1| orders g, g - 1, g + 1, g - 2, ...
            rank = np.subtract(4 * ds, 4 * t_guess - 1)
            np.abs(rank, out=rank)
            # the least key SAD << rank_bits | rank has the least SAD, then the least rank
            costs <<= rank_bits
            costs += rank
            mask = ds < t_lo
            mask |= ds > t_hi
            np.copyto(costs, np.iinfo(np.int32).max, where=mask)
            rank = costs.min(axis=0) & ((1 << rank_bits) - 1)
            step = (rank + 1) >> 2
            best_d[ty, tx] = np.where(rank & 2, t_guess - step, t_guess + step)
    return DisparityMap(best_d)


def scatter_pairs(cs: CorrespondenceSet, height: int, width: int) -> DisparityMap:
    """Disparity guesses from propagated pairs; holes stay invalid (`ism_run` fills them).

    When several pairs land on one left pixel the largest disparity
    (nearest surface) wins; negative horizontal offsets are treated as
    holes. Every left pixel must lie in the frame.
    """
    if not _inside(cs.xl, cs.yl, height, width).all():
        raise ValueError(f"pairs must start inside the {height}x{width} frame")
    d = np.full(height * width, INVALID_DISPARITY, dtype=np.int32)
    # a negative offset never beats the INVALID_DISPARITY (-1) it lands on
    np.maximum.at(d, cs.yl * width + cs.xl, cs.xr - cs.xl)
    return DisparityMap(d.reshape(height, width))


def ism_run(frames: Iterable[tuple[Frame, Frame, DisparityMap | None]],
            emit: Callable[[DisparityMap], object]) -> None:
    """Disparity for every frame of a stereo sequence, handed to `emit` in frame order.

    Each item of `frames` is (left, right, key). A frame whose key is a
    DisparityMap is a key frame and emits that map unchanged; frame 0 must
    be one. Every frame whose key is None chains forward from the previous
    emitted map: reconstruct pairs, displace both sides by dense motion,
    scatter the pairs into a guess map, fill each hole of the guess from the
    previous map at the same pixel (where that is invalid too, `refine`
    falls back to its zero guess), and refine with block matching. Each view
    of a frame gets one motion pyramid, which the next frame reuses as its
    previous one; a key frame's is built only when the frame after needs it.

    `frames` is consumed one frame at a time. Each map goes to `emit` as
    soon as it is made, before the next frame is taken, and only the
    previous frame's views, pyramids and map are kept, so memory does not
    grow with the sequence.
    """
    views = pyramids = dmap = None  # the previous frame's
    for t, (left, right, key) in enumerate(frames):
        if key is not None:
            if key.d.shape != left.luma.shape:
                raise ValueError(f"key disparity for frame {t} does not match the frame")
            dmap, pyramids = key, None
        elif dmap is None:
            raise ValueError("frame 0 needs a key disparity")
        else:
            if pyramids is None:
                pyramids = [motion_pyramid(view) for view in views]
            cur = [motion_pyramid(view) for view in (left, right)]
            fields = [estimate_motion(p, c) for p, c in zip(pyramids, cur)]
            pyramids = cur
            guess = scatter_pairs(propagate(reconstruct(dmap), *fields), *left.luma.shape)
            del fields  # refine runs with no motion field, pair or old pyramid alive
            np.copyto(guess.d, dmap.d, where=guess.d < 0)  # a hole keeps the last map's value
            dmap = refine(left, right, guess)
        emit(dmap)
        # a key frame's views wait for the frame after it to build their pyramids
        views = (left, right) if pyramids is None else None


def three_pixel_error(pred: DisparityMap, gt: DisparityMap) -> float:
    """Percent of valid ground-truth pixels predicted within 3 px (strict).

    Invalid predictions count as wrong. Returns 100.0 when the ground
    truth has no valid pixel at all.
    """
    if pred.d.shape != gt.d.shape:
        raise ValueError("prediction and ground truth must share their extents")
    mask = gt.valid_mask()
    total = int(mask.sum())
    if total == 0:
        return 100.0
    good = mask & (pred.d >= 0) & (np.abs(pred.d - gt.d) < 3)
    return 100.0 * int(good.sum()) / total


def nonkey_operation_count(width: int, height: int) -> int:
    """Analytic arithmetic-operation count of one non-key frame.

    Counts the blur of the frame's two motion pyramids (one per view,
    reused by the next frame), the two dense motion estimations (warp and
    residual SAD search), the pair bookkeeping, and the block-matching
    refinement. SAD costs are charged at 7 ops per pixel per candidate
    (difference, absolute value, two incremental box-sum updates, compare
    and select), the cost of a running-sum box filter. The code spends
    more per candidate: its box sums take three adds per axis, (2 + 2)
    + 1, and the motion search keeps its best with an add and a minimum.

    Refinement is charged 2 * REFINE_RADIUS + 1 candidates per pixel, the
    search window of a usable guess. `refine` scores the distinct
    candidates of each pixel's tile, which is at least that many and more
    where guesses vary inside a tile or fall back to the zero guess.
    """
    level_px = []
    px = width * height
    for _ in range(MOTION_LEVELS):
        level_px.append(px)
        px //= 4
    blur_taps = 2 * BLUR_RADIUS + 1
    search = (2 * MOTION_RADIUS + 1) ** 2
    per_field = 0
    for px in level_px:
        per_field += px * (2 * blur_taps * 2)  # two separable blur passes, one view
        per_field += px * 2  # warp by the carried flow
        per_field += px * search * 7  # residual SAD search
    refine_ops = width * height * (2 * REFINE_RADIUS + 1) * 7
    bookkeeping = width * height * 8  # reconstruct, displace, scatter
    return 2 * per_field + refine_ops + bookkeeping
