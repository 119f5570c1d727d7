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
from typing import Mapping, Sequence

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
    """Single grayscale image, luma in [0, 1], shape (height, width)."""

    luma: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.luma, dtype=np.float32)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"frame needs a non-empty 2-d luma array, got shape {arr.shape}")
        object.__setattr__(self, "luma", arr)

    @property
    def width(self) -> int:
        return self.luma.shape[1]

    @property
    def height(self) -> int:
        return self.luma.shape[0]


@dataclass(frozen=True, eq=False)
class DisparityMap:
    """Per-pixel integer disparity; INVALID_DISPARITY marks holes."""

    d: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.d)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"disparity map needs a non-empty 2-d array, got shape {arr.shape}")
        object.__setattr__(self, "d", arr.astype(np.int32))

    @property
    def width(self) -> int:
        return self.d.shape[1]

    @property
    def height(self) -> int:
        return self.d.shape[0]

    def valid_mask(self) -> np.ndarray:
        """True where the disparity is non-negative and x + d stays in frame."""
        xs = np.arange(self.width, dtype=np.int32)
        return (self.d >= 0) & (self.d < self.width - xs)


@dataclass(frozen=True, eq=False)
class MotionField:
    """Dense per-pixel displacement (dx, dy) in pixels."""

    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self) -> None:
        dx = np.asarray(self.dx, dtype=np.float32)
        dy = np.asarray(self.dy, dtype=np.float32)
        if dx.shape != dy.shape or dx.ndim != 2:
            raise ValueError("dx and dy must be equal-shape 2-d arrays")
        if not (np.isfinite(dx).all() and np.isfinite(dy).all()):
            raise ValueError("motion components must be finite")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)


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
        arrays = [np.asarray(a, dtype=np.int32) for a in (self.xl, self.yl, self.xr, self.yr)]
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError("coordinate arrays must be equal-length 1-d")
        for name, arr in zip(("xl", "yl", "xr", "yr"), arrays):
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


def propagate(
    cs: CorrespondenceSet, mf_left: MotionField, mf_right: MotionField
) -> CorrespondenceSet:
    """Displace each side of every pair by its own motion vector.

    Each side moves by the motion at its pixel, rounded to the nearest
    whole pixel (halves to even); pairs that leave the frame on either
    side are dropped. Every pair must start inside the motion fields.
    """
    h, w = mf_left.dx.shape
    if mf_right.dx.shape != (h, w):
        raise ValueError("left and right motion fields must cover the same extent")
    outside = np.count_nonzero(~(_inside(cs.xl, cs.yl, h, w) & _inside(cs.xr, cs.yr, h, w)))
    if outside:
        raise ValueError(f"{outside} of {len(cs)} pairs start outside the {h}x{w} motion field")

    def _move(xs, ys, mf):
        at = ys * w + xs
        nx = xs + np.rint(mf.dx.ravel().take(at)).astype(np.int32)
        ny = ys + np.rint(mf.dy.ravel().take(at)).astype(np.int32)
        return nx, ny, _inside(nx, ny, h, w)

    xl, yl, in_l = _move(cs.xl, cs.yl, mf_left)
    xr, yr, in_r = _move(cs.xr, cs.yr, mf_right)
    keep = in_l & in_r
    return CorrespondenceSet(xl[keep], yl[keep], xr[keep], yr[keep])


def gaussian_blur(frame: Frame, sigma: float, radius: int) -> Frame:
    """Separable Gaussian smoothing with edge-clamped borders.

    The 2*radius+1 taps are normalized to sum to one, so constant frames
    pass through unchanged.
    """
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    taps = (taps / taps.sum()).astype(np.float32)
    out = frame.luma
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, 2 * radius + 1, axis=axis
        )
        out = np.tensordot(windows, taps, axes=([-1], [0])).astype(np.float32, copy=False)
    return Frame(out)


# the pyramid block-matching motion estimator: pyramid levels, SAD block
# side, residual search radius, and the Gaussian blur of every level
MOTION_LEVELS = 3
MOTION_BLOCK = 5
MOTION_RADIUS = 2
BLUR_SIGMA = 1.0
BLUR_RADIUS = 2
# the refinement: SAD block side and search radius around the guess
REFINE_BLOCK = 5
REFINE_RADIUS = 2


def _sum_terms(terms: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape arrays, added left to right.

    Below eight terms this is the order in which `np.add.reduce` adds a
    contiguous float axis; from eight on numpy sums pairwise. So every
    block side summed here must be below eight.
    """
    acc = terms[0] + terms[1]
    for t in terms[2:]:
        acc += t
    return acc


def _box_cost(padded: np.ndarray) -> np.ndarray:
    """Per-pixel SAD over REFINE_BLOCK-square patches of an edge-padded |diff|.

    `padded` carries a REFINE_BLOCK // 2 border on its last two axes (the
    frame edge-clamped, as `np.pad(mode="edge")` makes it); the result
    drops it. The float32 adds run in a fixed order: REFINE_BLOCK rows are
    summed top to bottom, then that many column sums left to right. That
    is the order of a sliding-window `sum` along axis 0 and then axis 1,
    so every SAD is the same bit for bit and exact ties between candidates
    fall where they always did. A cumulative-sum box filter would round
    differently and move the ties.
    """
    h = padded.shape[-2] - REFINE_BLOCK + 1
    w = padded.shape[-1] - REFINE_BLOCK + 1
    rows = padded[..., 0:h, :] + padded[..., 1 : 1 + h, :]
    for i in range(2, REFINE_BLOCK):
        rows += padded[..., i : i + h, :]
    return _sum_terms([rows[..., j : j + w] for j in range(REFINE_BLOCK)])


def _offsets(radius: int) -> list[tuple[int, int]]:
    # zero displacement first so exact ties resolve to "no residual motion"
    offs = [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    ]
    offs.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o))
    return offs


MOTION_BAND = 64


def _search_offsets(p: np.ndarray, warped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel residual (dy, dx) whose block SAD between p and warped is least.

    Offsets are tried in `_offsets` order and only a strictly smaller SAD
    replaces the best so far, so ties keep the earlier offset. The frame
    is searched in bands of MOTION_BAND rows, whose buffers stay in cache.

    Both frames are padded to one row stride, so that a band's rows lie
    end to end in flat buffers, one per dy, and each dx is a flat offset:
    the subtract, the box sums and the running best each sweep one
    contiguous buffer. Sums over p's NaN border columns are junk, but the
    edge padding of the diff takes its edge columns' sums, and the best
    offset is cropped to the frame once per band.
    """
    h, w = p.shape
    r, half = MOTION_RADIUS, MOTION_BLOCK // 2
    border = max(r, half)
    stride = w + 2 * border
    offsets = _offsets(r)
    # with `warped` edge-padded by the search radius every clamped shift is a flat offset
    src = np.pad(warped, ((r, r), (border, border)), mode="edge")
    best = np.empty((h, w), np.min_scalar_type(len(offsets)))
    for y0 in range(0, h, MOTION_BAND):
        rows = min(MOTION_BAND, h - y0)
        # band rows plus a `half` halo, clamped: the edge padding of the diff image
        cy = np.clip(np.arange(y0 - half, y0 + rows + half), 0, h - 1)
        # NaN, unlike an edge value, takes part in no arithmetic that warns
        p_rows = np.pad(p[cy], ((0, 0), (border, border)), constant_values=np.nan).ravel()
        src_rows = {dy: src[r + dy + cy].ravel() for dy in range(-r, r + 1)}
        n, m = p_rows.size, rows * stride
        diff = np.zeros(n, np.float32)
        # the flat index in `cost` of the band's pixel (y, x)
        crop = np.arange(0, m, stride)[:, None] + np.arange(border - half, border - half + w)
        for k, (dy, dx) in enumerate(offsets):
            np.subtract(p_rows[border : n - border],
                        src_rows[dy][border + dx : n - border + dx], out=diff[border : n - border])
            np.abs(diff, out=diff)
            # MOTION_BLOCK rows top to bottom, then the column sums: `_box_cost`'s order
            cols = diff[0:m] + diff[stride : stride + m]
            for i in range(2, MOTION_BLOCK):
                cols += diff[i * stride : i * stride + m]
            # a border column of the edge-padded diff sums to its edge column's sum
            grid = cols.reshape(rows, stride)
            grid[:, border - half : border] = grid[:, border : border + 1]
            grid[:, border + w : border + w + half] = grid[:, border + w - 1 : border + w]
            cost = _sum_terms([cols[j : m - 2 * half + j] for j in range(MOTION_BLOCK)])
            if k == 0:
                # nothing is below a NaN, so such a pixel keeps the first offset:
                # -inf stands in for it, which nothing is below either
                best_cost = np.where(np.isnan(cost), -np.inf, cost).astype(np.float32)
                best_k = np.zeros(cost.shape, best.dtype)
                continue
            # k only grows, so "k where the SAD is less" is the larger of the two
            np.maximum(best_k, (cost < best_cost) * best.dtype.type(k), out=best_k)
            # the same as taking cost where it is less: an equal SAD has equal bits
            # (none is -0.0), and fmin keeps best_cost against a NaN cost
            np.fmin(best_cost, cost, out=best_cost)
        best[y0 : y0 + rows] = best_k[crop]
    table = np.array(offsets, np.int32)
    return table[best, 0], table[best, 1]


def motion_pyramid(frame: Frame) -> list[np.ndarray]:
    """The levels `estimate_motion` searches, finest first.

    The Gaussian-blurred luma, then each blurred half-size level while it
    stays two blocks wide, up to MOTION_LEVELS levels.
    """
    levels = [gaussian_blur(frame, BLUR_SIGMA, BLUR_RADIUS).luma]
    while len(levels) < MOTION_LEVELS and min(levels[-1].shape) // 2 >= 2 * MOTION_BLOCK:
        levels.append(gaussian_blur(Frame(levels[-1][::2, ::2]), BLUR_SIGMA, BLUR_RADIUS).luma)
    return levels


def estimate_motion(prev: list[np.ndarray], cur: list[np.ndarray]) -> MotionField:
    """Dense per-pixel motion between the frames of two `motion_pyramid`s.

    Coarse to fine: at each level the flow carried up from the coarser
    level warps `cur`, a block-SAD search over a small residual window
    updates every pixel, and the field is clamped to stay inside the
    frame. Integer flow. A frame's pyramid can serve as `cur` for one
    field and as `prev` for the next.
    """
    if [p.shape for p in prev] != [c.shape for c in cur]:
        raise ValueError("pyramids must share their levels and extents")
    fx = fy = np.zeros(prev[-1].shape, np.int32)
    for p, c in zip(prev[::-1], cur[::-1]):
        h, w = p.shape
        if fx.shape != (h, w):
            fx = np.repeat(np.repeat(fx * 2, 2, axis=0), 2, axis=1)[:h, :w]
            fy = np.repeat(np.repeat(fy * 2, 2, axis=0), 2, axis=1)[:h, :w]
        # the flow is carried as the in-frame pixel it points at
        xs = np.arange(w, dtype=np.int32)
        ys = np.arange(h, dtype=np.int32)[:, None]
        tx = np.clip(xs + fx, 0, w - 1)
        ty = np.clip(ys + fy, 0, h - 1)
        dy, dx = _search_offsets(p, c.ravel().take(ty * w + tx))
        tx += dx
        ty += dy
        fx = np.clip(tx, 0, w - 1, out=tx) - xs
        fy = np.clip(ty, 0, h - 1, out=ty) - ys
    return MotionField(fx.astype(np.float32), fy.astype(np.float32))


REFINE_TILE = 64
# candidates whose box sums run at once, which bounds a tile's temporaries
REFINE_CHUNK = 32


def refine(left: Frame, right: Frame, init: DisparityMap) -> DisparityMap:
    """Block-matching disparity search around a per-pixel initial guess.

    For each left-image pixel the REFINE_BLOCK-square SAD is evaluated
    at horizontal offsets init +- REFINE_RADIUS (clipped to keep x+d in
    frame) and the minimizing offset wins; ties go to the offset nearest
    the guess, then to the smaller offset. Pixels whose guess is invalid
    or out of reach fall back to a zero guess with a doubled radius.
    Patches are edge-clamped at the borders.

    The frame is searched in REFINE_TILE-square tiles. A tile scores only
    the distinct offsets that one of its pixels may take, so the work per
    pixel is the number of distinct candidates in its tile
    (2*REFINE_RADIUS+1 on a smooth guess map), not the largest disparity
    in the frame. A first pass takes each pixel's least float32 SAD over
    its own [lo, hi] (an offset outside it scores NaN, which `np.fmin`
    passes over), a second the offset with that SAD nearest the guess, or
    below it on a tie: the choice of trying the offsets in increasing
    order and keeping a strictly smaller SAD, or an equal SAD nearer the
    guess.
    """
    if left.luma.shape != right.luma.shape or left.luma.shape != init.d.shape:
        raise ValueError("left, right, and init must share their extents")
    h, w = left.luma.shape
    half = REFINE_BLOCK // 2
    xs = np.arange(w)[None, :]
    max_d = w - 1 - xs
    usable = init.valid_mask()
    guess = np.where(usable, init.d, 0).astype(np.int32)
    reach = np.where(usable, REFINE_RADIUS, 2 * REFINE_RADIUS).astype(np.int32)
    lo = np.maximum(guess - reach, 0)
    hi = np.minimum(guess + reach, max_d)
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
            costs = np.empty(cands.shape + t_guess.shape, np.float32)
            for k0 in range(0, cands.size, REFINE_CHUNK):
                ds = cands[k0 : k0 + REFINE_CHUNK, None]
                right_crop = right_rows[:, np.clip(cx + ds, 0, w - 1)].swapaxes(0, 1)
                costs[k0 : k0 + ds.size] = _box_cost(np.abs(left_crop - right_crop))
            ds = cands[:, None, None]
            costs[(ds < t_lo) | (ds > t_hi)] = np.nan
            least = np.fmin.reduce(costs, axis=0)
            # rank |4(d - g) + 1| orders g, g - 1, g + 1, g - 2, ...; 2**30 added where
            # the SAD is above the least keeps the least rank among the least SADs
            rank = np.abs(4 * ds - (4 * t_guess - 1))
            rank = (rank + (costs != least) * np.int32(1 << 30)).min(axis=0)
            step = (rank + 1) >> 2
            best_d[ty, tx] = np.where(
                np.isnan(least), 0, np.where(rank & 2, t_guess - step, t_guess + step))
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


def ism_run(frames: Sequence[tuple[Frame, Frame]], key_disp: Mapping[int, DisparityMap],
            pw: int) -> list[DisparityMap]:
    """Disparity for every frame of a stereo sequence.

    Frames at indices divisible by `pw` emit their supplied key disparity
    unchanged. Every other frame chains forward from the previous emitted
    map: reconstruct pairs, displace both sides by dense motion, scatter
    the pairs into a guess map, fill each hole of the guess from the
    previous map at the same pixel (where that is invalid too, `refine`
    falls back to its zero guess), and refine with block matching. Each view
    of a frame gets one motion pyramid, which the next frame reuses as its
    previous one; a key frame's is built only when the frame after needs it.
    """
    if pw < 2:
        raise ValueError(f"propagation window must be >= 2, got {pw}")
    out: list[DisparityMap] = []
    pyramids = None  # the previous frame's (left, right) motion pyramids
    for t, (left, right) in enumerate(frames):
        if t % pw == 0:
            if t not in key_disp:
                raise ValueError(f"missing key disparity for frame {t}")
            dmap = key_disp[t]
            if dmap.d.shape != left.luma.shape:
                raise ValueError(f"key disparity for frame {t} does not match the frame")
            out.append(dmap)
            pyramids = None
            continue
        if pyramids is None:
            pyramids = [motion_pyramid(view) for view in frames[t - 1]]
        cur = [motion_pyramid(view) for view in (left, right)]
        fields = [estimate_motion(p, c) for p, c in zip(pyramids, cur)]
        pyramids = cur
        guess = scatter_pairs(propagate(reconstruct(out[-1]), *fields), left.height, left.width)
        del fields  # refine runs with no motion field, pair or old pyramid alive
        np.copyto(guess.d, out[-1].d, where=guess.d < 0)  # a hole keeps the last map's value
        out.append(refine(left, right, guess))
    return out


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
    more per candidate: its box sums add 2 * (REFINE_BLOCK - 1) terms
    directly, in a fixed order that keeps ties bit-exact (see `_box_cost`).

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
