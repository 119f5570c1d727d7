"""Stereo correspondence propagation across video frames.

Key frames carry an externally supplied disparity map (the expensive
matcher is a black box upstream of this package). For every other frame
the previous disparity is turned back into left/right pixel pairs, both
sides are displaced by dense per-pixel motion, and the resulting noisy
disparity guess is refined by 1-D block matching around the guess. All
disparities are whole pixels; x_right = x_left + d with d >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "INVALID_DISPARITY",
    "CameraRig",
    "CorrespondenceSet",
    "DisparityMap",
    "Frame",
    "MotionField",
    "MotionParams",
    "estimate_motion",
    "gaussian_blur",
    "ism_run",
    "nonkey_operation_count",
    "propagate",
    "reconstruct",
    "refine",
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

    def __eq__(self, other) -> bool:
        return isinstance(other, Frame) and bool(np.array_equal(self.luma, other.luma))

    __hash__ = None

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

    def __eq__(self, other) -> bool:
        return isinstance(other, DisparityMap) and bool(np.array_equal(self.d, other.d))

    __hash__ = None

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
        xs = np.arange(self.width)[None, :]
        return (self.d >= 0) & (xs + self.d < self.width)


@dataclass(frozen=True, eq=False)
class MotionField:
    """Dense per-pixel displacement (dx, dy) in pixels."""

    dx: np.ndarray
    dy: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MotionField)
            and bool(np.array_equal(self.dx, other.dx))
            and bool(np.array_equal(self.dy, other.dy))
        )

    __hash__ = None

    def __post_init__(self) -> None:
        dx = np.asarray(self.dx, dtype=np.float32)
        dy = np.asarray(self.dy, dtype=np.float32)
        if dx.shape != dy.shape or dx.ndim != 2:
            raise ValueError("dx and dy must be equal-shape 2-d arrays")
        if not (np.isfinite(dx).all() and np.isfinite(dy).all()):
            raise ValueError("motion components must be finite")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)

    @classmethod
    def zero(cls, height: int, width: int) -> "MotionField":
        return cls(np.zeros((height, width), np.float32), np.zeros((height, width), np.float32))


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Matched pixel pairs (left <x,y>, right <x,y>), with a staleness flag.

    Pairs reconstructed straight from a disparity map share their row
    (y_left == y_right); propagated pairs may not until refinement.
    """

    xl: np.ndarray
    yl: np.ndarray
    xr: np.ndarray
    yr: np.ndarray
    stale: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __eq__(self, other) -> bool:
        return isinstance(other, CorrespondenceSet) and all(
            bool(np.array_equal(getattr(self, name), getattr(other, name)))
            for name in ("xl", "yl", "xr", "yr", "stale")
        )

    __hash__ = None

    def __post_init__(self) -> None:
        arrays = [np.asarray(a, dtype=np.int32) for a in (self.xl, self.yl, self.xr, self.yr)]
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError("coordinate arrays must be equal-length 1-d")
        stale = self.stale
        if stale is None:
            stale = np.zeros(arrays[0].shape, dtype=bool)
        stale = np.asarray(stale, dtype=bool)
        if stale.shape != arrays[0].shape:
            raise ValueError("stale mask must match coordinate arrays")
        for name, arr in zip(("xl", "yl", "xr", "yr"), arrays):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "stale", stale)

    def __len__(self) -> int:
        return self.xl.shape[0]


def triangulate(disparity_px: float, rig: CameraRig) -> float:
    """Metric depth of a point seen with the given pixel disparity."""
    if disparity_px <= 0:
        raise ValueError(f"disparity must be positive, got {disparity_px}")
    return (rig.baseline_m * rig.focal_length_m) / (disparity_px * rig.pixel_pitch_m)


def reconstruct(dmap: DisparityMap) -> CorrespondenceSet:
    """Pixel pairs (<x,y>, <x+d,y>) for every valid disparity entry, raster order."""
    ys, xs = np.nonzero(dmap.valid_mask())
    d = dmap.d[ys, xs]
    return CorrespondenceSet(xs, ys, xs + d, ys)


def propagate(
    cs: CorrespondenceSet, mf_left: MotionField, mf_right: MotionField
) -> CorrespondenceSet:
    """Displace each side of every pair by its own motion vector.

    Displaced coordinates are rounded to the nearest pixel and clipped to
    the frame; pairs that leave the frame on either side are kept but
    marked stale.
    """
    h, w = mf_left.dx.shape
    if mf_right.dx.shape != (h, w):
        raise ValueError("left and right motion fields must cover the same extent")

    def _move(xs, ys, mf):
        nx = np.rint(xs + mf.dx[ys, xs]).astype(np.int32)
        ny = np.rint(ys + mf.dy[ys, xs]).astype(np.int32)
        out = (nx < 0) | (nx >= w) | (ny < 0) | (ny >= h)
        return np.clip(nx, 0, w - 1), np.clip(ny, 0, h - 1), out

    xl, yl, out_l = _move(cs.xl, cs.yl, mf_left)
    xr, yr, out_r = _move(cs.xr, cs.yr, mf_right)
    return CorrespondenceSet(xl, yl, xr, yr, cs.stale | out_l | out_r)


def gaussian_blur(frame: Frame, sigma: float, radius: int) -> Frame:
    """Separable Gaussian smoothing with edge-clamped borders.

    The 2*radius+1 taps are normalized to sum to one, so constant frames
    pass through unchanged.
    """
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
        out = np.tensordot(windows, taps, axes=([-1], [0])).astype(np.float32)
    return Frame(out)


@dataclass(frozen=True)
class MotionParams:
    """Knobs of the pyramid block-matching motion estimator."""

    levels: int = 3
    block: int = 5
    search_radius: int = 2
    sigma: float = 1.0
    blur_radius: int = 2

    def __post_init__(self) -> None:
        if self.levels < 1 or self.search_radius < 1 or self.blur_radius < 1:
            raise ValueError("levels, search_radius, and blur_radius must be >= 1")
        if self.block < 3 or self.block % 2 == 0:
            raise ValueError("block must be odd and >= 3")


def _sum_terms(terms: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape arrays in numpy's pairwise order.

    This is the order `np.add.reduce` adds a contiguous float axis in:
    left to right below eight terms; from eight on, eight running partial
    sums joined as a balanced tree, with the rest added after; above 128
    terms, split in two at a multiple of eight.
    """
    n = len(terms)
    if n > 128:
        mid = n // 2 - (n // 2) % 8
        return _sum_terms(terms[:mid]) + _sum_terms(terms[mid:])
    if n < 8:
        acc = terms[0] + terms[1]
        rest = terms[2:]
    else:
        part = [t.copy() for t in terms[:8]]
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                part[j] += terms[i + j]
        acc = ((part[0] + part[1]) + (part[2] + part[3])) + (
            (part[4] + part[5]) + (part[6] + part[7])
        )
        rest = terms[tail:]
    for t in rest:
        acc += t
    return acc


def _box_cost(padded: np.ndarray, block: int) -> np.ndarray:
    """Per-pixel SAD over block x block patches of an edge-padded |diff|.

    `padded` carries a block // 2 border on its last two axes (the frame
    edge-clamped, as `np.pad(mode="edge")` makes it); the result drops it.
    The float32 adds run in a fixed order: `block` rows are summed top to
    bottom, then `block` of those column sums in numpy's pairwise order
    (left to right for block < 8). That is the order of a sliding-window
    `sum` along axis 0 and then axis 1, so every SAD is the same bit for
    bit and exact ties between candidates fall where they always did. A
    cumulative-sum box filter would round differently and move the ties.
    """
    h = padded.shape[-2] - block + 1
    w = padded.shape[-1] - block + 1
    rows = padded[..., 0:h, :] + padded[..., 1 : 1 + h, :]
    for i in range(2, block):
        rows += padded[..., i : i + h, :]
    return _sum_terms([rows[..., j : j + w] for j in range(block)])


def _sort_keys(cost: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """uint64 keys that sort like the pairs (cost, rank), for ranks below 2**32.

    `cost` is a float32 SAD, a sum of absolute values and so never
    negative; the bit pattern of a non-negative float32 read as an
    unsigned integer sorts like its value, with every NaN after +inf. It
    fills bits 32-62, the rank the low 32 bits, and bit 63 stays free.
    """
    key = np.left_shift(cost.view(np.uint32), np.uint64(32), dtype=np.uint64)
    key |= rank
    return key


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


def _search_offsets(
    p: np.ndarray, warped: np.ndarray, params: MotionParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel residual (dy, dx) whose block SAD between p and warped is least.

    Offsets are tried in `_offsets` order and only a strictly smaller SAD
    replaces the best so far, so ties keep the earlier offset. The frame
    is searched in bands of MOTION_BAND rows, whose buffers stay in cache.
    """
    h, w = p.shape
    r, half = params.search_radius, params.block // 2
    offsets = _offsets(r)
    # with `warped` edge-padded by the search radius every clamped shift is a slice
    src = np.pad(warped, r, mode="edge")
    best = np.empty((h, w), np.min_scalar_type(len(offsets)))
    for y0 in range(0, h, MOTION_BAND):
        band = best[y0 : y0 + MOTION_BAND]
        # band rows plus a `half` halo, clamped: the edge padding of the diff image
        cy = np.clip(np.arange(y0 - half, y0 + band.shape[0] + half), 0, h - 1)
        p_rows = p[cy]
        src_rows = {dy: src[r + dy + cy] for dy in range(-r, r + 1)}
        diff = np.empty((cy.size, w + 2 * half), np.float32)
        inner = diff[:, half : half + w]
        better = np.empty(band.shape, bool)
        for k, (dy, dx) in enumerate(offsets):
            np.subtract(p_rows, src_rows[dy][:, r + dx : r + dx + w], out=inner)
            np.abs(inner, out=inner)
            diff[:, :half] = diff[:, half : half + 1]
            diff[:, -half:] = diff[:, -half - 1 : -half]
            cost = _box_cost(diff, params.block)
            if k == 0:
                # nothing is below a NaN, so such a pixel keeps the first offset:
                # -inf stands in for it, which nothing is below either
                best_cost = np.where(np.isnan(cost), -np.inf, cost).astype(np.float32)
                band.fill(0)
                continue
            np.less(cost, best_cost, out=better)
            # the same as taking cost where better: an equal SAD has equal bits
            # (none is -0.0), and fmin keeps best_cost against a NaN cost
            np.fmin(best_cost, cost, out=best_cost)
            # k only grows, so "k where better" is the larger of the two
            np.maximum(band, better * band.dtype.type(k), out=band)
    table = np.array(offsets, np.int32)
    return table[best, 0], table[best, 1]


def estimate_motion(
    prev: Frame, cur: Frame, params: MotionParams = MotionParams()
) -> MotionField:
    """Dense per-pixel motion from `prev` to `cur`.

    Coarse-to-fine image pyramid of Gaussian-blurred frames; at each
    level the flow carried up from the coarser level warps `cur`, a
    block-SAD search over a small residual window updates every pixel,
    and the field is clamped to stay inside the frame. Integer flow.
    """
    if prev.luma.shape != cur.luma.shape:
        raise ValueError("frames must share their extents")

    def levels(frame: Frame) -> list[np.ndarray]:
        """Blurred luma, then each half-size level while it stays 2 blocks wide."""
        out = [gaussian_blur(frame, params.sigma, params.blur_radius).luma]
        while len(out) < params.levels and min(out[-1].shape) // 2 >= 2 * params.block:
            out.append(gaussian_blur(Frame(out[-1][::2, ::2]), params.sigma,
                                     params.blur_radius).luma)
        return out

    pyramid = list(zip(levels(prev), levels(cur)))
    h0, w0 = pyramid[-1][0].shape
    fx = np.zeros((h0, w0), np.int32)
    fy = np.zeros((h0, w0), np.int32)
    for level in range(len(pyramid) - 1, -1, -1):
        p, c = pyramid[level]
        h, w = p.shape
        if fx.shape != (h, w):
            fx = np.repeat(np.repeat(fx * 2, 2, axis=0), 2, axis=1)[:h, :w]
            fy = np.repeat(np.repeat(fy * 2, 2, axis=0), 2, axis=1)[:h, :w]
        ys = np.arange(h)[:, None]
        xs = np.arange(w)[None, :]
        fx = np.clip(fx, -xs, w - 1 - xs)
        fy = np.clip(fy, -ys, h - 1 - ys)
        warped = c[ys + fy, xs + fx]
        dy, dx = _search_offsets(p, warped, params)
        fx = np.clip(fx + dx, -xs, w - 1 - xs)
        fy = np.clip(fy + dy, -ys, h - 1 - ys)
    return MotionField(fx.astype(np.float32), fy.astype(np.float32))


REFINE_TILE = 64
# candidates scored at once in a tile, which bounds the tile's buffers
REFINE_CHUNK = 32
_EXCLUDED = np.uint64(1 << 63)


def refine(
    left: Frame,
    right: Frame,
    init: DisparityMap,
    block: int = 5,
    radius: int = 2,
) -> DisparityMap:
    """Block-matching disparity search around a per-pixel initial guess.

    For each left-image pixel the block x block SAD is evaluated at
    horizontal offsets init +- radius (clipped to keep x+d in frame) and
    the minimizing offset wins; ties go to the offset nearest the guess,
    then to the smaller offset. Pixels whose guess is invalid or out of
    reach fall back to a zero guess with a doubled radius. Patches are
    edge-clamped at the borders.

    The frame is searched in REFINE_TILE-square tiles. A tile scores only
    the distinct offsets that one of its pixels may take, so the work per
    pixel is the number of distinct candidates in its tile (2*radius+1 on
    a smooth guess map), not the largest disparity in the frame. Each
    (pixel, offset) gets one integer key that sorts like (SAD, distance
    to the guess, offset), and the least key wins: the same choice as
    trying the offsets in increasing order and keeping a strictly
    smaller SAD, or an equal SAD nearer the guess.
    """
    if block < 3 or block % 2 == 0:
        raise ValueError("block must be odd and >= 3")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if left.luma.shape != right.luma.shape or left.luma.shape != init.d.shape:
        raise ValueError("left, right, and init must share their extents")
    h, w = left.luma.shape
    half = block // 2
    xs = np.arange(w)[None, :]
    max_d = w - 1 - xs
    usable = init.valid_mask()
    guess = np.where(usable, init.d, 0).astype(np.int32)
    reach = np.where(usable, radius, 2 * radius).astype(np.int32)
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
            best = np.full(t_guess.shape, _EXCLUDED, np.uint64)
            for k0 in range(0, cands.size, REFINE_CHUNK):
                ds = cands[k0 : k0 + REFINE_CHUNK, None, None]
                right_crop = right_rows[:, np.clip(cx + ds[:, 0], 0, w - 1)].swapaxes(0, 1)
                costs = _box_cost(np.abs(left_crop - right_crop), block)
                # ties go nearer the guess, then below it: rank 2|d - g| + (d > g)
                offset = ds - t_guess
                rank = 2 * np.abs(offset) + (offset > 0)
                keys = _sort_keys(costs, rank.astype(np.uint64))
                # a NaN SAD never wins a strict comparison, so it never wins here
                excluded = (ds < t_lo) | (ds > t_hi) | np.isnan(costs)
                keys |= excluded.astype(np.uint64) << np.uint64(63)
                np.minimum(best, keys.min(axis=0), out=best)
            rank = (best & np.uint64(0xFFFFFFFF)).astype(np.int32)
            found = best < _EXCLUDED
            step = rank >> 1
            best_d[ty, tx] = np.where(found, np.where(rank & 1, t_guess + step, t_guess - step), 0)
    return DisparityMap(best_d)


def scatter_pairs(cs: CorrespondenceSet, height: int, width: int) -> DisparityMap:
    """Disparity guesses from propagated pairs; holes stay invalid.

    Stale pairs are dropped. When several pairs land on one left pixel
    the largest disparity (nearest surface) wins; negative horizontal
    offsets are treated as holes.
    """
    live = ~cs.stale
    d = np.full((height, width), INVALID_DISPARITY, dtype=np.int32)
    disp = cs.xr[live] - cs.xl[live]
    keep = disp >= 0
    np.maximum.at(d, (cs.yl[live][keep], cs.xl[live][keep]), disp[keep])
    return DisparityMap(d)


def ism_run(
    frames: Sequence[tuple[Frame, Frame]],
    key_disp: Mapping[int, DisparityMap],
    pw: int,
    *,
    block: int = 5,
    radius: int = 2,
) -> list[DisparityMap]:
    """Disparity for every frame of a stereo sequence.

    Frames at indices divisible by `pw` emit their supplied key disparity
    unchanged. Every other frame chains forward from the previous emitted
    map: reconstruct pairs, displace both sides by dense motion, scatter
    the pairs into a guess map, and refine with block matching.
    """
    if pw < 2:
        raise ValueError(f"propagation window must be >= 2, got {pw}")
    out: list[DisparityMap] = []
    for t, (left, right) in enumerate(frames):
        if t % pw == 0:
            if t not in key_disp:
                raise ValueError(f"missing key disparity for frame {t}")
            dmap = key_disp[t]
            if dmap.d.shape != left.luma.shape:
                raise ValueError(f"key disparity for frame {t} does not match the frame")
            out.append(dmap)
            continue
        prev_left, prev_right = frames[t - 1]
        mf_left = estimate_motion(prev_left, left)
        mf_right = estimate_motion(prev_right, right)
        pairs = propagate(reconstruct(out[-1]), mf_left, mf_right)
        guess = scatter_pairs(pairs, left.height, left.width)
        out.append(refine(left, right, guess, block, radius))
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


def nonkey_operation_count(
    width: int,
    height: int,
    params: MotionParams = MotionParams(),
    block: int = 5,
    radius: int = 2,
) -> int:
    """Analytic arithmetic-operation count of one non-key frame.

    Counts the two dense motion estimations (pyramid blur, warp, and
    residual SAD search), the pair bookkeeping, and the block-matching
    refinement. SAD costs are charged at 7 ops per pixel per candidate
    (difference, absolute value, two incremental box-sum updates, compare
    and select), the cost of a running-sum box filter. The code spends
    more per candidate: its box sums add 2 * (block - 1) terms directly,
    in a fixed order that keeps ties bit-exact (see `_box_cost`).

    Refinement is charged 2 * radius + 1 candidates per pixel, the search
    window of a usable guess. `refine` scores the distinct candidates of
    each pixel's tile, which is at least that many and more where guesses
    vary inside a tile or fall back to the zero guess.
    """
    level_px = []
    px = width * height
    for _ in range(params.levels):
        level_px.append(px)
        px //= 4
    blur_taps = 2 * params.blur_radius + 1
    search = (2 * params.search_radius + 1) ** 2
    per_field = 0
    for px in level_px:
        per_field += px * (2 * blur_taps * 2)  # two separable blur passes
        per_field += px * 2  # warp by the carried flow
        per_field += px * search * 7  # residual SAD search
    refine_ops = width * height * (2 * radius + 1) * 7
    bookkeeping = width * height * 8  # reconstruct, displace, scatter
    return 2 * per_field + refine_ops + bookkeeping
