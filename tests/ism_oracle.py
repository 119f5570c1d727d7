"""Reference implementations of the ISM block-matching hot spots.

These are the straightforward whole-frame versions that `svopt.ism` used
before its tiled and in-place rewrite: `refine` scores every disparity
from 0 to the largest upper bound over the whole frame, `_box_cost` sums
sliding windows, and `estimate_motion` allocates fresh arrays for every
search offset. They stay here, unchanged, so tests can require the fast
versions to produce the same arrays bit for bit.
"""

from __future__ import annotations

import numpy as np

from svopt.ism import DisparityMap, Frame, MotionField, MotionParams, gaussian_blur


def _box_cost(diff: np.ndarray, block: int) -> np.ndarray:
    """Per-pixel SAD over a block x block patch, borders edge-clamped."""
    half = block // 2
    padded = np.pad(diff, half, mode="edge")
    rows = np.lib.stride_tricks.sliding_window_view(padded, block, axis=0).sum(axis=-1)
    return np.lib.stride_tricks.sliding_window_view(rows, block, axis=1).sum(axis=-1)


def _shift_clamped(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """img sampled at (y+dy, x+dx) with coordinates clamped to the frame."""
    h, w = img.shape
    ys = np.clip(np.arange(h) + dy, 0, h - 1)
    xs = np.clip(np.arange(w) + dx, 0, w - 1)
    return img[ys[:, None], xs[None, :]]


def _offsets(radius: int) -> list[tuple[int, int]]:
    # zero displacement first so exact ties resolve to "no residual motion"
    offs = [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    ]
    offs.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o))
    return offs


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
    min_extent = 2 * params.block
    pyramid = [
        (
            gaussian_blur(prev, params.sigma, params.blur_radius).luma,
            gaussian_blur(cur, params.sigma, params.blur_radius).luma,
        )
    ]
    for _ in range(params.levels - 1):
        p, c = pyramid[-1]
        if min(p.shape) // 2 < min_extent:
            break
        down_p = Frame(p[::2, ::2])
        down_c = Frame(c[::2, ::2])
        pyramid.append(
            (
                gaussian_blur(down_p, params.sigma, params.blur_radius).luma,
                gaussian_blur(down_c, params.sigma, params.blur_radius).luma,
            )
        )
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
        warped = c[np.clip(ys + fy, 0, h - 1), np.clip(xs + fx, 0, w - 1)]
        best_cost = None
        best_dy = np.zeros((h, w), np.int32)
        best_dx = np.zeros((h, w), np.int32)
        for dy, dx in _offsets(params.search_radius):
            cost = _box_cost(np.abs(p - _shift_clamped(warped, dy, dx)), params.block)
            if best_cost is None:
                best_cost = cost
                best_dy.fill(dy)
                best_dx.fill(dx)
            else:
                better = cost < best_cost
                best_cost = np.where(better, cost, best_cost)
                best_dy = np.where(better, dy, best_dy)
                best_dx = np.where(better, dx, best_dx)
        fx = np.clip(fx + best_dx, -xs, w - 1 - xs)
        fy = np.clip(fy + best_dy, -ys, h - 1 - ys)
    return MotionField(fx.astype(np.float32), fy.astype(np.float32))


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
    """
    if block < 3 or block % 2 == 0:
        raise ValueError("block must be odd and >= 3")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if left.luma.shape != right.luma.shape or left.luma.shape != init.d.shape:
        raise ValueError("left, right, and init must share their extents")
    h, w = left.luma.shape
    xs = np.arange(w)[None, :]
    max_d = w - 1 - xs
    usable = (init.d >= 0) & (init.d <= max_d)
    guess = np.where(usable, init.d, 0).astype(np.int32)
    reach = np.where(usable, radius, 2 * radius).astype(np.int32)
    lo = np.maximum(guess - reach, 0)
    hi = np.minimum(guess + reach, max_d)
    best_cost = np.full((h, w), np.inf, dtype=np.float64)
    best_d = np.zeros((h, w), np.int32)
    best_dist = np.full((h, w), np.iinfo(np.int32).max, dtype=np.int32)
    for d in range(0, int(hi.max()) + 1):
        cost = _box_cost(np.abs(left.luma - _shift_clamped(right.luma, 0, d)), block)
        allowed = (d >= lo) & (d <= hi)
        dist = np.abs(d - guess)
        better = allowed & (
            (cost < best_cost) | ((cost == best_cost) & (dist < best_dist))
        )
        best_cost = np.where(better, cost, best_cost)
        best_d = np.where(better, d, best_d)
        best_dist = np.where(better, dist, best_dist)
    return DisparityMap(best_d)
