"""The fast ISM search paths against the whole-frame reference in ism_oracle.

Every comparison is exact: equal arrays and equal dtypes. Luma is
quantized to a handful of levels so that exact SAD ties are common and
the tie-break rules are exercised, not just the minimum.
"""

import numpy as np
import pytest

import ism_oracle as oracle
from svopt import ism
from svopt.ism import (
    INVALID_DISPARITY, MOTION_RADIUS, REFINE_BLOCK, REFINE_RADIUS, DisparityMap, Frame)
from conftest import make_sequence, make_two_plane_sequence

# (129, 67): two motion bands and a 1-row remainder, one refine tile and a
# 3-column remainder, and the padded columns a flat motion sweep crosses between rows
SHAPES = [(3, 4), (7, 130), (65, 129), (40, 70), (129, 67)]


def quantized(rng, shape, levels):
    return Frame((rng.integers(0, levels, shape) / (levels - 1)).astype(np.float32))


def random_guesses(rng, shape, max_guess=60):
    """Guesses up to max_guess, with holes and guesses past the right border."""
    w = shape[1]
    d = rng.integers(0, max_guess + 1, shape)
    roll = rng.random(shape)
    d[roll < 0.15] = INVALID_DISPARITY
    out_of_reach = roll > 0.9
    d[out_of_reach] = (w - np.arange(w) + rng.integers(0, 4, shape))[out_of_reach]
    return DisparityMap(d)


def smooth_guesses(rng, shape, max_guess=60):
    """Piecewise-constant guesses in vertical stripes, a few holes."""
    w = shape[1]
    edges = np.sort(rng.integers(0, w, 3))
    levels = rng.integers(0, max_guess + 1, 4)
    d = np.broadcast_to(levels[np.searchsorted(edges, np.arange(w), side="right")], shape)
    d = np.where(rng.random(shape) < 0.05, INVALID_DISPARITY, d)
    return DisparityMap(d)


def assert_same(fast, slow):
    assert fast.dtype == slow.dtype
    assert np.array_equal(fast, slow)


# seven draws per shape, one for each block the box sums once took
@pytest.mark.parametrize("seed", [3, 5, 7, 9, 11, 17, 131])
@pytest.mark.parametrize("shape", SHAPES + [(1, 1)])
def test_box_cost_matches_sliding_window_sums(shape, seed):
    rng = np.random.default_rng(seed * 1000 + shape[0])
    diff = np.abs(rng.random(shape, dtype=np.float32) - rng.random(shape, dtype=np.float32))
    padded = np.pad(diff, REFINE_BLOCK // 2, mode="edge")
    assert_same(ism._box_cost(padded), oracle._box_cost(diff, REFINE_BLOCK))


@pytest.mark.parametrize("n", range(2, 8))
def test_sum_terms_adds_in_numpys_order_below_eight_terms(n):
    # the precondition `test_search_constants_keep_the_box_sums_bit_exact` guards
    rng = np.random.default_rng(n)
    scale = rng.choice(np.float32([1e-3, 1, 1e3]), 4000 + n)
    windows = np.lib.stride_tricks.sliding_window_view(
        rng.random(4000 + n, dtype=np.float32) * scale, n)
    assert_same(ism._sum_terms([windows[:, j] for j in range(n)]), windows.sum(axis=-1))


def refine_both(left, right, init):
    """`ism.refine` and the oracle's refine at the module's one configuration."""
    fast = ism.refine(left, right, init)
    return fast, oracle.refine(left, right, init, REFINE_BLOCK, REFINE_RADIUS)


@pytest.mark.parametrize("shape", SHAPES)
# nine seeds per shape, one for each (block, radius) the search once took
@pytest.mark.parametrize("seed", [100 * b + 10 * r for b in (3, 5, 7) for r in (1, 2, 3)])
def test_refine_matches_oracle_on_random_guesses(shape, seed):
    rng = np.random.default_rng(seed + shape[1])
    left = quantized(rng, shape, 4)
    right = quantized(rng, shape, 4)
    for init in (random_guesses(rng, shape), smooth_guesses(rng, shape)):
        fast, slow = refine_both(left, right, init)
        assert_same(fast.d, slow.d)


def test_refine_ties_on_a_flat_frame_go_to_the_guess_then_to_the_smaller_d():
    flat = Frame(np.full((20, 150), 0.25, np.float32))
    rng = np.random.default_rng(4)
    init = random_guesses(rng, flat.luma.shape)
    fast, slow = refine_both(flat, flat, init)
    assert_same(fast.d, slow.d)
    usable = (init.d >= 0) & (init.d < 150 - np.arange(150))
    assert np.array_equal(fast.d[usable], init.d[usable])
    assert np.all(fast.d[~usable] == 0)


@pytest.mark.parametrize("shape", SHAPES)
def test_estimate_motion_matches_oracle(shape):
    rng = np.random.default_rng(shape[0] * 7 + 5)
    prev = quantized(rng, shape, 5)
    cur = Frame(np.roll(prev.luma, (1, -2), axis=(0, 1)))
    for a, b in ((prev, cur), (prev, quantized(rng, shape, 5)), (prev, prev)):
        fast = ism.estimate_motion(ism.motion_pyramid(a), ism.motion_pyramid(b))
        slow = oracle.estimate_motion(a, b)
        assert_same(fast.dx, slow.dx)
        assert_same(fast.dy, slow.dy)


@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (3, 2)])
def test_estimate_motion_with_shifts_as_large_as_the_frame(shape):
    # every in-frame shift is inside the search window
    assert max(shape) - 1 <= MOTION_RADIUS
    rng = np.random.default_rng(11)
    prev, cur = quantized(rng, shape, 3), quantized(rng, shape, 3)
    fast = ism.estimate_motion(ism.motion_pyramid(prev), ism.motion_pyramid(cur))
    slow = oracle.estimate_motion(prev, cur)
    assert_same(fast.dx, slow.dx)
    assert_same(fast.dy, slow.dy)


def test_non_finite_luma_follows_the_strict_comparisons(shape=(24, 90)):
    # a NaN SAD never wins a strict `<`, and an infinite one wins only ties
    rng = np.random.default_rng(12)
    left = quantized(rng, shape, 4).luma.copy()
    right = quantized(rng, shape, 4).luma.copy()
    left[rng.random(shape) < 0.01] = np.nan
    right[rng.random(shape) < 0.01] = np.inf
    left, right = Frame(left), Frame(right)
    init = random_guesses(rng, shape)
    fast, slow = refine_both(left, right, init)
    assert_same(fast.d, slow.d)
    for a, b in ((left, right), (right, left)):
        fast = ism.estimate_motion(ism.motion_pyramid(a), ism.motion_pyramid(b))
        slow = oracle.estimate_motion(a, b)
        assert_same(fast.dx, slow.dx)
        assert_same(fast.dy, slow.dy)


def test_non_finite_luma_at_the_edges_of_the_search_layout():
    test_non_finite_luma_follows_the_strict_comparisons((129, 67))


def test_infinite_luma_at_opposite_row_ends_raises_no_warning():
    # the reference never subtracts one row's last pixel from the next row's first,
    # so the fast search must not either (pytest turns a RuntimeWarning into a failure)
    rng = np.random.default_rng(13)
    prev, cur = quantized(rng, (40, 70), 4).luma.copy(), quantized(rng, (40, 70), 4).luma.copy()
    prev[:, -1] = np.inf
    cur[:, 0] = np.inf
    fast = ism.estimate_motion(ism.motion_pyramid(Frame(prev)), ism.motion_pyramid(Frame(cur)))
    slow = oracle.estimate_motion(Frame(prev), Frame(cur))
    assert_same(fast.dx, slow.dx)
    assert_same(fast.dy, slow.dy)


@pytest.mark.parametrize("scene", ["pan", "two_plane"])
def test_ism_run_matches_oracle(panorama, scene):
    # two windows of pw=3: the second starts without the first window's pyramids
    if scene == "pan":
        frames, gt = make_sequence(panorama, 7, 48, 64, disparity=4, motion=(1, 2))
        truths = [gt] * 7
    else:
        frames, truths = make_two_plane_sequence(
            panorama, 7, 64, 96, 8, 20, (20, 20, 44, 50), (1, 2), (0, 3), origin=(20, 60))
    keys = {t: truths[t] for t in (0, 3, 6)}
    fast = ism.ism_run(frames, keys, 3)
    slow = oracle.ism_run(frames, keys, 3)
    assert len(fast) == len(slow) == 7
    for f, s in zip(fast, slow):
        assert_same(f.d, s.d)
