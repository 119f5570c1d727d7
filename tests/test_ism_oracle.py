"""The fast ISM search paths against the whole-frame reference in ism_oracle.

Every comparison is exact: equal arrays and equal dtypes. Luma is
quantized to a handful of levels so that exact SAD ties are common and
the tie-break rules are exercised, not just the minimum.
"""

import numpy as np
import pytest

import ism_oracle as oracle
from svopt import ism
from svopt.ism import INVALID_DISPARITY, DisparityMap, Frame, MotionParams

SHAPES = [(3, 4), (7, 130), (65, 129), (40, 70)]


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


@pytest.mark.parametrize("block", [3, 5, 7, 9, 11, 17, 131])
@pytest.mark.parametrize("shape", SHAPES + [(1, 1)])
def test_box_cost_matches_sliding_window_sums(block, shape):
    rng = np.random.default_rng(block * 1000 + shape[0])
    diff = np.abs(rng.random(shape, dtype=np.float32) - rng.random(shape, dtype=np.float32))
    padded = np.pad(diff, block // 2, mode="edge")
    assert_same(ism._box_cost(padded, block), oracle._box_cost(diff, block))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("block", [3, 5, 7])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_refine_matches_oracle_on_random_guesses(shape, block, radius):
    rng = np.random.default_rng(100 * block + 10 * radius + shape[1])
    left = quantized(rng, shape, 4)
    right = quantized(rng, shape, 4)
    for init in (random_guesses(rng, shape), smooth_guesses(rng, shape)):
        fast = ism.refine(left, right, init, block, radius)
        slow = oracle.refine(left, right, init, block, radius)
        assert_same(fast.d, slow.d)


@pytest.mark.parametrize("block", [9, 11])
def test_refine_matches_oracle_with_wide_blocks(block):
    # nine or more column sums are added in numpy's pairwise order
    rng = np.random.default_rng(block)
    shape = (33, 150)
    left, right = quantized(rng, shape, 3), quantized(rng, shape, 3)
    init = random_guesses(rng, shape)
    fast = ism.refine(left, right, init, block, 2)
    assert_same(fast.d, oracle.refine(left, right, init, block, 2).d)


def test_refine_ties_on_a_flat_frame_go_to_the_guess_then_to_the_smaller_d():
    flat = Frame(np.full((20, 150), 0.25, np.float32))
    rng = np.random.default_rng(4)
    init = random_guesses(rng, flat.luma.shape)
    fast = ism.refine(flat, flat, init, 5, 2)
    assert_same(fast.d, oracle.refine(flat, flat, init, 5, 2).d)
    usable = (init.d >= 0) & (init.d < 150 - np.arange(150))
    assert np.array_equal(fast.d[usable], init.d[usable])
    assert np.all(fast.d[~usable] == 0)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "params",
    [
        MotionParams(),
        MotionParams(levels=2, block=3, search_radius=1),
        MotionParams(levels=1, block=7, search_radius=3),
    ],
)
def test_estimate_motion_matches_oracle(shape, params):
    rng = np.random.default_rng(shape[0] * 7 + params.block)
    prev = quantized(rng, shape, 5)
    cur = Frame(np.roll(prev.luma, (1, -2), axis=(0, 1)))
    for a, b in ((prev, cur), (prev, quantized(rng, shape, 5)), (prev, prev)):
        fast = ism.estimate_motion(a, b, params)
        slow = oracle.estimate_motion(a, b, params)
        assert_same(fast.dx, slow.dx)
        assert_same(fast.dy, slow.dy)


@pytest.mark.parametrize("shape", [(3, 4), (5, 9)])
def test_estimate_motion_with_shifts_as_large_as_the_frame(shape):
    rng = np.random.default_rng(11)
    params = MotionParams(levels=1, block=3, search_radius=max(shape))
    prev, cur = quantized(rng, shape, 3), quantized(rng, shape, 3)
    fast = ism.estimate_motion(prev, cur, params)
    slow = oracle.estimate_motion(prev, cur, params)
    assert_same(fast.dx, slow.dx)
    assert_same(fast.dy, slow.dy)


def test_non_finite_luma_follows_the_strict_comparisons():
    # a NaN SAD never wins a strict `<`, and an infinite one wins only ties
    rng = np.random.default_rng(12)
    shape = (24, 90)
    left = quantized(rng, shape, 4).luma.copy()
    right = quantized(rng, shape, 4).luma.copy()
    left[rng.random(shape) < 0.01] = np.nan
    right[rng.random(shape) < 0.01] = np.inf
    left, right = Frame(left), Frame(right)
    init = random_guesses(rng, shape)
    assert_same(ism.refine(left, right, init, 5, 2).d, oracle.refine(left, right, init, 5, 2).d)
    params = MotionParams(levels=1)
    for a, b in ((left, right), (right, left)):
        fast = ism.estimate_motion(a, b, params)
        slow = oracle.estimate_motion(a, b, params)
        assert_same(fast.dx, slow.dx)
        assert_same(fast.dy, slow.dy)
