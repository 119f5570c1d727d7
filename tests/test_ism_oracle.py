"""The fast ISM search paths against the whole-frame reference in ism_oracle.

Every comparison is exact: equal arrays and equal dtypes. The 8-bit
samples take a handful of levels so that exact SAD ties are common and
the tie-break rules are exercised, not just the minimum.
"""

import numpy as np
import pytest

import ism_oracle as oracle
from svopt import ism
from svopt.ism import (
    BLOCK, INVALID_DISPARITY, MOTION_RADIUS, REFINE_RADIUS, DisparityMap, Frame)
from conftest import make_sequence, make_two_plane_sequence

# (129, 67): two motion bands and a 1-row remainder, one refine tile and a
# 3-column remainder, and the padded columns a flat motion sweep crosses between rows
SHAPES = [(3, 4), (7, 130), (65, 129), (40, 70), (129, 67)]


def quantized(rng, shape, levels):
    return Frame((rng.integers(0, levels, shape) * (255 // (levels - 1))).astype(np.uint8))


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
    # |differences| of 16-bit samples, as `refine` takes them
    rng = np.random.default_rng(seed * 1000 + shape[0])
    diff = np.abs(rng.integers(0, 1 << 16, shape) - rng.integers(0, 1 << 16, shape))
    padded = np.pad(diff.astype(np.int32), BLOCK // 2, mode="edge")
    fast = ism._box_cost(padded)
    assert fast.dtype == np.int32
    assert np.array_equal(fast, oracle._box_cost(diff, BLOCK))


def refine_both(left, right, init):
    """`ism.refine` and the oracle's refine at the module's one configuration."""
    fast = ism.refine(left, right, init)
    return fast, oracle.refine(left, right, init, BLOCK, REFINE_RADIUS)


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
    flat = Frame(np.full((20, 150), 64, np.uint8))
    rng = np.random.default_rng(4)
    init = random_guesses(rng, flat.luma.shape)
    fast, slow = refine_both(flat, flat, init)
    assert_same(fast.d, slow.d)
    usable = (init.d >= 0) & (init.d < 150 - np.arange(150))
    assert np.array_equal(fast.d[usable], init.d[usable])
    assert np.all(fast.d[~usable] == 0)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_refine_window_bounds_match_oracle(seed):
    # right[:, x + D] == left[:, x], so the SAD at D is 0 and no other is: D wins
    # exactly where a pixel's window holds it. Guesses D -+ REFINE_RADIUS hold it
    # at their window's edge, D -+ (REFINE_RADIUS + 1) one past it; in the last
    # columns the windows end at max_d = w - 1 - x or would cross it by one
    h, w, true_d, r = 24, 70, 12, REFINE_RADIUS
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 256, (h, w), dtype=np.uint8)
    right = np.roll(left, true_d, axis=1)
    xs = np.arange(w)
    max_d = w - 1 - xs
    offsets = np.array([-r - 1, -r, r, r + 1])
    guess = true_d + offsets[(xs + np.arange(h)[:, None]) % 4]
    edge = xs >= w - true_d
    guess[:, edge] = (max_d - r + rng.integers(0, 2, (h, w)))[:, edge]
    # the zero-guess fallback: holes and guesses past the right border
    guess[::5, ::3] = INVALID_DISPARITY
    guess[1::5, ::3] = (max_d + 1)[::3]
    init = DisparityMap(guess)
    fast, slow = refine_both(Frame(left), Frame(right), init)
    assert_same(fast.d, slow.d)
    usable = init.valid_mask()
    # interior pixels whose whole block matches at D
    inner = usable & (xs >= BLOCK // 2) & (xs < w - true_d - BLOCK // 2)
    off = guess - true_d
    assert np.all(fast.d[inner & (np.abs(off) == r)] == true_d)
    assert np.all(fast.d[inner & (np.abs(off) == r + 1)] != true_d)
    assert np.count_nonzero(inner & (np.abs(off) == r + 1)) > 100
    # windows that reach past max_d, which the mask must cut
    assert np.count_nonzero(usable & (guess + r > max_d)) > 50
    assert np.all(fast.d <= max_d)


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


@pytest.mark.parametrize("texture", ["checkerboard", "random"])
@pytest.mark.parametrize("shape", [(40, 70), (129, 67)])
def test_full_range_16_bit_frames_match_oracle(shape, texture):
    # maxval-65535 samples at their extremes: the int32 pyramid levels (16x samples)
    # and SADs must not overflow where the oracle's int64 ones cannot
    rng = np.random.default_rng(shape[0] + len(texture))
    ys, xs = np.indices(shape)
    if texture == "checkerboard":
        frames = [((ys + xs + t) % 2 * 65535).astype(np.uint16) for t in range(2)]
    else:
        frames = [rng.integers(0, 1 << 16, shape, dtype=np.uint16) for _ in range(2)]
    prev, cur = Frame(frames[0]), Frame(frames[1])
    for fast, slow in zip(ism.motion_pyramid(prev), oracle.motion_pyramid(prev)):
        assert fast.dtype == np.int32
        assert np.array_equal(fast, slow)
    fast = ism.estimate_motion(ism.motion_pyramid(prev), ism.motion_pyramid(cur))
    slow = oracle.estimate_motion(prev, cur)
    assert_same(fast.dx, slow.dx)
    assert_same(fast.dy, slow.dy)
    for init in (random_guesses(rng, shape), smooth_guesses(rng, shape)):
        fast, slow = refine_both(prev, cur, init)
        assert_same(fast.d, slow.d)


@pytest.mark.parametrize("shape", [(40, 70), (129, 67)])
@pytest.mark.parametrize("texture", ["white", "speckled"])
@pytest.mark.parametrize("order", ["black_to_white", "white_to_black"])
def test_black_against_white_16_bit_frames_match_oracle(shape, texture, order):
    # the largest SADs a 16-bit frame allows, so the motion search's keys
    # SAD << key_bits | k are at their largest too. Against plain white every offset
    # ties; a third of the speckled frame's samples are black, so its SADs range
    # around the key's top bit, where an int32 key that wraps would misorder them
    rng = np.random.default_rng(shape[0])
    lit = np.ones(shape, bool) if texture == "white" else rng.random(shape) >= 1 / 3
    black, white = Frame(np.zeros(shape, np.uint16)), Frame((lit * 65535).astype(np.uint16))
    prev, cur = (black, white) if order == "black_to_white" else (white, black)
    fast = ism.estimate_motion(ism.motion_pyramid(prev), ism.motion_pyramid(cur))
    slow = oracle.estimate_motion(prev, cur)
    assert_same(fast.dx, slow.dx)
    assert_same(fast.dy, slow.dy)
    for init in (random_guesses(rng, shape), smooth_guesses(rng, shape)):
        fast, slow = refine_both(prev, cur, init)
        assert_same(fast.d, slow.d)


def test_motion_key_fits_int32_with_16_bit_samples():
    # `estimate_motion` keeps SAD << key_bits | k in int32, where key_bits holds the last
    # offset index k; a wider search (radius 4 needs key_bits 7) would wrap it
    offsets = (2 * MOTION_RADIUS + 1) ** 2
    key_bits = (offsets - 1).bit_length()
    largest_sad = BLOCK**2 * 65535 * 16  # the pyramid holds 16x samples
    assert (largest_sad << key_bits) + offsets - 1 < 2**31


@pytest.mark.parametrize("scene", ["pan", "two_plane"])
def test_ism_run_matches_oracle(panorama, scene):
    # key frames 0, 3 and 6: the second window starts without the first one's pyramids.
    # Key frames 0, 1 and 4: frame 2 moves from the views of frame 1, the second of two
    # back-to-back key frames
    if scene == "pan":
        frames, gt = make_sequence(panorama, 7, 48, 64, disparity=4, motion=(1, 2))
        truths = [gt] * 7
    else:
        frames, truths = make_two_plane_sequence(
            panorama, 7, 64, 96, 8, 20, (20, 20, 44, 50), (1, 2), (0, 3), origin=(20, 60))
    for key_frames in ((0, 3, 6), (0, 1, 4)):
        stream = [(left, right, truths[t] if t in key_frames else None)
                  for t, (left, right) in enumerate(frames)]
        # the maps as they are emitted, from frames that can be iterated only once
        fast = []
        ism.ism_run(iter(stream), fast.append)
        slow = oracle.ism_run(stream)
        assert len(fast) == len(slow) == 7
        for f, s in zip(fast, slow):
            assert_same(f.d, s.d)
