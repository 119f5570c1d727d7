import numpy as np
import pytest

from svopt.ism import DisparityMap, Frame, gaussian_blur


@pytest.fixture(scope="session")
def panorama():
    """Smoothed random texture large enough to crop panning windows from."""
    rng = np.random.default_rng(3)
    raw = Frame(rng.random((200, 400)).astype(np.float32))
    return gaussian_blur(raw, 1.2, 2).luma


def make_sequence(panorama, n_frames, height, width, disparity, motion=(0, 0), origin=(40, 60)):
    """Stereo frames panning over the panorama, plus the ground-truth map.

    The right view is the same window shifted left by `disparity`, so
    x_right = x_left + disparity; left pixels whose partner falls outside
    the frame are invalid in the ground truth.
    """
    my, mx = motion
    oy, ox = origin
    frames = []
    for t in range(n_frames):
        r0, c0 = oy + my * t, ox + mx * t
        left = panorama[r0 : r0 + height, c0 : c0 + width]
        right = panorama[r0 : r0 + height, c0 - disparity : c0 - disparity + width]
        frames.append((Frame(left.copy()), Frame(right.copy())))
    gt = np.full((height, width), disparity, dtype=np.int32)
    if disparity > 0:
        gt[:, width - disparity :] = -1
    return frames, DisparityMap(gt)


def make_two_plane(panorama, height, width, d_back, d_front, box, origin=(4, 70)):
    """One stereo pair of a textured box floating in front of a textured wall.

    The wall sits at disparity `d_back`, the box (top, left, bottom, right
    in left-view pixels) at `d_front`. Both views sample the same two
    textures, so x_right = x_left + d holds exactly. The ground truth marks
    invalid the left pixels whose partner leaves the frame and the wall
    pixels the box hides in the right view (occluded).
    """
    oy, ox = origin
    y0, x0, y1, x1 = box
    wall = panorama[oy : oy + height, ox - d_back : ox - d_back + width + d_back]
    front = panorama[::-1, ::-1][: y1 - y0, : x1 - x0]
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    in_box = (ys >= y0) & (ys < y1) & (xs >= x0) & (xs < x1)
    left = wall[:, d_back : d_back + width].copy()
    left[y0:y1, x0:x1] = front
    right = wall[:, :width].copy()
    right[y0:y1, x0 + d_front : x1 + d_front] = front[:, : max(0, width - x0 - d_front)]
    gt = np.where(in_box, d_front, d_back)
    partner = xs + gt
    behind_box = (partner >= x0 + d_front) & (partner < x1 + d_front)
    hidden = ~in_box & (ys >= y0) & (ys < y1) & behind_box
    gt = np.where((partner >= width) | hidden, -1, gt).astype(np.int32)
    return (Frame(left), Frame(right)), DisparityMap(gt)
