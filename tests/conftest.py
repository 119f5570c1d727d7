import numpy as np
import pytest

from svopt.ism import DisparityMap, Frame, gaussian_blur, ism_run


@pytest.fixture(scope="session")
def panorama():
    """Smoothed random 8-bit texture large enough to crop panning windows from.

    The texture is blurred at 16 bits and then stored at 8, so it is
    rounded to 8 bits once.
    """
    rng = np.random.default_rng(3)
    raw = np.rint(rng.random((200, 400)) * 65535).astype(np.uint16)
    return np.rint(gaussian_blur(raw, 1.2, 2) / 257).astype(np.uint8)


def ism_maps(frames, keys):
    """Every map `ism_run` emits, in frame order; frame t carries `keys[t]`, if there is one."""
    maps = []
    ism_run(((left, right, keys.get(t)) for t, (left, right) in enumerate(frames)), maps.append)
    return maps


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


def make_two_plane_sequence(panorama, n_frames, height, width, d_back, d_front, box,
                            wall_motion, box_motion, origin=(4, 70)):
    """`make_two_plane` frames in which the wall and the box move apart.

    Each frame the wall's window moves by `wall_motion` and the box by
    `box_motion`, both (dy, dx) in pixels, so the box uncovers and hides
    wall. Returns the stereo frames and each frame's ground truth.
    """
    (wy, wx), (by, bx) = wall_motion, box_motion
    y0, x0, y1, x1 = box
    frames, truths = [], []
    for t in range(n_frames):
        moved = (y0 + by * t, x0 + bx * t, y1 + by * t, x1 + bx * t)
        pair, gt = make_two_plane(panorama, height, width, d_back, d_front, moved,
                                  origin=(origin[0] + wy * t, origin[1] + wx * t))
        frames.append(pair)
        truths.append(gt)
    return frames, truths


def make_approaching_sequence(panorama, n_frames, height, width, d_back, d_front, box, growth):
    """`make_two_plane` frames of a box that approaches the camera.

    The box's disparity starts at `d_front` and grows by `growth` px per
    frame; the box keeps its place in the left view and the wall stands
    still, so only the right view's box moves. Returns the stereo frames
    and each frame's ground truth.
    """
    frames, truths = [], []
    for t in range(n_frames):
        pair, gt = make_two_plane(panorama, height, width, d_back, d_front + growth * t, box)
        frames.append(pair)
        truths.append(gt)
    return frames, truths
