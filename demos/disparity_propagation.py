"""Propagate key-frame disparity across a synthetic stereo sequence.

The scene is a window panning over a textured panorama; the right view
is the same window shifted by a constant disparity. Frame 0 and frame 2
get their disparity "for free" (stand-ins for an expensive matcher);
the frames in between are recovered by motion propagation plus block
matching, and scored with the three-pixel-error metric.
"""

import numpy as np

from svopt import DisparityMap, Frame, gaussian_blur, ism_run, three_pixel_error
from svopt.ism import estimate_motion, motion_pyramid, nonkey_operation_count

rng = np.random.default_rng(1)
panorama = gaussian_blur(Frame(rng.random((220, 420)).astype(np.float32)), 1.2, 2).luma

HEIGHT, WIDTH, DISPARITY = 96, 128, 4
PAN_Y, PAN_X = 1, 2  # camera motion per frame, pixels


def crop(t):
    r0, c0 = 50 + PAN_Y * t, 80 + PAN_X * t
    left = panorama[r0 : r0 + HEIGHT, c0 : c0 + WIDTH]
    right = panorama[r0 : r0 + HEIGHT, c0 - DISPARITY : c0 - DISPARITY + WIDTH]
    return Frame(left.copy()), Frame(right.copy())


truth = np.full((HEIGHT, WIDTH), DISPARITY, dtype=np.int32)
truth[:, WIDTH - DISPARITY :] = -1  # partners fall outside the right frame
gt = DisparityMap(truth)

frames = [crop(t) for t in range(6)]

motion = estimate_motion(motion_pyramid(frames[0][0]), motion_pyramid(frames[1][0]))
print("estimated camera motion between frames 0 and 1 "
      f"(median): dx={np.median(motion.dx):+.0f} dy={np.median(motion.dy):+.0f} "
      f"(actual {-PAN_X:+d}, {-PAN_Y:+d})\n")

key_disparity = {t: gt for t in range(0, 6, 2)}
maps = ism_run(frames, key_disparity, pw=2)

print(f"{'frame':>5} {'source':>12} {'three-pixel error':>18}")
for t, dmap in enumerate(maps):
    source = "key (given)" if t % 2 == 0 else "propagated"
    print(f"{t:>5} {source:>12} {three_pixel_error(dmap, gt):>17.2f}%")

ops = nonkey_operation_count(960, 540)
print(f"\nestimated cost per propagated frame at 960x540: {ops / 1e6:.0f}M ops")
print("(a disparity DNN at that resolution needs orders of magnitude more)")
