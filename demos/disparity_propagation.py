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
# an 8-bit texture, blurred at 16 bits and rounded to 8 bits once
texture = np.rint(rng.random((220, 420)) * 65535).astype(np.uint16)
panorama = np.rint(gaussian_blur(texture, 1.2, 2) / 257).astype(np.uint8)

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

# frames 0, 2 and 4 carry their key disparity; the others carry None
stream = [(left, right, gt if t % 2 == 0 else None) for t, (left, right) in enumerate(frames)]
maps = []  # ism_run hands each map over as soon as it is made
ism_run(stream, maps.append)

print(f"{'frame':>5} {'source':>12} {'three-pixel error':>18}")
for t, dmap in enumerate(maps):
    source = "key (given)" if t % 2 == 0 else "propagated"
    print(f"{t:>5} {source:>12} {three_pixel_error(dmap, gt):>17.2f}%")

ops = nonkey_operation_count(960, 540)
print(f"\nestimated cost per propagated frame at 960x540: {ops / 1e6:.0f}M ops")
print("(a disparity DNN at that resolution needs orders of magnitude more)")
