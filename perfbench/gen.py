"""Seeded input generators of the svopt benchmark.

Every input is a pure function of (workload, seed, smoke). Nothing is
downloaded and nothing here imports svopt, so a change to the program
under test can never change the inputs it is measured on.

    python3 perfbench/gen.py --workload ism_960 --seed 7 --out DIR [--smoke]

The decoder networks are the published layer geometries, which the
schedule search depends on entirely; the seed is accepted for a uniform
interface but does not change them. The stereo sequence takes its
textures from the seed.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

HARDWARE = {
    "format_version": 1,
    "pe_array": [24, 24],
    "buffer_capacity": 786432,
    "bandwidth": 16,
    "double_buffered": True,
}


def _deconv(name, kernel, cin, cout, ifmap):
    return {
        "name": name,
        "kind": "deconv",
        "kernel": list(kernel),
        "in_channels": cin,
        "out_channels": cout,
        "ifmap": list(ifmap),
        "stride": 2,
    }


def _shrink(channels, ifmaps, smoke):
    if not smoke:
        return channels, ifmaps
    return [c // 16 for c in channels], [tuple(-(-e // 4) for e in f) for f in ifmaps]


def dispnet_decoder(smoke: bool = False) -> list[dict]:
    """DispNet-style 2-D decoder (Mayer et al., CVPR 2016) of a 960x540 input.

    upconv5..upconv1: 4x4 kernels, 1024 -> 32 channels, ifmaps 9x15 .. 135x240.
    """
    channels, ifmaps = _shrink(
        [1024, 512, 256, 128, 64, 32],
        [(9, 15), (17, 30), (34, 60), (68, 120), (135, 240)],
        smoke,
    )
    return [
        _deconv(f"upconv{5 - i}", (4, 4), channels[i], channels[i + 1], ifmaps[i])
        for i in range(5)
    ]


def gcnet_deconvs(smoke: bool = False) -> list[dict]:
    """The first two GC-Net-style 3-D deconvolutions (Kendall et al., ICCV 2017).

    3x3x3 kernels, 128 -> 64 -> 64 channels, ifmaps 6x17x30 and 12x34x60.
    The third (24x68x120) alone took 10 s in convr mode, longer than a
    whole pass may take.
    """
    channels, ifmaps = _shrink([128, 64, 64], [(6, 17, 30), (12, 34, 60)], smoke)
    return [
        _deconv(f"deconv3d_{i + 1}", (3, 3, 3), channels[i], channels[i + 1], ifmaps[i])
        for i in range(2)
    ]


@dataclass(frozen=True)
class Scene:
    """Two depth planes seen by a rectified stereo pair over time.

    Image content of the background plane moves by bg_motion (dy, dx)
    pixels per frame, the foreground box by fg_motion. A left pixel at
    x matches the right pixel at x + d, d being its plane's disparity.
    """

    width: int
    height: int
    frames: int
    pw: int
    bg_disp: int
    fg_disp: int
    bg_motion: tuple[int, int]
    fg_motion: tuple[int, int]
    box: tuple[int, int, int, int]  # top, left at frame 0, height, width (left view)

    def box_at(self, t: int, view: int) -> tuple[int, int, int, int]:
        """Foreground rows [y0, y1) and columns [x0, x1) in one view (0 left, 1 right)."""
        top, left, bh, bw = self.box
        y0 = top + self.fg_motion[0] * t
        x0 = left + self.fg_motion[1] * t + (self.fg_disp if view else 0)
        return y0, y0 + bh, x0, x0 + bw

    def foreground(self, t: int, view: int) -> np.ndarray:
        y0, y1, x0, x1 = self.box_at(t, view)
        mask = np.zeros((self.height, self.width), dtype=bool)
        mask[y0:y1, x0:x1] = True
        return mask

    def disparity(self, t: int) -> np.ndarray:
        """Ground-truth left disparity; occluded and out-of-frame pixels are -1."""
        fg = self.foreground(t, 0)
        d = np.where(fg, self.fg_disp, self.bg_disp).astype(np.int32)
        xs = np.arange(self.width)[None, :]
        ys = np.arange(self.height)[:, None]
        target = xs + d
        out_of_frame = target >= self.width
        right_fg = self.foreground(t, 1)
        occluded = ~fg & right_fg[ys, np.minimum(target, self.width - 1)]
        d[out_of_frame | occluded] = -1
        return d

    def motion_truth(self, t: int, view: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """True (dy, dx) of every pixel of frame t-1, and where it is still visible at t."""
        fg = self.foreground(t - 1, view)
        dy = np.where(fg, self.fg_motion[0], self.bg_motion[0])
        dx = np.where(fg, self.fg_motion[1], self.bg_motion[1])
        ys = np.arange(self.height)[:, None] + dy
        xs = np.arange(self.width)[None, :] + dx
        inside = (ys >= 0) & (ys < self.height) & (xs >= 0) & (xs < self.width)
        now_fg = self.foreground(t, view)[
            np.clip(ys, 0, self.height - 1), np.clip(xs, 0, self.width - 1)
        ]
        visible = inside & (now_fg == fg)
        return dy, dx, visible


def ism_scene(smoke: bool = False) -> Scene:
    """The ism_960 scene: background D=12 panning (1,2), foreground box D=60 moving (0,4)."""
    if smoke:
        return Scene(160, 96, 5, 4, 3, 10, (1, 2), (0, 4), (32, 40, 36, 48))
    # one propagation window plus the next key frame: 3 propagated frames per pass
    return Scene(960, 540, 5, 4, 12, 60, (1, 2), (0, 4), (180, 240, 200, 320))


def _texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Gaussian-smoothed white noise stretched to [0, 1]."""
    raw = rng.random((height, width))
    taps = np.exp(-np.arange(-2, 3) ** 2 / (2 * 1.2**2))
    taps /= taps.sum()
    out = raw
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (2, 2)
        padded = np.pad(out, pad, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, 5, axis=axis)
        out = windows @ taps
    return (out - out.min()) / (out.max() - out.min())


def render(scene: Scene, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """8-bit (left, right) rasters of every frame.

    Both views sample the same two textures, so a left pixel and its
    ground-truth right partner carry identical values.
    """
    rng = np.random.default_rng(seed)
    (my, mx), last = scene.bg_motion, scene.frames - 1
    if my < 0 or mx < 0:
        raise ValueError("background motion must be non-negative")
    oy, ox = my * last, scene.bg_disp + mx * last
    bg = _texture(rng, scene.height + oy, scene.width + ox)
    fg = _texture(rng, scene.box[2], scene.box[3])
    bg8 = np.rint(bg * 255).astype(np.uint8)
    fg8 = np.rint(fg * 255).astype(np.uint8)
    ys = np.arange(scene.height)[:, None]
    xs = np.arange(scene.width)[None, :]
    frames = []
    for t in range(scene.frames):
        views = []
        for view in (0, 1):
            cols = xs - (scene.bg_disp if view else 0) - mx * t + ox
            img = bg8[ys - my * t + oy, cols]
            y0, y1, x0, x1 = scene.box_at(t, view)
            if y0 < 0 or x0 < 0 or y1 > scene.height or x1 > scene.width:
                raise ValueError("foreground box leaves the frame; shorten the sequence")
            img[y0:y1, x0:x1] = fg8
            views.append(img)
        frames.append(tuple(views))
    return frames


def write_pgm(path: Path, raster: np.ndarray, maxval: int) -> None:
    """Binary P5 PGM, big-endian when 16-bit."""
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    height, width = raster.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    path.write_bytes(header + raster.astype(dtype).tobytes())


def write_disparity(path: Path, d: np.ndarray) -> None:
    """16-bit disparity raster with the sidecar that marks 65535 as invalid."""
    write_pgm(path, np.where(d < 0, 65535, d), 65535)
    meta = {"format_version": 1, "invalid": 65535, "scale": 1}
    Path(str(path) + ".json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def write_inputs(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write one workload's input files under `out`; return their paths and scene."""
    out.mkdir(parents=True, exist_ok=True)
    hw = out / "hardware.json"
    hw.write_text(json.dumps(HARDWARE, sort_keys=True, indent=2) + "\n")
    if workload in ("decoder_paper", "decoder_iaware"):
        # I-aware knapsacks make upconv5 and upconv4 take seconds each: leaving them out
        # keeps a pass short enough for several passes, and so a median, per run
        first = 0 if workload == "decoder_paper" else 2
        nets = {"dispnet": dispnet_decoder(smoke)[first:], "gcnet": gcnet_deconvs(smoke)}
        paths = {}
        for name, layers in nets.items():
            paths[name] = out / f"{name}.json"
            doc = {"format_version": 1, "layers": layers}
            paths[name].write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return {"hardware": hw, "networks": paths}
    if workload != "ism_960":
        raise ValueError(f"unknown workload {workload!r}")
    scene = ism_scene(smoke)
    records = []
    for t, (left, right) in enumerate(render(scene, seed)):
        record = {"left": f"left_{t:02d}.pgm", "right": f"right_{t:02d}.pgm",
                  "gt_disparity": f"gt_{t:02d}.pgm"}
        write_pgm(out / record["left"], left, 255)
        write_pgm(out / record["right"], right, 255)
        write_disparity(out / record["gt_disparity"], scene.disparity(t))
        if t % scene.pw == 0:
            # the expensive key-frame matcher is stood in for by exact ground truth
            record["key_disparity"] = record["gt_disparity"]
        records.append(record)
    manifest = out / "sequence.json"
    doc = {"format_version": 1, "pw": scene.pw, "frames": records}
    manifest.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    (out / "scene.json").write_text(json.dumps(asdict(scene), sort_keys=True, indent=2) + "\n")
    return {"hardware": hw, "sequence": manifest, "scene": scene}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("decoder_paper", "decoder_iaware", "ism_960"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, Path(args.out), args.smoke)
    for path in sorted(Path(args.out).iterdir()):
        print(path)


if __name__ == "__main__":
    main()
