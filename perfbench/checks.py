"""Correctness checks run inside every timed run of the benchmark.

Each check returns the problems it found per operation, so a run can
count failed operations against attempted ones. The expected values are
derived here from the generated inputs, not from svopt's own model.
The svopt names below are bound when this module is imported, before a
traced run wraps them, so checking adds no spans to a trace.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from svopt.formats import SpecValidationError, load_report
from svopt.perfmodel import InfeasibleScheduleError, validate_schedule

REPORT_COLUMNS = [
    "layer", "mode", "latency_cycles", "compute_cycles", "memory_cycles",
    "dram_ifmap_elems", "dram_weight_elems", "dram_ofmap_elems", "macs", "utilization",
]
COUNT_COLUMNS = REPORT_COLUMNS[2:9]


def analytic_macs(layer: dict, mode: str) -> int:
    """MACs the model must charge for one layer.

    A decomposed deconvolution runs every sub-kernel over the original
    ifmap, and the sub-kernels partition the kernel's elements, so the
    count is (kernel elements) * I * O * (ifmap elements). Baseline mode
    runs the dense kernel over the zero-upsampled ifmap with its border,
    2n + 1 elements per axis.
    """
    extents = layer["ifmap"]
    if layer["kind"] == "deconv" and mode == "baseline":
        extents = [2 * n + 1 for n in extents]
    return (math.prod(layer["kernel"]) * layer["in_channels"] * layer["out_channels"]
            * math.prod(extents))


def model_report(csv_path, layers: list[dict], mode: str, pe_count: int) -> dict[str, list[str]]:
    """Problems per layer of one `svopt model` report.

    A report that does not re-ingest, or whose TOTAL row is wrong,
    fails every layer it covers.
    """
    problems = {layer["name"]: [] for layer in layers}
    try:
        header, rows = load_report(csv_path)
    except SpecValidationError as exc:
        return {name: [f"report does not re-ingest: {exc}"] for name in problems}
    if header != REPORT_COLUMNS or [r["layer"] for r in rows] != [*problems, "TOTAL"]:
        return {name: ["report header or layer rows differ from the network"] for name in problems}
    try:
        counts = [{c: int(r[c]) for c in COUNT_COLUMNS} for r in rows]
    except ValueError as exc:
        return {name: [f"non-integer count: {exc}"] for name in problems}
    for layer, row, count in zip(layers, rows, counts):
        found = problems[layer["name"]]
        if row["mode"] != mode:
            found.append(f"mode {row['mode']!r}, expected {mode!r}")
        macs = analytic_macs(layer, mode)
        if count["macs"] != macs:
            found.append(f"macs {count['macs']} != analytic {macs}")
        if count["latency_cycles"] < -(-count["macs"] // pe_count):
            found.append(f"latency {count['latency_cycles']} < ceil(macs / {pe_count})")
        if count["latency_cycles"] < max(count["compute_cycles"], count["memory_cycles"]):
            found.append("latency below its compute or memory cycles")
    totals = {c: sum(count[c] for count in counts[:-1]) for c in COUNT_COLUMNS}
    if totals != counts[-1]:
        for found in problems.values():
            found.append("TOTAL row is not the sum of the layer rows")
    return problems


def schedules(records: list[tuple]) -> list[list[str]]:
    """Problems per (layer, hw, schedule) record under input-channel-aware weights."""
    found = []
    for layer, hw, schedule in records:
        try:
            validate_schedule(schedule, layer, hw, include_input_channels=True)
            found.append([])
        except InfeasibleScheduleError as exc:
            found.append([f"{layer.name}: {exc}"])
    return found


def read_disparity(path) -> np.ndarray:
    """Disparity raster written by svopt: binary PGM plus sidecar, -1 marks invalid.

    Read here rather than through svopt.pgm, so a reader fault cannot hide
    a writer fault.
    """
    raw = Path(path).read_bytes()
    fields = raw.split(maxsplit=4)
    if fields[0] != b"P5":
        raise ValueError(f"{path}: expected a binary PGM")
    width, height, maxval = (int(f) for f in fields[1:4])
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    body = raw[len(raw) - width * height * dtype.itemsize:]
    raster = np.frombuffer(body, dtype=dtype).astype(np.int64).reshape(height, width)
    meta = json.loads(Path(str(path) + ".json").read_text())
    d = raster // int(meta["scale"])
    d[raster == int(meta["invalid"])] = -1
    return d


def three_pixel_score(pred: np.ndarray, gt: np.ndarray) -> float:
    """Percent of valid ground-truth pixels predicted within 3 px."""
    xs = np.arange(gt.shape[1])[None, :]
    valid = (gt >= 0) & (xs + gt < gt.shape[1])
    good = valid & (pred >= 0) & (np.abs(pred - gt) < 3)
    return 100.0 * int(good.sum()) / max(int(valid.sum()), 1)


def ism_outputs(out_dir: Path, scene) -> tuple[list[list[str]], dict[int, float]]:
    """Problems per frame of one `svopt ism` run, and the score of each propagated frame."""
    problems = [[] for _ in range(scene.frames)]
    scores = {}
    try:
        header, rows = load_report(out_dir / "metrics.csv")
    except SpecValidationError as exc:
        return [[f"metrics.csv does not re-ingest: {exc}"] for _ in problems], scores
    if header != ["frame", "is_key", "three_pixel_error_pct"] or len(rows) != scene.frames:
        return [["metrics.csv has the wrong columns or rows"] for _ in problems], scores
    xs = np.arange(scene.width)[None, :]
    for t, (found, row) in enumerate(zip(problems, rows)):
        is_key = t % scene.pw == 0
        try:
            d = read_disparity(out_dir / f"disparity_{t:04d}.pgm")
        except (OSError, ValueError, KeyError) as exc:
            found.append(f"frame {t}: output does not read back: {exc}")
            continue
        gt = scene.disparity(t)
        if d.shape != gt.shape:
            found.append(f"frame {t}: output shape {d.shape}")
            continue
        if is_key and not np.array_equal(d, gt):
            found.append(f"frame {t}: key-frame output differs from the supplied map")
        if ((d < -1) | (d > scene.width - 1 - xs)).any():
            found.append(f"frame {t}: disparity outside [-1, W-1-x]")
        if row["frame"] != str(t) or row["is_key"] != ("1" if is_key else "0"):
            found.append(f"frame {t}: metrics.csv row {row}")
        score = three_pixel_score(d, gt)
        try:
            agrees = abs(float(row["three_pixel_error_pct"]) - score) <= 1e-4
        except ValueError:
            agrees = False
        if not agrees:
            found.append(f"frame {t}: reported score {row['three_pixel_error_pct']!r} != {score:.4f}")
        if not is_key:
            scores[t] = score
    return problems, scores
