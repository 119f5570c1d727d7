"""Command-line front end.

Subcommands: transform (decomposition manifest), schedule (per-layer
schedule files), model (latency/traffic CSV), ism (disparity propagation
over a stereo sequence), report (joined comparison CSV and optional SVG
chart). Exit codes: 0 success, 2 input or validation error, 3 infeasible
schedule, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .deconv import SubKernelSet, decompose_nd
from .formats import (
    SpecValidationError,
    check_name,
    load_hardware,
    load_network,
    load_report,
    load_sequence,
    save_schedule,
    save_transform_manifest,
    write_bar_chart_svg,
    write_csv,
)
from .ism import ism_run, three_pixel_error
from .perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LayerKind,
    LayerSpec,
    dense_equivalent,
    total_latency,
)
from .pgm import frame_from_pgm, read_disparity, read_pgm_header, read_sidecar, write_disparity
from .scheduler import ScheduleMode, solve

MODES = ("baseline", "convr", "ilar")
MODE_HELP = (
    "baseline: dense convolution over the zero-upsampled ifmap; convr: "
    "transformed, each sub-kernel's filters packed separately; ilar: "
    "transformed, rounds mix sub-kernels"
)

# each count column of the model report, and the LatencyReport field it holds
REPORT_COUNTS = {
    "latency_cycles": "total_cycles",
    "compute_cycles": "compute_cycles",
    "memory_cycles": "memory_cycles",
    "dram_ifmap_elems": "dram_ifmap",
    "dram_weight_elems": "dram_weights",
    "dram_ofmap_elems": "dram_ofmap",
    "macs": "macs",
}


def _effective_layer(
    layer: LayerSpec, mode: str
) -> tuple[LayerSpec, SubKernelSet | None, ScheduleMode]:
    """What actually runs for `layer` under the requested mode.

    Convolutions are scheduled as-is in every mode. A deconvolution is
    modeled dense over its zero-upsampled ifmap in baseline mode, and is
    decomposed otherwise; convr packs each sub-kernel's filters
    separately, ilar lets rounds mix sub-kernels.
    """
    if layer.kind is LayerKind.CONV:
        return layer, None, ScheduleMode.CONV_R
    if mode == "baseline":
        return dense_equivalent(layer), None, ScheduleMode.CONV_R
    return layer, decompose_nd(np.zeros(layer.kernel)), ScheduleMode(mode)


def _schedule_all(layers, hw: HardwareConfig, mode: str):
    planned = []
    for layer in layers:
        effective, kernel_set, schedule_mode = _effective_layer(layer, mode)
        schedule = solve(effective, kernel_set, hw, schedule_mode)
        planned.append((layer.name, effective, kernel_set, schedule))
    return planned


def cmd_transform(args) -> int:
    layers = load_network(args.network)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_transform_manifest(out_dir / "transform.json", layers)
    return 0


def cmd_schedule(args) -> int:
    layers = load_network(args.network)
    hw = load_hardware(args.hardware)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, _, _, schedule in _schedule_all(layers, hw, args.mode):
        save_schedule(out_dir / f"schedule_{name}_{args.mode}.json", name, args.mode, schedule)
    return 0


def cmd_model(args) -> int:
    layers = load_network(args.network)
    hw = load_hardware(args.hardware)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def row(name: str, counts: dict[str, int]) -> list[str]:
        total, macs = counts["total_cycles"], counts["macs"]
        utilization = macs / (total * hw.pe_count) if total else 0.0
        return [name, args.mode, *map(str, counts.values()), f"{utilization:.6f}"]

    rows = []
    totals = dict.fromkeys(REPORT_COUNTS.values(), 0)
    for name, effective, kernel_set, schedule in _schedule_all(layers, hw, args.mode):
        report = total_latency(schedule, effective, kernel_set, hw)
        counts = {field: getattr(report, field) for field in REPORT_COUNTS.values()}
        rows.append(row(name, counts))
        totals = {field: totals[field] + c for field, c in counts.items()}
    rows.append(row("TOTAL", totals))
    header = ["layer", "mode", *REPORT_COUNTS, "utilization"]
    write_csv(out_dir / f"report_{args.mode}.csv", header, rows)
    return 0


def _check_sequence(sequence) -> None:
    """Raise SpecValidationError for a sequence `cmd_ism` would stop on, before any sample is read.

    Every key frame (every `sequence.pw`-th) must have a key map and every
    disparity map a good sidecar (`read_sidecar`). From the PGM headers,
    every raster must be as large as its frame's left raster, and every
    left raster as frame 0's; every view must share frame 0's left maxval,
    as SADs compare raw samples.
    """
    def same_size(path, size, j, want):
        if size != want:
            (w, h), (lw, lh) = size, want
            raise SpecValidationError(f"{path}: raster is {w}x{h}, but frame {j}'s left raster "
                                      f"{sequence.frames[j].left} is {lw}x{lh}")

    pw = sequence.pw
    first = None  # frame 0's left raster header
    for i, entry in enumerate(sequence.frames):
        maps = [] if entry.gt_disparity is None else [entry.gt_disparity]
        if i % pw == 0:
            if entry.key_disparity is None:
                raise SpecValidationError(
                    f"frame {i} is a key frame (pw={pw}) but has no key_disparity"
                )
            maps.insert(0, entry.key_disparity)
        for path in maps:
            read_sidecar(path)
        left, right = read_pgm_header(entry.left), read_pgm_header(entry.right)
        first = first or left
        same_size(entry.left, left[:2], 0, first[:2])
        same_size(entry.right, right[:2], i, left[:2])
        for path in maps:
            same_size(path, read_pgm_header(path)[:2], i, left[:2])
        for path, (_, _, maxval) in ((entry.left, left), (entry.right, right)):
            if maxval != first[2]:
                raise SpecValidationError(
                    f"{path}: maxval is {maxval}, but frame 0's left raster "
                    f"{sequence.frames[0].left} has maxval {first[2]}")


def cmd_ism(args) -> int:
    sequence = load_sequence(args.sequence)
    _check_sequence(sequence)
    pw = sequence.pw
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def frames():
        for i, entry in enumerate(sequence.frames):
            yield (frame_from_pgm(entry.left), frame_from_pgm(entry.right),
                   read_disparity(entry.key_disparity) if i % pw == 0 else None)

    rows = []

    def emit(dmap):
        i = len(rows)
        write_disparity(out_dir / f"disparity_{i:04d}.pgm", dmap)
        gt = sequence.frames[i].gt_disparity
        err = "" if gt is None else f"{three_pixel_error(dmap, read_disparity(gt)):.4f}"
        rows.append([str(i), "1" if i % pw == 0 else "0", err])

    ism_run(frames(), emit)
    # written last, so a run stopped by a bad input leaves no metrics.csv
    write_csv(out_dir / "metrics.csv", ["frame", "is_key", "three_pixel_error_pct"], rows)
    return 0


def _latency_column(path) -> dict[str, str]:
    """Each layer's latency_cycles cell in a `svopt model` CSV, in row order."""
    header, rows = load_report(path)
    missing = sorted({"layer", "latency_cycles"} - set(header))
    if missing:
        raise SpecValidationError(f"{path}: missing column(s) {missing}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise SpecValidationError(f"{path}: repeated column(s) {repeated}")
    column = {}
    for row in rows:
        layer, cycles = row["layer"], row["latency_cycles"]
        if layer in column:
            raise SpecValidationError(f"{path}: layer {layer!r} is listed twice")
        if not (cycles.isascii() and cycles.isdigit()):
            raise SpecValidationError(
                f"{path}: layer {layer!r}: column 'latency_cycles' must be a "
                f"non-negative integer, got {cycles!r}"
            )
        column[layer] = cycles
    return column


def cmd_report(args) -> int:
    runs = {}
    for spec in args.run:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise SpecValidationError(f"--run expects NAME=CSV, got {spec!r}")
        check_name(f"--run {spec!r}", "NAME", name)
        if name in runs:
            raise SpecValidationError(f"--run {spec!r}: run {name!r} is already named")
        runs[name] = path
    if not runs:
        raise SpecValidationError("report needs at least one --run NAME=CSV")
    baseline = args.baseline or next(iter(runs))
    if baseline not in runs:
        raise SpecValidationError(f"baseline {baseline!r} is not among the named runs")
    tables = {name: _latency_column(path) for name, path in runs.items()}
    order = list(tables[next(iter(runs))])
    for name, table in tables.items():
        if set(table) != set(order):
            raise SpecValidationError(f"run {name!r} covers a different layer set")
    header = ["layer"]
    for name in runs:
        header.append(f"{name}_latency_cycles")
    for name in runs:
        if name != baseline:
            header.append(f"speedup_{name}")
    out_rows = []
    for layer in order:
        row = [layer]
        for name in runs:
            row.append(tables[name][layer])
        base_cycles = int(tables[baseline][layer])
        for name in runs:
            if name == baseline:
                continue
            cycles = int(tables[name][layer])
            row.append(f"{base_cycles / cycles:.6f}" if cycles else "")
        out_rows.append(row)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "comparison.csv", header, out_rows)
    if args.svg:
        labels = [layer for layer in order if layer != "TOTAL"]
        series = [(name, [float(table[layer]) for layer in labels])
                  for name, table in tables.items()]
        write_bar_chart_svg(
            out_dir / "comparison.svg", "modeled latency (cycles)", labels, series
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svopt",
        description="Deconvolution transformation, accelerator schedule modeling, "
        "and stereo disparity propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="write the sub-kernel decomposition manifest")
    p.add_argument("--network", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_transform)

    for name, summary, func in (("schedule", "write a schedule file per layer", cmd_schedule),
                                ("model", "write the latency/traffic report CSV", cmd_model)):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--network", required=True)
        p.add_argument("--hardware", required=True)
        p.add_argument("--mode", required=True, choices=MODES, help=MODE_HELP)
        p.add_argument("--out-dir", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("ism", help="propagate key-frame disparity over a sequence")
    p.add_argument("--sequence", required=True, help="sequence manifest JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ism)

    p = sub.add_parser("report", help="join named model runs into a comparison")
    p.add_argument("--run", action="append", default=[], metavar="NAME=CSV")
    p.add_argument("--baseline", default=None, help="run name speedups are relative to")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svg", action="store_true", help="also write a bar chart SVG")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleScheduleError as exc:
        print(f"infeasible schedule: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
