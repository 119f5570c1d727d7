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

from .deconv import SubKernelSet, decompose_nd, parity_classes, phases
from .formats import (
    _MANIFEST_FIELDS,
    _MANIFEST_LAYER_FIELDS,
    _SUB_KERNEL_FIELDS,
    SpecValidationError,
    _save_json,
    check_name,
    load_hardware,
    load_network,
    load_report,
    load_sequence,
    save_schedule,
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
    output_dims,
    total_latency,
)
from .pgm import frame_from_pgm, read_disparity, write_disparity
from .scheduler import ScheduleMode, solve
from .tensor import Tensor

MODES = ("baseline", "convr", "ilar")
MODE_HELP = (
    "baseline: dense convolution over the zero-upsampled ifmap; convr: "
    "transformed, each sub-kernel's filters packed separately; ilar: "
    "transformed, rounds mix sub-kernels"
)

REPORT_HEADER = [
    "layer",
    "mode",
    "latency_cycles",
    "compute_cycles",
    "memory_cycles",
    "dram_ifmap_elems",
    "dram_weight_elems",
    "dram_ofmap_elems",
    "macs",
    "utilization",
]
# the LatencyReport counts behind REPORT_HEADER's count columns, in order
REPORT_COUNTS = (
    "total_cycles",
    "compute_cycles",
    "memory_cycles",
    "dram_ifmap",
    "dram_weights",
    "dram_ofmap",
    "macs",
)


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
    kernel_set = decompose_nd(Tensor.zeros(layer.kernel))
    if mode == "ilar":
        return layer, kernel_set, ScheduleMode.ILAR
    return layer, kernel_set, ScheduleMode.CONV_R


def _schedule_all(layers, hw: HardwareConfig, mode: str):
    planned = []
    for layer in layers:
        effective, kernel_set, schedule_mode = _effective_layer(layer, mode)
        schedule = solve(effective, kernel_set, hw, schedule_mode)
        planned.append((layer.name, effective, kernel_set, schedule))
    return planned


def cmd_transform(args) -> int:
    layers = load_network(args.network, strict=args.strict)
    records = []
    for layer in layers:
        owners = {k for k, *_ in phases(output_dims(layer), layer.kernel)}
        subs = [
            dict(zip(_SUB_KERNEL_FIELDS, (
                phase, list(delta), list(dims), [1 - d for d in delta], phase not in owners,
            ), strict=True))
            for phase, delta, dims in parity_classes(layer.kernel)
        ] if layer.kind is LayerKind.DECONV else []
        values = (layer.name, layer.kind.value, list(layer.kernel), subs)
        records.append(dict(zip(_MANIFEST_LAYER_FIELDS, values, strict=True)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_json(out_dir / "transform.json", _MANIFEST_FIELDS, True, records)
    return 0


def cmd_schedule(args) -> int:
    layers = load_network(args.network, strict=args.strict)
    hw = load_hardware(args.hardware, strict=args.strict)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, _, _, schedule in _schedule_all(layers, hw, args.mode):
        save_schedule(out_dir / f"schedule_{name}_{args.mode}.json", name, args.mode, schedule)
    return 0


def cmd_model(args) -> int:
    layers = load_network(args.network, strict=args.strict)
    hw = load_hardware(args.hardware, strict=args.strict)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def row(name: str, counts: list[int]) -> list[str]:
        total, macs = counts[0], counts[-1]
        utilization = macs / (total * hw.pe_count) if total else 0.0
        return [name, args.mode, *map(str, counts), f"{utilization:.6f}"]

    rows = []
    totals = [0] * len(REPORT_COUNTS)
    for name, effective, kernel_set, schedule in _schedule_all(layers, hw, args.mode):
        report = total_latency(schedule, effective, kernel_set, hw)
        counts = [getattr(report, field) for field in REPORT_COUNTS]
        rows.append(row(name, counts))
        totals = [t + c for t, c in zip(totals, counts)]
    rows.append(row("TOTAL", totals))
    write_csv(out_dir / f"report_{args.mode}.csv", REPORT_HEADER, rows)
    return 0


def cmd_ism(args) -> int:
    sequence = load_sequence(args.sequence, strict=args.strict)
    pw = args.pw if args.pw is not None else sequence.pw
    if pw < 2:
        raise SpecValidationError(f"propagation window must be >= 2, got {pw}")
    frames = []
    key_disp = {}
    gt = {}
    for i, entry in enumerate(sequence.frames):
        left, right = frame_from_pgm(entry.left), frame_from_pgm(entry.right)
        frames.append((left, right))
        rasters = [(entry.right, right.luma)]
        if i % pw == 0:
            if entry.key_disparity is None:
                raise SpecValidationError(
                    f"frame {i} is a key frame (pw={pw}) but has no key_disparity"
                )
            key_disp[i] = read_disparity(entry.key_disparity)
            rasters.append((entry.key_disparity, key_disp[i].d))
        if entry.gt_disparity is not None:
            gt[i] = read_disparity(entry.gt_disparity)
            rasters.append((entry.gt_disparity, gt[i].d))
        for path, raster in rasters:
            if raster.shape != left.luma.shape:
                (h, w), (lh, lw) = raster.shape, left.luma.shape
                raise SpecValidationError(
                    f"{path}: raster is {w}x{h}, but frame {i}'s left raster "
                    f"{entry.left} is {lw}x{lh}"
                )
    maps = ism_run(frames, key_disp, pw)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, dmap in enumerate(maps):
        write_disparity(out_dir / f"disparity_{i:04d}.pgm", dmap)
        err = f"{three_pixel_error(dmap, gt[i]):.4f}" if i in gt else ""
        rows.append([str(i), "1" if i % pw == 0 else "0", err])
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
    p.add_argument("--strict", action="store_true", help="reject unknown input fields")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("schedule", help="write a schedule file per layer")
    p.add_argument("--network", required=True)
    p.add_argument("--hardware", required=True)
    p.add_argument("--mode", required=True, choices=MODES, help=MODE_HELP)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("model", help="write the latency/traffic report CSV")
    p.add_argument("--network", required=True)
    p.add_argument("--hardware", required=True)
    p.add_argument("--mode", required=True, choices=MODES, help=MODE_HELP)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("ism", help="propagate key-frame disparity over a sequence")
    p.add_argument("--sequence", required=True, help="sequence manifest JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pw", type=int, default=None, help="propagation window override")
    p.add_argument("--strict", action="store_true")
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
