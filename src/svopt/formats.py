"""On-disk artifact formats: JSON specs and schedules, CSV reports, SVG charts.

Every emitted file re-ingests losslessly and is byte-stable for identical
inputs: JSON is dumped with sorted keys, CSV uses commas, "." decimals,
and LF line endings, and the SVG is assembled from fixed-format strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .deconv import parity_classes, phases
from .perfmodel import HardwareConfig, LayerKind, LayerSpec, TileGrid, TileSchedule, output_dims

__all__ = [
    "SpecValidationError",
    "SequenceEntry",
    "SequenceSpec",
    "check_name",
    "load_hardware",
    "load_network",
    "load_report",
    "load_schedule",
    "load_sequence",
    "load_transform_manifest",
    "save_network",
    "save_schedule",
    "save_transform_manifest",
    "write_csv",
    "write_bar_chart_svg",
]


class SpecValidationError(ValueError):
    """An input file failed to parse or violated a spec invariant."""


# every file's own field: read with kind 1 or 2 (that integer), written as it stands
_HEADER = {"format_version": 1}
_SCHEDULE_HEADER = {"format_version": 2}  # a tile grid, where version 1 listed every round


def _load_json(path, table: dict, strict: bool = True, header: dict = _HEADER) -> dict:
    """Read a JSON object file whose `header` (checked first) and `table` declare its fields."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SpecValidationError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise SpecValidationError(f"{path}: top level must be a JSON object")
    _record(str(path), data, header, strict=False)
    return _record(str(path), data, {**header, **table}, strict)


def _save_json(path, table: dict, *values, header: dict = _HEADER) -> None:
    """Write a JSON object file of `header`'s version: `values` in `table`'s field order."""
    obj = {**header, **dict(zip(table, values, strict=True))}
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, but JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


# field kind: (accepts a value, what a value must be, what list items must be)
_KINDS = {
    int: (_is_int, "a JSON integer", "JSON integers"),
    float: (lambda v: v == "inf" or isinstance(v, float) or _is_int(v), 'a JSON number or "inf"',
            None),
    str: (lambda v: isinstance(v, str), "a string", None),
    bool: (lambda v: isinstance(v, bool), "true or false", None),
    "true": (lambda v: v is True, "true", None),
    dict: (lambda v: isinstance(v, dict), "an object", "objects"),
    1: (lambda v: _is_int(v) and v == 1, "1", None),
    2: (lambda v: _is_int(v) and v == 2, "2", None),
}
_REQUIRED = object()


def _field(context: str, record: dict, name: str, kind, default=_REQUIRED):
    """Read field `name` of a JSON object and check its JSON type.

    `kind` is int, float (a number or "inf", read as a float), str, bool,
    "true" (JSON true alone), 1 or 2 (that integer), or [int] or [dict] for
    a list of those read as a tuple ([int, int]: of two integers). An
    optional field that is missing reads as `default`, and so does a null
    when the default is None; a required field must already be known to be
    present (_record). Raises SpecValidationError naming the record and the
    field on a wrong type.
    """
    value = record.get(name, default)
    if value is default:
        return value
    if isinstance(kind, list):
        accepts, _, items = _KINDS[kind[0]]
        length = len(kind) if len(kind) > 1 else None
        ok = (isinstance(value, list) and length in (None, len(value))
              and all(map(accepts, value)))
        want = f"a list of {'' if length is None else f'{length} '}{items}"
    else:
        accepts, want, _ = _KINDS[kind]
        ok = accepts(value)
    if not ok:
        raise SpecValidationError(f"{context}: field {name!r} must be {want}, got {value!r}")
    if kind is float:
        return math.inf if value == "inf" else float(value)
    return tuple(value) if isinstance(kind, list) else value


def _record(context: str, record: dict, table: dict, strict: bool = True) -> dict:
    """The fields of a JSON object that `table` declares, by name.

    `table` maps each name to a kind (a required field) or to a (kind,
    default) pair (an optional one), as _field reads them. Reports missing
    fields, then undeclared ones (unless `strict` is off), then wrong JSON types.
    """
    specs = {name: spec if isinstance(spec, tuple) else (spec,) for name, spec in table.items()}
    missing = {name for name, spec in specs.items() if len(spec) == 1} - record.keys()
    if missing:
        raise SpecValidationError(f"{context}: missing field(s) {sorted(missing)}")
    unknown = record.keys() - table.keys()
    if strict and unknown:
        raise SpecValidationError(f"{context}: unknown field(s) {sorted(unknown)}")
    return {name: _field(context, record, name, *spec) for name, spec in specs.items()}


def check_name(context: str, field: str, name: str) -> None:
    """Reject a layer or run name that the emitted files cannot carry.

    A name becomes a CSV cell, part of a file name and an SVG label, and a
    report's totals row is named TOTAL: so a name may not be TOTAL or hold
    a comma, a slash, a backslash or a control character such as CR or LF.
    """
    if name == "TOTAL" or any(c in ",/\\" or c < " " or c == "\x7f" for c in name):
        raise SpecValidationError(
            f"{context}: field {field!r} must not be TOTAL or hold a comma, slash, "
            f"backslash or control character, got {name!r}"
        )


# each record's fields (_record); a file's top-level record also holds _HEADER
_LAYER_FIELDS = {"name": str, "kind": str, "kernel": [int], "in_channels": int,
                 "out_channels": int, "ifmap": [int], "stride": int}
_NETWORK_FIELDS = {"layers": [dict]}
_HARDWARE_FIELDS = {"pe_array": [int, int], "buffer_capacity": int, "bandwidth": float,
                    "double_buffered": (bool, True)}
_SCHEDULE_FIELDS = {"layer": str, "mode": str, "beta": int, "ifmap": [int], "tile": [int],
                    "parts": [dict]}
_PART_FIELDS = {"filters": [int]}
_MANIFEST_FIELDS = {"with_border": "true", "layers": [dict]}
_MANIFEST_LAYER_FIELDS = {"name": str, "kind": str, "kernel": [int], "sub_kernels": [dict]}
_SUB_KERNEL_FIELDS = {"phase": int, "delta": [int], "dims": [int], "ofmap_parity": [int],
                      "empty": bool}
_SEQUENCE_FIELDS = {"frames": [dict], "pw": (int, 2)}
_FRAME_FIELDS = {"left": str, "right": str, "key_disparity": (str, None),
                 "gt_disparity": (str, None)}


def load_network(path, strict: bool = True) -> list[LayerSpec]:
    """Parse and validate an ordered layer list.

    Checks field types, names (check_name), positive extents, kernel fit,
    the stride-2 restriction on deconvolutions, unique names, and channel
    chaining between consecutive layers.
    """
    layers: list[LayerSpec] = []
    names = set()
    for i, record in enumerate(_load_json(path, _NETWORK_FIELDS, strict)["layers"]):
        fields = _record(f"{path}: layer {i}", record, _LAYER_FIELDS, strict)
        check_name(f"{path}: layer {i}", "name", fields["name"])
        context = f"{path}: layer {fields['name']!r}"
        try:
            fields["kind"] = LayerKind(fields["kind"])
        except ValueError:
            raise SpecValidationError(f"{context}: field 'kind' must be conv or deconv")
        try:
            layer = LayerSpec(**fields)
        except ValueError as exc:  # names the layer itself
            raise SpecValidationError(f"{path}: {exc}")
        if layer.name in names:
            raise SpecValidationError(f"{context}: field 'name' duplicates an earlier layer")
        names.add(layer.name)
        if layers and layers[-1].out_channels != layer.in_channels:
            raise SpecValidationError(
                f"{context}: field 'in_channels' is {layer.in_channels} but the "
                f"previous layer emits {layers[-1].out_channels} channels"
            )
        layers.append(layer)
    if not layers:
        raise SpecValidationError(f"{path}: network has no layers")
    return layers


def save_network(path, layers: list[LayerSpec]) -> None:
    records = [{name: getattr(layer, name) for name in _LAYER_FIELDS} for layer in layers]
    for record in records:
        record["kind"] = record["kind"].value
    _save_json(path, _NETWORK_FIELDS, records)


def load_hardware(path, strict: bool = True) -> HardwareConfig:
    data = _load_json(path, _HARDWARE_FIELDS, strict)
    try:
        return HardwareConfig(*data["pe_array"], data["buffer_capacity"], data["bandwidth"],
                              data["double_buffered"])
    except ValueError as exc:
        raise SpecValidationError(f"{path}: {exc}")


def save_schedule(path, layer_name: str, mode: str, schedule: TileSchedule) -> None:
    if schedule.grid is None:
        raise ValueError(f"{path}: a schedule file holds a tile grid, not explicit rounds")
    ifmap, tile, parts = schedule.grid
    _save_json(path, _SCHEDULE_FIELDS, layer_name, mode, schedule.beta, ifmap, tile,
               [{"filters": part} for part in parts], header=_SCHEDULE_HEADER)


def load_schedule(path) -> tuple[str, str, TileSchedule]:
    data = _load_json(path, _SCHEDULE_FIELDS, header=_SCHEDULE_HEADER)
    parts = tuple(_record(f"{path}: part {i}", record, _PART_FIELDS)["filters"]
                  for i, record in enumerate(data["parts"]))
    try:
        schedule = TileSchedule(data["beta"], grid=TileGrid(data["ifmap"], data["tile"], parts))
    except ValueError as exc:
        raise SpecValidationError(f"{path}: {exc}")
    return data["layer"], data["mode"], schedule


def save_transform_manifest(path, layers: list[LayerSpec]) -> None:
    """Write each layer's kernel and, for a deconvolution, its parity slices.

    A slice is empty exactly when deconv.phases gives it no output.
    """
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
    _save_json(path, _MANIFEST_FIELDS, True, records)


def load_transform_manifest(path) -> dict:
    data = _load_json(path, _MANIFEST_FIELDS)
    layers = []
    for i, record in enumerate(data["layers"]):
        layer = _record(f"{path}: layer {i}", record, _MANIFEST_LAYER_FIELDS)
        layer["sub_kernels"] = tuple(
            _record(f"{path}: layer {i} sub-kernel {j}", sub, _SUB_KERNEL_FIELDS)
            for j, sub in enumerate(layer["sub_kernels"]))
        layers.append(layer)
    return {**data, "layers": tuple(layers)}


def write_csv(path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_report(path) -> tuple[list[str], list[dict[str, str]]]:
    """Read back a CSV written by write_csv; returns (header, row dicts)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SpecValidationError(f"{path}: file not found")
    lines = [line for line in text.split("\n") if line]
    if not lines:
        raise SpecValidationError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise SpecValidationError(f"{path}: ragged CSV row {line!r}")
        rows.append(dict(zip(header, cells)))
    return header, rows


@dataclass(frozen=True)
class SequenceEntry:
    left: Path
    right: Path
    key_disparity: Path | None
    gt_disparity: Path | None


@dataclass(frozen=True)
class SequenceSpec:
    pw: int
    frames: list[SequenceEntry]


def load_sequence(path, strict: bool = True) -> SequenceSpec:
    """Parse a stereo sequence manifest; paths resolve relative to it, none empty or a dir."""
    data = _load_json(path, _SEQUENCE_FIELDS, strict)
    base = Path(path).parent
    frames = []
    for i, record in enumerate(data["frames"]):
        fields = _record(f"{path}: frame {i}", record, _FRAME_FIELDS, strict)
        for name, value in fields.items():
            if value == "":
                raise SpecValidationError(f"{path}: frame {i}: field {name!r} is an empty path")
            if value is not None and (base / value).is_dir():
                raise SpecValidationError(
                    f"{path}: frame {i}: field {name!r} names a directory ({base / value})")
        frames.append(SequenceEntry(**{name: None if value is None else base / value
                                       for name, value in fields.items()}))
    if not frames:
        raise SpecValidationError(f"{path}: sequence has no frames")
    if data["pw"] < 2:
        raise SpecValidationError(f"{path}: field 'pw' must be >= 2")
    return SequenceSpec(pw=data["pw"], frames=frames)


def _escape(text: str) -> str:
    """Text as SVG character data (xml.sax.saxutils would import urllib and http)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ["#4878a8", "#e8803c", "#589858", "#b05454", "#8868a8", "#a89048"]


def write_bar_chart_svg(path, title: str, group_labels: list[str],
                        series: list[tuple[str, list[float]]]) -> None:
    """Grouped bar chart, one group per label, one bar per series entry.

    Pure string assembly with fixed number formatting and XML-escaped
    text, so identical inputs produce identical bytes.
    """
    width, height = 960, 420
    left, right, top, bottom = 70, 20, 40, 70
    plot_w = width - left - right
    plot_h = height - top - bottom
    peak = max((max(vals) for _, vals in series if vals), default=1.0) or 1.0
    n_groups = max(len(group_labels), 1)
    n_series = max(len(series), 1)
    group_w = plot_w / n_groups
    bar_w = group_w * 0.8 / n_series
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{_escape(title)}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#000000"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="#000000"/>',
    ]
    for gi, label in enumerate(group_labels):
        gx = left + gi * group_w
        for si, (_, vals) in enumerate(series):
            value = vals[gi] if gi < len(vals) else 0.0
            bar_h = plot_h * value / peak
            x = gx + group_w * 0.1 + si * bar_w
            y = top + plot_h - bar_h
            color = _PALETTE[si % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                f'height="{bar_h:.2f}" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{gx + group_w / 2:.2f}" y="{top + plot_h + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(label)}</text>'
        )
    for si, (name, _) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        x = left + si * 150
        y = height - 24
        parts.append(f'<rect x="{x}" y="{y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{x + 18}" y="{y}" font-size="12" '
                     f'font-family="sans-serif">{_escape(name)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
