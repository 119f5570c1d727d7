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

from .perfmodel import HardwareConfig, LayerKind, LayerSpec, RoundPlan, TileSchedule

__all__ = [
    "SpecValidationError",
    "SequenceEntry",
    "SequenceSpec",
    "dump_json",
    "ingest",
    "load_hardware",
    "load_network",
    "load_report",
    "load_schedule",
    "load_sequence",
    "load_transform_manifest",
    "save_network",
    "save_schedule",
    "write_csv",
    "write_bar_chart_svg",
]


class SpecValidationError(ValueError):
    """An input file failed to parse or violated a spec invariant."""


def dump_json(path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _load_json(path, required: set, optional: set = frozenset(), strict: bool = False) -> dict:
    """Read a JSON object file in format version 1 with the given top-level fields.

    `format_version` is required besides `required`; with `strict`, a
    field in neither set is an error.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SpecValidationError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise SpecValidationError(f"{path}: top level must be a JSON object")
    _check_fields(str(path), data, {"format_version", *required}, optional, strict)
    version = data["format_version"]
    if not (_is_int(version) and version == 1):
        raise SpecValidationError(f"{path}: field 'format_version' must be 1, got {version!r}")
    return data


def _check_fields(context: str, record: dict, required: set, optional: set, strict: bool):
    missing = required - record.keys()
    if missing:
        raise SpecValidationError(f"{context}: missing field(s) {sorted(missing)}")
    if strict:
        unknown = record.keys() - required - optional
        if unknown:
            raise SpecValidationError(f"{context}: unknown field(s) {sorted(unknown)}")


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
    dict: (lambda v: isinstance(v, dict), "an object", "objects"),
}
_REQUIRED = object()


def _field(context: str, record: dict, name: str, kind, default=_REQUIRED, length=None):
    """Read field `name` of a JSON object and check its JSON type.

    `kind` is int, float (a number or "inf", read as a float), str, bool,
    or [int] or [dict] for a list of those, read as a tuple of `length`
    items if a length is given. An optional field that is missing reads
    as `default`, and so does a null when the default is None; a required
    field must already be known to be present (_check_fields). Raises
    SpecValidationError naming the record and the field on a wrong type.
    """
    value = record.get(name, default)
    if value is default:
        return value
    if isinstance(kind, list):
        accepts, _, items = _KINDS[kind[0]]
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


_LAYER_FIELDS = {"name": str, "kind": str, "kernel": [int], "in_channels": int,
                 "out_channels": int, "ifmap": [int], "stride": int}


def load_network(path, strict: bool = False) -> list[LayerSpec]:
    """Parse and validate an ordered layer list.

    Checks field types, positive extents, the stride-2 restriction on
    deconvolutions, unique names, and channel chaining between
    consecutive layers.
    """
    data = _load_json(path, {"layers"}, strict=strict)
    layers: list[LayerSpec] = []
    names = set()
    for i, record in enumerate(_field(str(path), data, "layers", [dict])):
        context = f"{path}: layer {i}"
        _check_fields(context, record, set(_LAYER_FIELDS), set(), strict)
        context = f"{path}: layer {_field(context, record, 'name', str)!r}"
        fields = {name: _field(context, record, name, kind) for name, kind in _LAYER_FIELDS.items()}
        try:
            fields["kind"] = LayerKind(fields["kind"])
        except ValueError:
            raise SpecValidationError(f"{context}: field 'kind' must be conv or deconv")
        try:
            layer = LayerSpec(**fields)
        except ValueError as exc:
            raise SpecValidationError(f"{context}: {exc}")
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
    dump_json(
        path,
        {
            "format_version": 1,
            "layers": [
                {
                    "name": layer.name,
                    "kind": layer.kind.value,
                    "kernel": list(layer.kernel),
                    "in_channels": layer.in_channels,
                    "out_channels": layer.out_channels,
                    "ifmap": list(layer.ifmap),
                    "stride": layer.stride,
                }
                for layer in layers
            ],
        },
    )


def load_hardware(path, strict: bool = False) -> HardwareConfig:
    data = _load_json(path, {"pe_array", "buffer_capacity", "bandwidth"}, {"double_buffered"},
                      strict)
    context = str(path)
    pe_rows, pe_cols = _field(context, data, "pe_array", [int], length=2)
    capacity = _field(context, data, "buffer_capacity", int)
    bandwidth = _field(context, data, "bandwidth", float)
    double_buffered = _field(context, data, "double_buffered", bool, True)
    try:
        return HardwareConfig(pe_rows, pe_cols, capacity, bandwidth, double_buffered)
    except ValueError as exc:
        raise SpecValidationError(f"{path}: {exc}")


def ingest(network_path, hardware_path, strict: bool = False):
    """Load and validate a network and hardware description together."""
    return load_network(network_path, strict), load_hardware(hardware_path, strict)


def save_schedule(path, layer_name: str, mode: str, schedule: TileSchedule) -> None:
    dump_json(
        path,
        {
            "format_version": 1,
            "layer": layer_name,
            "mode": mode,
            "beta": schedule.beta,
            "rounds": [
                {
                    "origin": list(r.origin),
                    "tile": list(r.tile),
                    "filters": list(r.filters),
                }
                for r in schedule.rounds
            ],
        },
    )


def load_schedule(path) -> tuple[str, str, TileSchedule]:
    data = _load_json(path, {"layer", "mode", "beta", "rounds"})
    context = str(path)
    rounds = []
    for i, record in enumerate(_field(context, data, "rounds", [dict])):
        round_context = f"{path}: round {i}"
        _check_fields(round_context, record, {"origin", "tile", "filters"}, set(), False)
        rounds.append(RoundPlan(*(_field(round_context, record, name, [int])
                                  for name in ("origin", "tile", "filters"))))
    beta = _field(context, data, "beta", int)
    try:
        schedule = TileSchedule(beta, tuple(rounds))
    except ValueError as exc:
        raise SpecValidationError(f"{path}: {exc}")
    return _field(context, data, "layer", str), _field(context, data, "mode", str), schedule


def load_transform_manifest(path) -> dict:
    return _load_json(path, {"with_border", "layers"})


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


def load_sequence(path, strict: bool = False) -> SequenceSpec:
    """Parse a stereo sequence manifest; file paths resolve relative to it."""
    data = _load_json(path, {"frames"}, {"pw"}, strict)
    context = str(path)
    base = Path(path).parent
    frames = []
    for i, record in enumerate(_field(context, data, "frames", [dict])):
        frame = f"{path}: frame {i}"
        _check_fields(frame, record, {"left", "right"}, {"key_disparity", "gt_disparity"}, strict)
        key, gt = (_field(frame, record, name, str, None)
                   for name in ("key_disparity", "gt_disparity"))
        frames.append(
            SequenceEntry(
                left=base / _field(frame, record, "left", str),
                right=base / _field(frame, record, "right", str),
                key_disparity=base / key if key else None,
                gt_disparity=base / gt if gt else None,
            )
        )
    if not frames:
        raise SpecValidationError(f"{path}: sequence has no frames")
    pw = _field(context, data, "pw", int, 2)
    if pw < 2:
        raise SpecValidationError(f"{path}: field 'pw' must be >= 2")
    return SequenceSpec(pw=pw, frames=frames)


_PALETTE = ["#4878a8", "#e8803c", "#589858", "#b05454", "#8868a8", "#a89048"]


def write_bar_chart_svg(path, title: str, group_labels: list[str],
                        series: list[tuple[str, list[float]]]) -> None:
    """Grouped bar chart, one group per label, one bar per series entry.

    Pure string assembly with fixed number formatting, so identical
    inputs produce identical bytes.
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
        f'font-family="sans-serif">{title}</text>',
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
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )
    for si, (name, _) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        x = left + si * 150
        y = height - 24
        parts.append(f'<rect x="{x}" y="{y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 18}" y="{y}" font-size="12" font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
