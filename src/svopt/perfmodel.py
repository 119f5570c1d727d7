"""Analytical latency and DRAM-traffic model of a double-buffered systolic array.

A layer executes as a sequence of rounds. Each round holds one ifmap
tile plus a chosen number of filters per sub-kernel in the on-chip
buffer, and its latency is the maximum of its compute time and its
memory time. Compute time serializes the sub-kernels on the PE array
(one ceiling per sub-kernel); memory time depends on the reuse order
beta: with beta=1 the sub-kernels stay resident and the ifmap tile plus
fresh ofmap elements move each round, with beta=0 the ifmap tile stays
resident and the weights plus ofmap elements move. All quantities are
whole elements and whole cycles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .deconv import SubKernelSet, _slice_dims

__all__ = [
    "DramDeltas",
    "HardwareConfig",
    "InfeasibleScheduleError",
    "LatencyReport",
    "LayerKind",
    "LayerSpec",
    "RoundCost",
    "RoundPlan",
    "TileSchedule",
    "check_buffer",
    "compute_time",
    "dense_equivalent",
    "dram_deltas",
    "filter_group_dims",
    "memory_time",
    "output_dims",
    "total_latency",
    "validate_schedule",
]


class InfeasibleScheduleError(Exception):
    """A schedule violates the buffer-capacity or filter-coverage constraint."""


class LayerKind(enum.Enum):
    CONV = "conv"
    DECONV = "deconv"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class HardwareConfig:
    """Resource budget: PE array (MAC/cycle), buffer elements, DRAM elements/cycle."""

    pe_rows: int
    pe_cols: int
    buffer_capacity: int
    bandwidth: float
    double_buffered: bool = True

    def __post_init__(self) -> None:
        if self.pe_rows < 1 or self.pe_cols < 1:
            raise ValueError("PE array extents must be positive")
        if self.buffer_capacity < 1:
            raise ValueError("buffer capacity must be positive")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @property
    def pe_count(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def usable_buffer(self) -> int:
        """Per-round capacity; half the buffer when double buffering splits it."""
        if self.double_buffered:
            return self.buffer_capacity // 2
        return self.buffer_capacity


@dataclass(frozen=True)
class LayerSpec:
    """One convolution or stride-2 deconvolution layer."""

    name: str
    kind: LayerKind
    kernel: tuple[int, ...]
    in_channels: int
    out_channels: int
    ifmap: tuple[int, ...]
    stride: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", tuple(int(k) for k in self.kernel))
        object.__setattr__(self, "ifmap", tuple(int(e) for e in self.ifmap))
        if len(self.kernel) != len(self.ifmap):
            raise ValueError(
                f"layer {self.name}: kernel rank {len(self.kernel)} != ifmap rank {len(self.ifmap)}"
            )
        if not 2 <= len(self.kernel) <= 3:
            raise ValueError(f"layer {self.name}: only rank-2 and rank-3 layers are modeled")
        if any(k < 1 for k in self.kernel) or any(e < 1 for e in self.ifmap):
            raise ValueError(f"layer {self.name}: extents must be positive")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError(f"layer {self.name}: channel counts must be positive")
        if self.stride < 1:
            raise ValueError(f"layer {self.name}: stride must be positive")
        if self.kind is LayerKind.DECONV and self.stride != 2:
            raise ValueError(f"layer {self.name}: deconvolution layers require stride 2")

    @property
    def rank(self) -> int:
        return len(self.kernel)


@dataclass(frozen=True)
class RoundPlan:
    """One buffer round: an ifmap tile plus per-sub-kernel filter counts."""

    origin: tuple[int, ...]
    tile: tuple[int, ...]
    filters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", tuple(int(o) for o in self.origin))
        object.__setattr__(self, "tile", tuple(int(t) for t in self.tile))
        object.__setattr__(self, "filters", tuple(int(c) for c in self.filters))
        if any(o < 0 for o in self.origin) or any(t < 1 for t in self.tile):
            raise ValueError(f"bad round geometry: origin {self.origin}, tile {self.tile}")
        if any(c < 0 for c in self.filters):
            raise ValueError(f"negative filter count in {self.filters}")


@dataclass(frozen=True)
class TileSchedule:
    """Ordered rounds covering a layer, plus the per-layer reuse order beta."""

    beta: int
    rounds: tuple[RoundPlan, ...]

    def __post_init__(self) -> None:
        if self.beta not in (0, 1):
            raise ValueError(f"beta must be 0 or 1, got {self.beta}")
        object.__setattr__(self, "rounds", tuple(self.rounds))

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class RoundCost:
    compute_cycles: int
    memory_cycles: int

    @property
    def cycles(self) -> int:
        return max(self.compute_cycles, self.memory_cycles)


@dataclass(frozen=True)
class DramDeltas:
    """Elements moved for one round: ifmap tile, weights per group, ofmap per group."""

    ifmap: int
    weights: tuple[int, ...]
    ofmap: tuple[int, ...]


@dataclass(frozen=True)
class LatencyReport:
    """Per-layer cost summary under one schedule."""

    total_cycles: int
    compute_cycles: int
    memory_cycles: int
    dram_ifmap: int
    dram_weights: int
    dram_ofmap: int
    macs: int
    utilization: float
    rounds: tuple[RoundCost, ...]


def filter_group_dims(layer: LayerSpec) -> tuple[tuple[int, ...], ...]:
    """Kernel extents of each filter group the model schedules.

    A convolution has a single group, its own kernel. A deconvolution has
    one group per non-empty sub-kernel, in phase order.
    """
    if layer.kind is LayerKind.CONV:
        return (layer.kernel,)
    groups = []
    for k in range(2**layer.rank):
        delta = tuple((k >> j) & 1 for j in range(layer.rank))
        dims = _slice_dims(layer.kernel, delta)
        if all(dims):
            groups.append(dims)
    return tuple(groups)


def _groups_for(layer: LayerSpec, kernel_set: SubKernelSet | None) -> tuple[tuple[int, ...], ...]:
    expected = filter_group_dims(layer)
    if layer.kind is LayerKind.DECONV:
        if kernel_set is None:
            raise ValueError(f"layer {layer.name}: deconvolution rounds need a SubKernelSet")
        actual = tuple(sub.dims for sub in kernel_set.non_empty())
        if actual != expected:
            raise ValueError(
                f"layer {layer.name}: sub-kernel dims {actual} do not match kernel "
                f"{layer.kernel} (expected {expected})"
            )
    return expected


def compute_time(
    round_: RoundPlan,
    layer: LayerSpec,
    kernel_set: SubKernelSet | None,
    hw: HardwareConfig,
) -> int:
    """Cycles the PE array needs for one round, sub-kernels serialized.

    Each group runs to completion before the next starts, so the ceiling
    applies per group: sum_k ceil(prod(group_k) * I * C_k * prod(tile) / A).
    """
    groups = _groups_for(layer, kernel_set)
    if len(round_.filters) != len(groups):
        raise ValueError(
            f"round carries {len(round_.filters)} filter counts for {len(groups)} groups"
        )
    tile_elems = math.prod(round_.tile)
    cycles = 0
    for dims, c in zip(groups, round_.filters):
        if c == 0:
            continue
        macs = math.prod(dims) * layer.in_channels * c * tile_elems
        cycles += _ceil_div(macs, hw.pe_count)
    return cycles


def dram_deltas(
    round_: RoundPlan,
    layer: LayerSpec,
    *,
    include_input_channels: bool = False,
) -> DramDeltas:
    """Element traffic of one round.

    ifmap = prod(tile) * I; weights_k = prod(group_k) * C_k; ofmap_k =
    ceil(prod(tile) * C_k / stride^rank). The weight expression carries no
    input-channel factor by default; include_input_channels adds it.
    """
    groups = filter_group_dims(layer)
    if len(round_.filters) != len(groups):
        raise ValueError(
            f"round carries {len(round_.filters)} filter counts for {len(groups)} groups"
        )
    tile_elems = math.prod(round_.tile)
    d_if = tile_elems * layer.in_channels
    w_scale = layer.in_channels if include_input_channels else 1
    stride_vol = layer.stride**layer.rank
    d_w = tuple(math.prod(dims) * c * w_scale for dims, c in zip(groups, round_.filters))
    d_of = tuple(_ceil_div(tile_elems * c, stride_vol) if c else 0 for c in round_.filters)
    return DramDeltas(d_if, d_w, d_of)


def memory_time(
    round_: RoundPlan,
    layer: LayerSpec,
    hw: HardwareConfig,
    beta: int,
    *,
    include_input_channels: bool = False,
) -> int:
    """Cycles DRAM needs for one round under reuse order beta, rounded up."""
    deltas = dram_deltas(round_, layer, include_input_channels=include_input_channels)
    if beta == 1:
        traffic = deltas.ifmap + sum(deltas.ofmap)
    elif beta == 0:
        traffic = sum(deltas.weights) + sum(deltas.ofmap)
    else:
        raise ValueError(f"beta must be 0 or 1, got {beta}")
    if traffic == 0:
        return 0
    if math.isinf(hw.bandwidth):
        return 0
    return math.ceil(traffic / hw.bandwidth)


def check_buffer(
    round_: RoundPlan,
    layer: LayerSpec,
    hw: HardwareConfig,
    *,
    include_input_channels: bool = False,
) -> bool:
    """True iff the round's ifmap tile, weights, and ofmap fit the usable buffer."""
    deltas = dram_deltas(round_, layer, include_input_channels=include_input_channels)
    occupancy = deltas.ifmap + sum(deltas.weights) + sum(deltas.ofmap)
    return occupancy <= hw.usable_buffer


def validate_schedule(
    schedule: TileSchedule,
    layer: LayerSpec,
    hw: HardwareConfig,
    *,
    include_input_channels: bool = False,
) -> None:
    """Raise InfeasibleScheduleError naming the violated constraint, if any.

    Checks the buffer-capacity constraint for every round and, grouping
    rounds by tile origin, that all rounds at an origin share one tile
    shape, that each filter group is scheduled exactly out_channels times
    per origin, and that the origins' tiles cover every ifmap element
    exactly once.
    """
    groups = filter_group_dims(layer)
    coverage: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
    for i, round_ in enumerate(schedule.rounds):
        if len(round_.filters) != len(groups):
            raise InfeasibleScheduleError(
                f"layer {layer.name} round {i}: {len(round_.filters)} filter counts "
                f"for {len(groups)} filter groups"
            )
        if any(o + t > e for o, t, e in zip(round_.origin, round_.tile, layer.ifmap)):
            raise InfeasibleScheduleError(
                f"layer {layer.name} round {i}: tile {round_.tile} at origin "
                f"{round_.origin} exceeds ifmap {layer.ifmap}"
            )
        if not check_buffer(round_, layer, hw, include_input_channels=include_input_channels):
            deltas = dram_deltas(round_, layer, include_input_channels=include_input_channels)
            need = deltas.ifmap + sum(deltas.weights) + sum(deltas.ofmap)
            raise InfeasibleScheduleError(
                f"layer {layer.name} round {i}: buffer capacity constraint violated "
                f"({need} elements, usable {hw.usable_buffer})"
            )
        tile, tally = coverage.setdefault(round_.origin, (round_.tile, [0] * len(groups)))
        if round_.tile != tile:
            raise InfeasibleScheduleError(
                f"layer {layer.name} round {i}: tile {round_.tile} at origin "
                f"{round_.origin} differs from tile {tile} of an earlier round there"
            )
        for k, c in enumerate(round_.filters):
            tally[k] += c
    covered = np.zeros(layer.ifmap, np.int32)
    for origin, (tile, tally) in coverage.items():
        for k, total in enumerate(tally):
            if total != layer.out_channels:
                raise InfeasibleScheduleError(
                    f"layer {layer.name}: filter coverage constraint violated for "
                    f"group {k} at origin {origin} ({total} scheduled, "
                    f"{layer.out_channels} required)"
                )
        covered[tuple(slice(o, o + t) for o, t in zip(origin, tile))] += 1
    wrong = np.flatnonzero(covered != 1)
    if wrong.size:
        element = tuple(int(i) for i in np.unravel_index(wrong[0], covered.shape))
        raise InfeasibleScheduleError(
            f"layer {layer.name}: tile coverage constraint violated at ifmap element "
            f"{element} ({int(covered[element])} tiles cover it, 1 required)"
        )


def total_latency(
    schedule: TileSchedule,
    layer: LayerSpec,
    kernel_set: SubKernelSet | None,
    hw: HardwareConfig,
    *,
    include_input_channels: bool = False,
) -> LatencyReport:
    """Aggregate a validated schedule into cycles, traffic, and utilization.

    Total latency is the sum over rounds of max(compute, memory) cycles.
    DRAM traffic follows beta: ifmap tiles count when beta=1, weights when
    beta=0, fresh ofmap elements always.
    """
    validate_schedule(schedule, layer, hw, include_input_channels=include_input_channels)
    groups = _groups_for(layer, kernel_set)
    total = compute_total = memory_total = 0
    dram_if = dram_w = dram_of = macs = 0
    round_costs = []
    for round_ in schedule.rounds:
        l_c = compute_time(round_, layer, kernel_set, hw)
        l_m = memory_time(
            round_, layer, hw, schedule.beta, include_input_channels=include_input_channels
        )
        cost = RoundCost(l_c, l_m)
        round_costs.append(cost)
        total += cost.cycles
        compute_total += l_c
        memory_total += l_m
        deltas = dram_deltas(round_, layer, include_input_channels=include_input_channels)
        if schedule.beta == 1:
            dram_if += deltas.ifmap
        else:
            dram_w += sum(deltas.weights)
        dram_of += sum(deltas.ofmap)
        tile_elems = math.prod(round_.tile)
        for dims, c in zip(groups, round_.filters):
            macs += math.prod(dims) * layer.in_channels * c * tile_elems
    utilization = macs / (total * hw.pe_count) if total else 0.0
    return LatencyReport(
        total_cycles=total,
        compute_cycles=compute_total,
        memory_cycles=memory_total,
        dram_ifmap=dram_if,
        dram_weights=dram_w,
        dram_ofmap=dram_of,
        macs=macs,
        utilization=utilization,
        rounds=tuple(round_costs),
    )


def dense_equivalent(layer: LayerSpec, with_border: bool = True) -> LayerSpec:
    """The unit-stride convolution a naive deconvolution actually executes.

    The ifmap extents become the zero-upsampled extents, so modeling this
    layer prices in every inserted-zero MAC the transformation removes.
    """
    if layer.kind is not LayerKind.DECONV:
        raise ValueError(f"layer {layer.name} is not a deconvolution")
    factor = layer.stride
    pad = 2 * (factor - 1) if with_border else 0
    up = tuple(factor * (n - 1) + 1 + pad for n in layer.ifmap)
    return LayerSpec(
        name=layer.name,
        kind=LayerKind.CONV,
        kernel=layer.kernel,
        in_channels=layer.in_channels,
        out_channels=layer.out_channels,
        ifmap=up,
        stride=1,
    )


def output_dims(layer: LayerSpec, with_border: bool = True) -> tuple[int, ...]:
    """Spatial ofmap extents of the layer (per-filter)."""
    if layer.kind is LayerKind.CONV:
        if any(k > n for k, n in zip(layer.kernel, layer.ifmap)):
            raise ValueError(f"layer {layer.name}: kernel exceeds ifmap")
        return tuple((n - k) // layer.stride + 1 for n, k in zip(layer.ifmap, layer.kernel))
    factor = layer.stride
    pad = 2 * (factor - 1) if with_border else 0
    up = tuple(factor * (n - 1) + 1 + pad for n in layer.ifmap)
    if any(k > u for k, u in zip(layer.kernel, up)):
        raise ValueError(f"layer {layer.name}: kernel exceeds upsampled ifmap")
    return tuple(u - k + 1 for u, k in zip(up, layer.kernel))
