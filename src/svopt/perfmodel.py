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

That rule is written once: RoundPricer prices a (tile, filters) round
into a RoundTerms record, and validation, latency reports and the
scheduler's knapsack classes all derive from it, as does the exhaustive
schedule oracle in tests/schedule_oracle.py. One call of the same pricer
bounds the cycles of every candidate tile of the scheduler's search from
per-group factors and per-axis extents (`candidate_floors`).
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .deconv import SubKernelSet, deconv_output_dims, phases
from .tensor import ShapeError, upsampled_dims, valid_dims

__all__ = [
    "HardwareConfig",
    "InfeasibleScheduleError",
    "LatencyReport",
    "LayerKind",
    "LayerSpec",
    "RoundCost",
    "RoundPlan",
    "RoundPricer",
    "RoundTerms",
    "TileGrid",
    "TileSchedule",
    "dense_equivalent",
    "filter_group_dims",
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
    """One convolution or stride-2 deconvolution layer.

    Its kernel must fit its ifmap (output_dims): a deconvolution's must fit
    the bordered zero-upsampled ifmap.
    """

    name: str
    kind: LayerKind
    kernel: tuple[int, ...]
    in_channels: int
    out_channels: int
    ifmap: tuple[int, ...]
    stride: int

    def __post_init__(self) -> None:
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
        try:
            output_dims(self)
        except ShapeError as exc:
            deconv = self.kind is LayerKind.DECONV
            why = f", which is ifmap {self.ifmap} zero-upsampled" if deconv else ""
            raise ValueError(f"layer {self.name}: {exc}{why}") from None

    @property
    def rank(self) -> int:
        return len(self.kernel)


class RoundPlan(NamedTuple):
    """One buffer round: an ifmap tile plus per-sub-kernel filter counts.

    A plain record of int tuples; validate_schedule checks its values.
    """

    origin: tuple[int, ...]
    tile: tuple[int, ...]
    filters: tuple[int, ...]


class TileGrid(NamedTuple):
    """One round structure repeated over an ifmap's tile grid.

    Tile origins step by `tile` from 0 along each axis of `ifmap`, in
    itertools.product order; a tile at the far edge is clipped to the
    ifmap. Every origin runs `parts`, one round per filter-count vector,
    in order.
    """

    ifmap: tuple[int, ...]
    tile: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]

    def shapes(self) -> list[tuple[tuple[int, ...], int]]:
        """Distinct clipped tile shapes over the origin grid, with multiplicities."""
        per_axis = [[(s, n) for s, n in ((t, e // t), (e % t, 1)) if s and n]
                    for e, t in zip(self.ifmap, self.tile)]
        return [(tuple(s for s, _ in combo), math.prod(n for _, n in combo))
                for combo in itertools.product(*per_axis)]

    def round_counts(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """How many rounds run each distinct (clipped tile shape, part)."""
        repeats = Counter(self.parts)
        return {(shape, part): mult * n
                for shape, mult in self.shapes() for part, n in repeats.items()}

    def rounds(self) -> tuple[RoundPlan, ...]:
        """Every round: origins in itertools.product order, then parts in order."""
        rounds = []
        axes = [range(0, extent, t) for extent, t in zip(self.ifmap, self.tile)]
        for origin in itertools.product(*axes):
            shape = tuple(min(t, e - o) for o, t, e in zip(origin, self.tile, self.ifmap))
            rounds.extend(RoundPlan(origin, shape, part) for part in self.parts)
        return tuple(rounds)


class TileSchedule:
    """Ordered rounds covering a layer, plus the per-layer reuse order beta.

    Given as a `grid` (what the scheduler builds and a schedule file
    holds): then `grid` is kept, validation and pricing never expand it,
    and `rounds` is expanded on first read. Or given as explicit `rounds`.
    Schedules with equal beta and rounds are equal.
    """

    def __init__(
        self,
        beta: int,
        rounds: Iterable[RoundPlan] | None = None,
        *,
        grid: TileGrid | None = None,
    ) -> None:
        if type(beta) is not int or beta not in (0, 1):  # a bool or 1.0 would save as no int
            raise ValueError(f"beta must be the int 0 or 1, got {beta!r}")
        if (rounds is None) == (grid is None):
            raise ValueError("a schedule takes either rounds or a grid")
        self.beta = beta
        self.grid = grid
        if rounds is not None:
            self.rounds = tuple(rounds)

    @cached_property
    def rounds(self) -> tuple[RoundPlan, ...]:
        return self.grid.rounds()

    @property
    def n_rounds(self) -> int:
        return sum(self.round_counts().values())

    def round_counts(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """How many rounds run each distinct (tile, filters) pair."""
        if self.grid is not None:
            return self.grid.round_counts()
        return Counter((r.tile, r.filters) for r in self.rounds)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TileSchedule):
            return NotImplemented
        return self.beta == other.beta and self.rounds == other.rounds

    def __repr__(self) -> str:
        body = f"grid={self.grid!r}" if self.grid is not None else f"rounds={self.rounds!r}"
        return f"TileSchedule(beta={self.beta}, {body})"


@dataclass(frozen=True)
class RoundCost:
    compute_cycles: int
    memory_cycles: int

    @property
    def cycles(self) -> int:
        return max(self.compute_cycles, self.memory_cycles)


@dataclass(frozen=True, eq=False)
class LatencyReport:
    """Per-layer cost summary under one schedule.

    `rounds`, each round's cost in schedule order, is expanded on first
    read from the schedule and the cost of each of its distinct
    (tile, filters) pairs. Reports with equal fields and rounds are equal.
    """

    total_cycles: int
    compute_cycles: int
    memory_cycles: int
    dram_ifmap: int
    dram_weights: int
    dram_ofmap: int
    macs: int
    utilization: float
    _schedule: TileSchedule = field(repr=False)
    _costs: dict[tuple[tuple[int, ...], tuple[int, ...]], RoundCost] = field(repr=False)

    @cached_property
    def rounds(self) -> tuple[RoundCost, ...]:
        costs = self._costs
        return tuple(costs[r.tile, r.filters] for r in self._schedule.rounds)

    def _totals(self) -> tuple:
        return (self.total_cycles, self.compute_cycles, self.memory_cycles, self.dram_ifmap,
                self.dram_weights, self.dram_ofmap, self.macs, self.utilization)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatencyReport):
            return NotImplemented
        return self._totals() == other._totals() and self.rounds == other.rounds


@cache
def filter_group_dims(layer: LayerSpec) -> tuple[tuple[int, ...], ...]:
    """Kernel extents of each filter group the model schedules.

    A convolution has a single group, its own kernel. A deconvolution has
    one group per sub-kernel that owns ofmap positions (deconv.phases), in
    phase order: exactly the sub-convolutions transformed_deconv runs.
    """
    if layer.kind is LayerKind.CONV:
        return (layer.kernel,)
    return tuple(dims for _, dims, *_ in phases(output_dims(layer), layer.kernel))


def _check_kernel_set(layer: LayerSpec, kernel_set: SubKernelSet | None) -> None:
    """Reject a deconvolution whose SubKernelSet is missing or decomposes another kernel."""
    if layer.kind is not LayerKind.DECONV:
        return
    if kernel_set is None:
        raise ValueError(f"layer {layer.name}: deconvolution rounds need a SubKernelSet")
    if kernel_set.source_dims != layer.kernel:
        raise ValueError(
            f"layer {layer.name}: sub-kernels of kernel {kernel_set.source_dims} do not "
            f"match kernel {layer.kernel}"
        )


class RoundTerms(NamedTuple):
    """What one round of a layer costs, per filter group.

    macs_k = prod(group_k) * I * C_k * prod(tile); ifmap = prod(tile) * I;
    weights_k = prod(group_k) * C_k, times I under the input-channel-aware
    weight model; ofmap_k = ceil(prod(tile) * C_k / stride^rank). Latency
    is max(compute_cycles, memory_cycles), and the round is feasible when
    its occupancy fits the usable buffer.
    """

    macs: tuple[int, ...]
    ifmap: int
    weights: tuple[int, ...]
    ofmap: tuple[int, ...]

    @property
    def occupancy(self) -> int:
        """Buffer elements the round needs: ifmap tile, weights and ofmap."""
        return self.ifmap + sum(self.weights) + sum(self.ofmap)

    def compute_cycles(self, hw: HardwareConfig) -> int:
        """PE-array cycles with the groups serialized, one ceiling per group."""
        pe_count = hw.pe_count
        return sum([-(-m // pe_count) for m in self.macs if m])

    def memory_cycles(self, beta: int, hw: HardwareConfig) -> int:
        """DRAM cycles under reuse order beta, rounded up.

        beta=1 keeps the weights resident and moves the ifmap tile and
        the ofmap; beta=0 keeps the tile resident and moves the weights
        and the ofmap.
        """
        if beta == 1:
            traffic = self.ifmap + sum(self.ofmap)
        elif beta == 0:
            traffic = sum(self.weights) + sum(self.ofmap)
        else:
            raise ValueError(f"beta must be 0 or 1, got {beta}")
        if traffic == 0 or math.isinf(hw.bandwidth):
            return 0
        return math.ceil(traffic / hw.bandwidth)


class RoundPricer:
    """Prices the rounds of one layer under one weight model.

    The filter groups and their per-group factors are derived once; each
    call prices one (tile, filters) pair, both tuples, into a RoundTerms
    record. `candidate_floors` bounds whole tile grids from the same
    factors without building records.
    """

    def __init__(self, layer: LayerSpec, include_input_channels: bool = False) -> None:
        self.layer = layer
        self.groups = filter_group_dims(layer)
        sizes = self._sizes = tuple(math.prod(dims) for dims in self.groups)
        w_scale = self._w_scale = layer.in_channels if include_input_channels else 1
        stride_vol = self._stride_vol = layer.stride**layer.rank
        in_ch, out_ch = layer.in_channels, layer.out_channels
        ifmap_elems = math.prod(layer.ifmap)
        # per group: MACs per tile element with every filter, weights of one filter
        self._full_macs = tuple(s * in_ch * out_ch for s in sizes)
        self._filter_weights = tuple(s * w_scale for s in sizes)
        # layer totals: the ifmap once, every weight once, the ofmap rounded down
        self._ifmap_total = ifmap_elems * in_ch
        self._weight_total = sum(sizes) * out_ch * w_scale
        self._ofmap_floor = ifmap_elems * out_ch * len(sizes) // stride_vol

    def __call__(self, tile: tuple[int, ...], filters: tuple[int, ...]) -> RoundTerms:
        if len(filters) != len(self.groups):
            raise ValueError(
                f"round carries {len(filters)} filter counts for {len(self.groups)} groups"
            )
        tile_elems = math.prod(tile)
        in_ch = self.layer.in_channels
        sizes, w_scale, stride_vol = self._sizes, self._w_scale, self._stride_vol
        return RoundTerms(
            tuple([s * in_ch * c * tile_elems for s, c in zip(sizes, filters)]),
            tile_elems * in_ch,
            tuple([s * c * w_scale for s, c in zip(sizes, filters)]),
            tuple([-(-tile_elems * c // stride_vol) for c in filters]),
        )

    def candidate_floors(self, extents, hw: HardwareConfig, mixed: bool):
        """Lower bounds (compute, traffic, tile) on the cycles of candidate tiles' grids.

        The candidates are the product of `extents`, a list of tile extents
        per axis, in itertools.product order, less every tile whose ifmap
        elements alone fill the usable buffer, as no filter fits beside
        them. Both floors hold for every schedule that runs one packing of
        the full tile at every origin. The compute floor prices all filters
        of every group at once on each clipped tile shape: a group's
        per-round ceilings sum to at least the ceiling of its total MACs.
        The traffic floor takes the fewest rounds that hold every filter
        beside the tile (groups share rounds when `mixed`), each loading
        its tile at beta=1, against every origin loading every weight at
        beta=0, plus the ofmap; it is 0 at infinite bandwidth.
        """
        layer, pe_count, full_macs = self.layer, hw.pe_count, self._full_macs
        in_ch, out_ch, usable = layer.in_channels, layer.out_channels, hw.usable_buffer
        # (tile, its elements, its origin count, its clipped shapes as (elements, count)),
        # extended one axis at a time, so each axis's clipped extents and origin count are
        # worked out once per extent; a prefix that fills the buffer stays full, so it goes
        tiles = [((), 1, 1, [(1, 1)])]
        for e, ts in zip(layer.ifmap, extents):
            axis = [(t, -(-e // t), [(s, n) for s, n in ((t, e // t), (e % t, 1)) if s and n])
                    for t in ts]
            tiles = [(tile + (t,), elems * t, origins * count,
                      [(a * s, m * n) for a, m in cells for s, n in options])
                     for tile, elems, origins, cells in tiles
                     for t, count, options in axis if elems * t * in_ch < usable]
        shape_compute: dict[int, int] = {}  # by element count: clipped shapes repeat
        for tile, tile_elems, origins, cells in tiles:
            compute = 0
            for elems, mult in cells:
                c = shape_compute.get(elems)
                if c is None:
                    c = shape_compute[elems] = sum([-(-m * elems // pe_count) for m in full_macs])
                compute += mult * c
            if math.isinf(hw.bandwidth):
                yield compute, 0, tile
                continue
            capacity = usable - tile_elems * in_ch
            ofmap = -(-tile_elems // self._stride_vol)
            loads = [(w + ofmap) * out_ch for w in self._filter_weights]
            if mixed:
                rounds = -(-sum(loads) // capacity)
            else:
                rounds = sum([-(-load // capacity) for load in loads])
            traffic = min(rounds * self._ifmap_total, origins * self._weight_total)
            yield compute, math.ceil((traffic + self._ofmap_floor) / hw.bandwidth), tile


def _check_round(where: str, tile, filters, price: RoundPricer, usable: int) -> None:
    """Raise InfeasibleScheduleError led by `where` unless `tile` is rank-many positive extents,
    `filters` a non-negative count per filter group, and the round fits `usable` elements."""
    rank, n_groups = price.layer.rank, len(price.groups)
    if len(tile) != rank or any(t < 1 for t in tile):
        raise InfeasibleScheduleError(f"{where}: tile {tile} is not {rank} positive extents")
    if len(filters) != n_groups or any(c < 0 for c in filters):
        raise InfeasibleScheduleError(f"{where}: filters {filters} are not {n_groups} "
                                      f"non-negative filter counts")
    need = price(tile, filters).occupancy
    if need > usable:
        raise InfeasibleScheduleError(f"{where}: buffer capacity constraint violated "
                                      f"({need} elements, usable {usable})")


def _check_grid(grid: TileGrid, layer: LayerSpec, usable: int, price: RoundPricer) -> None:
    """Raise InfeasibleScheduleError naming what makes `grid` no schedule of `layer`.

    In order: its ifmap must be the layer's, each distinct part must pass
    _check_round beside the tile at origin 0, and each group's parts must
    sum to out_channels. Such a grid runs one tile per origin and covers
    the ifmap once by construction; the tile at origin 0 is its largest
    clipped shape and occupancy grows with the tile, so every round fits.
    """
    where = f"layer {layer.name} grid"
    if grid.ifmap != layer.ifmap:
        raise InfeasibleScheduleError(f"{where}: ifmap {grid.ifmap} differs from the layer's "
                                      f"ifmap {layer.ifmap}")
    # the tile at origin 0 clipped to the ifmap; one of the wrong rank as it stands
    first = tuple(map(min, grid.tile, grid.ifmap)) if len(grid.tile) == layer.rank else grid.tile
    for part in dict.fromkeys(grid.parts):
        _check_round(f"{where}, tile {first} with part {part}", first, part, price, usable)
    for k in range(len(price.groups)):
        total = sum(p[k] for p in grid.parts)
        if total != layer.out_channels:
            raise InfeasibleScheduleError(f"{where}: filter coverage constraint violated for group "
                                          f"{k} ({total} scheduled, {layer.out_channels} required)")


def validate_schedule(
    schedule: TileSchedule,
    layer: LayerSpec,
    hw: HardwareConfig,
    *,
    include_input_channels: bool = False,
) -> None:
    """Raise InfeasibleScheduleError naming the violated constraint, if any.

    A grid schedule is checked by _check_grid, once per distinct part,
    without expanding its rounds. Explicit rounds are checked one by one:
    each round must pass _check_round, and every origin must lie on the
    ifmap with its tile inside it. Grouping rounds by origin, it checks
    that all rounds at an origin share one tile shape, that each filter
    group is scheduled exactly out_channels times per origin, and that the
    origins' tiles cover every ifmap element exactly once.
    """
    price = RoundPricer(layer, include_input_channels)
    if schedule.grid is not None:
        return _check_grid(schedule.grid, layer, hw.usable_buffer, price)
    n_groups, rank = len(price.groups), layer.rank
    fits: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    coverage: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
    for i, (origin, tile, filters) in enumerate(schedule.rounds):
        if (tile, filters) not in fits:  # depends on the pair alone: check each once
            _check_round(f"layer {layer.name} round {i}", tile, filters, price, hw.usable_buffer)
            fits.add((tile, filters))
        entry = coverage.get(origin)
        if entry is None:  # the origin's first round: later ones must share its tile
            if len(origin) != rank or any(o < 0 for o in origin):
                raise InfeasibleScheduleError(
                    f"layer {layer.name} round {i}: origin {origin} is not {rank} "
                    f"non-negative coordinates"
                )
            if any(o + t > e for o, t, e in zip(origin, tile, layer.ifmap)):
                raise InfeasibleScheduleError(
                    f"layer {layer.name} round {i}: tile {tile} at origin {origin} "
                    f"exceeds ifmap {layer.ifmap}"
                )
            entry = coverage[origin] = (tile, [0] * n_groups)
        elif tile != entry[0]:
            raise InfeasibleScheduleError(
                f"layer {layer.name} round {i}: tile {tile} at origin {origin} differs "
                f"from tile {entry[0]} of an earlier round there"
            )
        tally = entry[1]
        for k, c in enumerate(filters):
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
    beta=0, fresh ofmap elements always. Each distinct (tile, filters) is
    priced once and counted as often as it runs; a grid schedule's counts
    come from its grid, without expanding its rounds.
    """
    validate_schedule(schedule, layer, hw, include_input_channels=include_input_channels)
    _check_kernel_set(layer, kernel_set)
    price = RoundPricer(layer, include_input_channels)
    beta = schedule.beta
    costs: dict[tuple[tuple[int, ...], tuple[int, ...]], RoundCost] = {}
    total = compute_total = memory_total = 0
    dram_if = dram_w = dram_of = macs = 0
    for key, n in schedule.round_counts().items():
        terms = price(*key)
        cost = costs[key] = RoundCost(terms.compute_cycles(hw), terms.memory_cycles(beta, hw))
        total += n * cost.cycles
        compute_total += n * cost.compute_cycles
        memory_total += n * cost.memory_cycles
        if beta == 1:
            dram_if += n * terms.ifmap
        else:
            dram_w += n * sum(terms.weights)
        dram_of += n * sum(terms.ofmap)
        macs += n * sum(terms.macs)
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
        _schedule=schedule,
        _costs=costs,
    )


def dense_equivalent(layer: LayerSpec) -> LayerSpec:
    """The unit-stride convolution a naive deconvolution actually executes.

    The ifmap extents become the zero-upsampled extents, so
    modeling this layer prices in every inserted-zero MAC the
    transformation removes.
    """
    if layer.kind is not LayerKind.DECONV:
        raise ValueError(f"layer {layer.name} is not a deconvolution")
    return LayerSpec(
        name=layer.name,
        kind=LayerKind.CONV,
        kernel=layer.kernel,
        in_channels=layer.in_channels,
        out_channels=layer.out_channels,
        ifmap=upsampled_dims(layer.ifmap),
        stride=1,
    )


def output_dims(layer: LayerSpec) -> tuple[int, ...]:
    """Spatial ofmap extents of the layer (per filter); ShapeError when the
    kernel does not fit."""
    if layer.kind is LayerKind.DECONV:
        return deconv_output_dims(layer.ifmap, layer.kernel)
    return tuple((v - 1) // layer.stride + 1 for v in valid_dims(layer.ifmap, layer.kernel))
