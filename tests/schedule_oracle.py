"""Reference schedule searches that tests hold `svopt.scheduler.solve` to.

`exhaustive` is the global minimum-latency schedule of a layer. It
prices rounds with the same `RoundPricer` and sums them over the same
tile grid (`_grid_cycles`) as the greedy search, but it tries every
candidate tile, every partition of the filter counts into buffer-feasible
rounds and both reuse orders, so no schedule in that space beats it.
It stays here so tests can require the greedy search never to beat it.

`every_tile` is the greedy search without its lower bounds: it packs
every candidate tile in tie order, so `solve`, which packs in bound
order and stops early, must return its schedule.

`tile_floors` prices the two lower bounds of one tile from scratch,
clipped shape by clipped shape, as `RoundPricer.candidate_floors` must
price them for every candidate at once.

`validate_rounds` checks any round list one round at a time: whatever it
rejects, `validate_schedule` (grid expansions only) must reject too.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from svopt.deconv import SubKernelSet
from svopt.perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LayerKind,
    LayerSpec,
    RoundPricer,
    TileGrid,
    TileSchedule,
    _check_kernel_set,
    validate_schedule,
)
from svopt.scheduler import (
    ScheduleMode,
    _grid_cycles,
    _pack_tile,
    _scored_tiles,
    _candidate_extents,
)


class SearchSpaceExceeded(RuntimeError):
    """The exhaustive search space is larger than the configured bound."""


def _check_mode(layer: LayerSpec, kernel_set: SubKernelSet | None, mode: ScheduleMode):
    if mode is ScheduleMode.ILAR and layer.kind is not LayerKind.DECONV:
        raise ValueError("ILAR applies only to transformed deconvolution layers")
    _check_kernel_set(layer, kernel_set)


def tile_floors(
    price: RoundPricer, tile: tuple[int, ...], hw: HardwareConfig, mixed: bool
) -> tuple[int, int]:
    """Lower bounds (compute, traffic) on the cycles of `tile`'s grid.

    Both hold for every schedule that runs one packing of the full
    tile at every origin. The compute floor prices all filters of
    every group at once on each clipped tile shape: a group's
    per-round ceilings sum to at least the ceiling of its total MACs.
    The traffic floor takes the fewest rounds that hold every filter
    beside the tile (groups share rounds when `mixed`), each loading
    its tile at beta=1, against every origin loading every weight at
    beta=0, plus the ofmap. It is 0 at infinite bandwidth or when the
    tile alone fills the buffer.
    """
    layer, pe_count = price.layer, hw.pe_count
    compute = 0
    for shape, n in TileGrid(layer.ifmap, tile, ()).shapes():
        elems = math.prod(shape)
        compute += n * sum([-(-m * elems // pe_count) for m in price._full_macs])
    tile_elems = math.prod(tile)
    capacity = hw.usable_buffer - tile_elems * layer.in_channels
    if math.isinf(hw.bandwidth) or capacity <= 0:
        return compute, 0
    ofmap = -(-tile_elems // price._stride_vol)
    loads = [(w + ofmap) * layer.out_channels for w in price._filter_weights]
    if mixed:
        rounds = -(-sum(loads) // capacity)
    else:
        rounds = sum([-(-load // capacity) for load in loads])
    origins = math.prod([-(-e // t) for e, t in zip(layer.ifmap, tile)])
    traffic = min(rounds * price._ifmap_total, origins * price._weight_total)
    return compute, math.ceil((traffic + price._ofmap_floor) / hw.bandwidth)


def exhaustive(
    layer: LayerSpec,
    kernel_set: SubKernelSet | None,
    hw: HardwareConfig,
    mode: ScheduleMode = ScheduleMode.ILAR,
    *,
    max_candidates: int = 10**6,
    include_input_channels: bool = False,
) -> TileSchedule:
    """Global minimum-latency schedule over the bounded candidate space.

    Considers every candidate tile, every unordered partition of the
    filter counts into buffer-feasible rounds (single-group rounds only
    in CONV_R mode), and both reuse orders. Because latency is additive
    over rounds, the minimum over partitions is found exactly by dynamic
    programming on the remaining-filter vector; the bound caps the number
    of (remaining-filters, candidate-round) extensions explored and
    SearchSpaceExceeded is raised beyond it. Intended as a test oracle.
    """
    _check_mode(layer, kernel_set, mode)
    price = RoundPricer(layer, include_input_channels)
    full = (layer.out_channels,) * len(price.groups)
    # Filter-count vectors are numbered as mixed-radix integers with radices
    # full[g] + 1. A part never exceeds its state in any group, so the number
    # of state - part is the state's number minus the part's, with no borrow;
    # it is smaller, so the DP can visit states in number order.
    strides = [math.prod(c + 1 for c in full[g + 1:]) for g in range(len(full))]
    vectors = list(itertools.product(*(range(c + 1) for c in full)))

    def round_options(state):
        if mode is ScheduleMode.CONV_R:
            return [c * stride for avail, stride in zip(state, strides)
                    for c in range(1, avail + 1)]
        parts = [0]
        for avail, stride in zip(state, strides):
            parts = [p + c * stride for p in parts for c in range(avail + 1)]
        return parts[1:]

    best = None
    explored = 0
    for tile in itertools.product(*_candidate_extents(layer, price.groups)):
        # (cycles at beta=1, cycles at beta=0) per part, None when it overflows the buffer
        costs: dict[int, tuple[int, int] | None] = {}
        dp = [[0] + [None] * (len(vectors) - 1) for _ in (0, 1)]  # by beta, then state
        parent = [[0] * len(vectors) for _ in (0, 1)]
        for state in range(1, len(vectors)):
            options = round_options(vectors[state])
            explored += len(options)
            if explored > max_candidates:
                raise SearchSpaceExceeded(f"more than {max_candidates} candidate extensions")
            for part in options:
                if part not in costs:
                    fits = price(tile, vectors[part]).occupancy <= hw.usable_buffer
                    costs[part] = _grid_cycles(price, tile, (vectors[part],), hw) if fits else None
                part_costs = costs[part]
                if part_costs is None:
                    continue
                for beta, part_cost in zip((1, 0), part_costs):
                    base = dp[beta][state - part]
                    if base is None:
                        continue
                    candidate = base + part_cost
                    incumbent = dp[beta][state]
                    if incumbent is None or candidate < incumbent:
                        dp[beta][state] = candidate
                        parent[beta][state] = part
        for beta in (1, 0):
            cycles = dp[beta][-1]
            if cycles is not None and (best is None or cycles < best[0]):
                parts = []
                state = len(vectors) - 1
                while state:
                    parts.append(vectors[parent[beta][state]])
                    state -= parent[beta][state]
                parts.sort(reverse=True)
                best = (cycles, tile, tuple(parts), beta)
    if best is None:
        raise InfeasibleScheduleError(
            f"layer {layer.name}: no feasible schedule in the bounded space"
        )
    _, tile, parts, beta = best
    schedule = TileSchedule(beta, grid=TileGrid(layer.ifmap, tile, tuple(parts)))
    validate_schedule(schedule, layer, hw, include_input_channels=include_input_channels)
    return schedule


def every_tile(
    layer: LayerSpec,
    kernel_set: SubKernelSet | None,
    hw: HardwareConfig,
    mode: ScheduleMode = ScheduleMode.ILAR,
    *,
    include_input_channels: bool = False,
) -> TileSchedule:
    """The greedy schedule found with no pruning: the first strict minimum.

    Packs every candidate tile in the (tie, tile) order of
    `_scored_tiles`, prices beta=1 then beta=0, and keeps the first
    (tile, beta) whose cycles are strictly below every earlier one's.
    """
    _check_mode(layer, kernel_set, mode)
    price = RoundPricer(layer, include_input_channels)
    best = None
    for _, tile in sorted(scored[1:] for scored in _scored_tiles(price, hw, mode)):
        parts = _pack_tile(price, tile, hw, mode)
        for beta, cycles in zip((1, 0), _grid_cycles(price, tile, parts, hw)):
            if best is None or cycles < best[0]:
                best = (cycles, tile, parts, beta)
    if best is None:
        raise InfeasibleScheduleError(f"layer {layer.name}: no candidate tile packs")
    _, tile, parts, beta = best
    return TileSchedule(beta, grid=TileGrid(layer.ifmap, tile, tuple(parts)))


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


def validate_rounds(
    schedule: TileSchedule,
    layer: LayerSpec,
    hw: HardwareConfig,
    *,
    include_input_channels: bool = False,
) -> None:
    """Raise InfeasibleScheduleError naming the violated constraint, if any.

    Checks `schedule.rounds` one by one, in any order: each round must pass
    _check_round, and every origin must lie on the ifmap with its tile
    inside it. Grouping rounds by origin, it checks that all rounds at an
    origin share one tile shape, that each filter group is scheduled
    exactly out_channels times per origin, and that the origins' tiles
    cover every ifmap element exactly once.
    """
    price = RoundPricer(layer, include_input_channels)
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
