"""Schedule construction: minimize modeled latency under the buffer constraint.

A layer's schedule is found by enumerating candidate ifmap tiles and, for
each tile, packing filters into rounds. On a given tile every output
filter of one filter group weighs and is worth the same, so a round is a
bounded knapsack over per-group filter counts. It is solved exactly over
the distinct (weight, value) classes of the groups: it maximizes total
value, then takes the lexicographically largest class counts, classes
ordered by value and then weight, descending, and hands a class's count
to its lowest groups first. Because every filter must eventually run,
the packer is applied repeatedly until every count is consumed. ILAR
mode lets one round mix filters from different sub-kernels so they share
the resident ifmap tile; CONV_R mode packs each sub-kernel separately,
which is also the only mode meaningful for plain convolutions. The reuse
order beta is chosen per layer as the argmin of total modeled latency.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .deconv import SubKernelSet
from .perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LatencyReport,
    LayerKind,
    LayerSpec,
    RoundPricer,
    RoundTerms,
    TileGrid,
    TileSchedule,
    _ceil_div,
    _check_kernel_set,
    total_latency,
    validate_schedule,
)

__all__ = [
    "InfeasibleTileError",
    "ModeComparison",
    "ScheduleMode",
    "SearchSpaceExceeded",
    "compare_modes",
    "exhaustive",
    "pack_round",
    "solve",
]


class InfeasibleTileError(InfeasibleScheduleError):
    """No filter fits the per-round capacity left by this ifmap tile."""


class SearchSpaceExceeded(RuntimeError):
    """The exhaustive search space is larger than the configured bound."""


class ScheduleMode(enum.Enum):
    CONV_R = "convr"
    ILAR = "ilar"


def _filter_round(price: RoundPricer, tile) -> RoundTerms:
    """One filter of every group on `tile`: group g's knapsack class.

    A filter of group g weighs weights[g] + ofmap[g] and is worth macs[g];
    its ofmap share is rounded up per filter, not per round.
    """
    return price(tile, (1,) * len(price.groups))


def _pack_counts(classes: list[tuple[int, int, int]], capacity: int) -> list[int]:
    """Exact bounded knapsack over (weight, value, count) classes.

    `classes` arrive in descending selection priority. Of the counts of
    maximum total value it returns the lexicographically largest, by a
    depth-first search over counts, descending, that keeps only strictly
    better leaves. Branches are cut by the fractional relaxation (room
    rounded down to the gcd of the valuable weights) and by the value
    proven for the same (class, room); fastest with the most valuable first.
    """
    n = len(classes)
    order = sorted(range(n), key=lambda i: Fraction(classes[i][1], classes[i][0]), reverse=True)
    tails = [[i for i in order if i >= k] for k in range(n)]
    steps = [math.gcd(*(w for w, v, _ in classes[k:] if v)) or 1 for k in range(n)]
    counts, best, ceiling = [0] * n, [-1, None], {}

    def bound(k: int, room: int, most: int) -> int:
        total, room = 0, room - room % steps[k]
        for i in tails[k]:
            weight, value, count = classes[i]
            count = most if i == k else count
            if count * weight > room:
                return total - (-room * value // weight)
            total, room = total + count * value, room - count * weight
        return total

    def search(k: int, room: int, gained: int) -> None:
        if k == n:
            best[:] = gained, counts[:]  # only a strictly better leaf gets here
        elif gained + ceiling.get((k, room), math.inf) > best[0]:
            weight, value, count = classes[k]
            for c in range(min(count, room // weight), -1, -1):
                if gained + bound(k, room, c) <= best[0]:
                    break  # the bound also covers every smaller count
                counts[k] = c
                search(k + 1, room - c * weight, gained + c * value)
            ceiling[k, room] = best[0] - gained

    search(0, capacity, 0)
    return best[1]


def pack_round(
    classes: list[tuple[int, int]], counts: list[int], capacity: int
) -> tuple[int, ...]:
    """Filters per group for one round: a maximal-value fit in `capacity` elements.

    Group g offers counts[g] filters that each weigh and are worth
    classes[g] = (weight, value). Exact bounded knapsack over the groups'
    distinct (weight, value) classes. Of the maximal-value selections it
    takes the most filters of the highest value, then of the largest weight
    (for layer-derived classes, value at a fixed tile grows with the
    sub-kernel footprint), and so on; a class's count goes to its lowest
    groups first. Raises InfeasibleTileError if no filter fits.
    """
    live = [g for g, c in enumerate(counts) if c]
    lightest = min(classes[g][0] for g in live)
    if capacity < lightest:
        raise InfeasibleTileError(
            f"capacity {capacity} holds no filter (smallest weight {lightest})"
        )
    if sum(classes[g][0] * counts[g] for g in live) <= capacity:
        return tuple(counts)
    members: dict[tuple[int, int], list[int]] = {}
    for g in live:
        members.setdefault(classes[g], []).append(g)
    keys = sorted(members, key=lambda k: (-k[1], -k[0]))
    taken = _pack_counts([(*k, sum(counts[g] for g in members[k])) for k in keys], capacity)
    selection = [0] * len(counts)
    for key, n in zip(keys, taken):
        for g in members[key]:
            selection[g] = min(n, counts[g])
            n -= selection[g]
    return tuple(selection)


def _axis_candidates(extent: int, min_extent: int) -> list[int]:
    values = {extent}
    for d in range(1, extent + 1):
        if extent % d == 0:
            values.add(d)
    power = 1
    while power < extent:
        values.add(power)
        power *= 2
    return sorted(v for v in values if v >= min_extent)


def _tile_candidates(layer: LayerSpec, groups) -> list[tuple[int, ...]]:
    """Divisors of each ifmap extent plus powers of two clipped to it."""
    per_axis = [
        _axis_candidates(extent, max(dims[axis] for dims in groups))
        for axis, extent in enumerate(layer.ifmap)
    ]
    return [tuple(tile) for tile in itertools.product(*per_axis)]


def _grid_cycles(price: RoundPricer, tile, parts, hw: HardwareConfig) -> tuple[int, int]:
    """Total cycles at beta=1 and at beta=0 when `parts` runs at every tile origin.

    Summed over the grid's (clipped tile shape, part) counts, as total_latency sums them.
    """
    beta1 = beta0 = 0
    for key, n in TileGrid(price.layer.ifmap, tile, tuple(parts)).round_counts().items():
        terms = price(*key)
        l_c = terms.compute_cycles(hw)
        beta1 += n * max(l_c, terms.memory_cycles(1, hw))
        beta0 += n * max(l_c, terms.memory_cycles(0, hw))
    return beta1, beta0


def _pack_tile(
    price: RoundPricer, tile, hw: HardwareConfig, mode: ScheduleMode
) -> list[tuple[int, ...]]:
    """Filter-count vectors, one per round, consuming every filter once.

    CONV_R packs each group's filters on their own, ILAR packs all groups
    together.
    """
    one = _filter_round(price, tile)
    classes = [(w + o, v) for w, o, v in zip(one.weights, one.ofmap, one.macs)]
    capacity = hw.usable_buffer - one.ifmap
    if capacity <= 0:  # the tile alone fills the buffer: no knapsack to solve
        raise InfeasibleTileError(f"tile {tile} leaves {capacity} buffer elements for filters")
    out_ch = price.layer.out_channels
    n_groups = len(price.groups)
    if mode is ScheduleMode.CONV_R:
        pools = [[out_ch if k == g else 0 for k in range(n_groups)] for g in range(n_groups)]
    else:
        pools = [[out_ch] * n_groups]
    parts: list[tuple[int, ...]] = []
    for remaining in pools:
        while any(remaining):
            part = pack_round(classes, remaining, capacity)
            remaining = [r - p for r, p in zip(remaining, part)]
            parts.append(part)
    return parts


def _scored_tiles(price: RoundPricer, hw: HardwareConfig, mode: ScheduleMode):
    """Candidate tiles with a cheap cycle lower bound, sorted by (bound, tile).

    No schedule built on a tile beats its bound; the order also decides
    which of two equal-cost tiles the solver keeps.
    """
    layer = price.layer
    out_ch = layer.out_channels
    n_groups = len(price.groups)
    whole = price(layer.ifmap, (out_ch,) * n_groups)
    lb = _ceil_div(sum(whole.macs), hw.pe_count)
    of_floor = (math.prod(layer.ifmap) * out_ch * n_groups) // layer.stride**layer.rank
    scored = []
    for tile in _tile_candidates(layer, price.groups):
        one = _filter_round(price, tile)
        capacity = hw.usable_buffer - one.ifmap
        if math.isinf(hw.bandwidth) or capacity <= 0:
            scored.append((lb, tile))
            continue
        group_weights = [(w + o) * out_ch for w, o in zip(one.weights, one.ofmap)]
        if mode is ScheduleMode.CONV_R:
            rounds_min = sum(_ceil_div(w, capacity) for w in group_weights)
        else:
            rounds_min = _ceil_div(sum(group_weights), capacity)
        n_origins = math.prod(_ceil_div(e, t) for e, t in zip(layer.ifmap, tile))
        beta1 = rounds_min * whole.ifmap + of_floor
        beta0 = n_origins * sum(whole.weights) + of_floor
        scored.append((max(lb, math.ceil(min(beta1, beta0) / hw.bandwidth)), tile))
    return sorted(scored)


def _check_mode(layer: LayerSpec, kernel_set: SubKernelSet | None, mode: ScheduleMode):
    if mode is ScheduleMode.ILAR and layer.kind is not LayerKind.DECONV:
        raise ValueError("ILAR applies only to transformed deconvolution layers")
    _check_kernel_set(layer, kernel_set)


def solve(
    layer: LayerSpec,
    kernel_set: SubKernelSet | None,
    hw: HardwareConfig,
    mode: ScheduleMode,
    *,
    include_input_channels: bool = False,
) -> TileSchedule:
    """Greedy schedule: best tile from the candidate grid, packed round by round.

    For each candidate tile the packer consumes every filter, the resulting
    round structure is applied at every tile origin, and beta is chosen
    as the per-layer argmin. Candidates are visited in lower-bound order
    so provably worse tiles are pruned. Deterministic for fixed inputs.
    """
    _check_mode(layer, kernel_set, mode)
    price = RoundPricer(layer, include_input_channels)
    best = None
    for bound, tile in _scored_tiles(price, hw, mode):
        if best is not None and bound >= best[0]:
            break
        try:
            parts = _pack_tile(price, tile, hw, mode)
        except InfeasibleTileError:
            continue
        for beta, cycles in zip((1, 0), _grid_cycles(price, tile, parts, hw)):
            if best is None or cycles < best[0]:
                best = (cycles, tile, parts, beta)
    if best is None:
        raise InfeasibleScheduleError(
            f"layer {layer.name}: no candidate tile satisfies the buffer "
            f"capacity constraint (usable {hw.usable_buffer} elements)"
        )
    _, tile, parts, beta = best
    schedule = TileSchedule(beta, grid=TileGrid(layer.ifmap, tile, tuple(parts)))
    validate_schedule(schedule, layer, hw, include_input_channels=include_input_channels)
    return schedule


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
    for tile in sorted(_tile_candidates(layer, price.groups)):
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


@dataclass(frozen=True)
class ModeComparison:
    """Side-by-side modeled cost of CONV_R and ILAR scheduling for one layer."""

    layer: str
    convr_schedule: TileSchedule
    ilar_schedule: TileSchedule
    convr_report: LatencyReport
    ilar_report: LatencyReport

    @property
    def convr_cycles(self) -> int:
        return self.convr_report.total_cycles

    @property
    def ilar_cycles(self) -> int:
        return self.ilar_report.total_cycles

    @property
    def convr_dram_ifmap(self) -> int:
        return self.convr_report.dram_ifmap

    @property
    def ilar_dram_ifmap(self) -> int:
        return self.ilar_report.dram_ifmap


def compare_modes(
    layer: LayerSpec,
    kernel_set: SubKernelSet,
    hw: HardwareConfig,
    *,
    include_input_channels: bool = False,
) -> ModeComparison:
    """Solve the same deconvolution layer in both modes and report both costs."""
    convr = solve(
        layer, kernel_set, hw, ScheduleMode.CONV_R,
        include_input_channels=include_input_channels,
    )
    ilar = solve(
        layer, kernel_set, hw, ScheduleMode.ILAR,
        include_input_channels=include_input_channels,
    )
    convr_report = total_latency(
        convr, layer, kernel_set, hw, include_input_channels=include_input_channels
    )
    ilar_report = total_latency(
        ilar, layer, kernel_set, hw, include_input_channels=include_input_channels
    )
    return ModeComparison(layer.name, convr, ilar, convr_report, ilar_report)
