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

The candidate tiles, the product of per-axis extents, are scored per
axis in one pricer call, which drops the tiles that leave no room for
the heaviest filter, so every scored tile packs. They are packed in one
pass, in order of a lower bound on their cycles (the larger of the
tile's compute floor and its DRAM-traffic floor), and the pass stops at
the first tile whose bound cannot beat the best packed so far.
Equal-cycle tiles are told apart by a tie key (the larger of the whole
layer's compute and the traffic floor), then by the tile itself.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .deconv import SubKernelSet
from .perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LayerKind,
    LayerSpec,
    RoundPricer,
    RoundTerms,
    TileGrid,
    TileSchedule,
    _check_kernel_set,
    validate_schedule,
)

__all__ = [
    "InfeasibleTileError",
    "ScheduleMode",
    "pack_round",
    "solve",
]


class InfeasibleTileError(InfeasibleScheduleError):
    """No filter fits the per-round capacity left by this ifmap tile."""


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


def _candidate_extents(layer: LayerSpec, groups) -> list[list[int]]:
    """Per axis, the divisors of the ifmap extent plus the powers of two below
    it, none smaller than the largest group extent on that axis, sorted; the
    candidate tiles are their product."""
    per_axis = []
    for axis, extent in enumerate(layer.ifmap):
        least = max(dims[axis] for dims in groups)
        values = {d for d in range(1, extent + 1) if extent % d == 0}
        values.update(1 << k for k in range((extent - 1).bit_length()))
        per_axis.append(sorted(v for v in values if v >= least))
    return per_axis


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
    """Candidate tiles that leave room for every filter, as (bound, tie, tile), sorted.

    `bound`, the larger of the tile's two `RoundPricer.candidate_floors`,
    is beaten by no schedule built on the tile. `tie`, the larger of the
    whole layer's compute and the traffic floor, never exceeds `bound`;
    with the tile it decides which of two equal-cost tiles the solver keeps.
    """
    layer = price.layer
    whole = price(layer.ifmap, (layer.out_channels,) * len(price.groups))
    lb = -(-sum(whole.macs) // hw.pe_count)
    extents = _candidate_extents(layer, price.groups)
    return sorted([(max(compute, traffic), max(lb, traffic), tile) for compute, traffic, tile
                   in price.candidate_floors(extents, hw, mode is ScheduleMode.ILAR)])


def solve(
    layer: LayerSpec,
    kernel_set: SubKernelSet | None,
    hw: HardwareConfig,
    mode: ScheduleMode,
    *,
    include_input_channels: bool = False,
) -> TileSchedule:
    """Greedy schedule: best tile from the candidate grid, packed round by round.

    For a packed tile the packer consumes every filter, the resulting
    round structure is applied at every tile origin, and beta is chosen
    as the per-layer argmin. Tiles are packed in `_scored_tiles` order
    until the next (bound, tie, tile) is not below the incumbent's
    (cycles, tie, tile), and an incumbent is replaced only by a smaller
    (cycles, tie, tile), beta=1 tried before beta=0. So the schedule is
    the one packing every tile in (tie, tile) order would keep: the first
    of least cycles. Deterministic for fixed inputs.
    """
    if mode is ScheduleMode.ILAR and layer.kind is not LayerKind.DECONV:
        raise ValueError("ILAR applies only to transformed deconvolution layers")
    _check_kernel_set(layer, kernel_set)
    price = RoundPricer(layer, include_input_channels)
    best = best_tie = None  # best is (cycles, tile, parts, beta)
    for bound, tie, tile in _scored_tiles(price, hw, mode):
        if best is not None and (bound, tie, tile) >= (best[0], best_tie, best[1]):
            break
        parts = _pack_tile(price, tile, hw, mode)
        for beta, cycles in zip((1, 0), _grid_cycles(price, tile, parts, hw)):
            if best is None or (cycles, tie, tile) < (best[0], best_tie, best[1]):
                best, best_tie = (cycles, tile, parts, beta), tie
    if best is None:
        raise InfeasibleScheduleError(
            f"layer {layer.name}: no candidate tile satisfies the buffer "
            f"capacity constraint (usable {hw.usable_buffer} elements)"
        )
    _, tile, parts, beta = best
    schedule = TileSchedule(beta, grid=TileGrid(layer.ifmap, tile, tuple(parts)))
    validate_schedule(schedule, layer, hw, include_input_channels=include_input_channels)
    return schedule
