"""Reference implementations of the scheduler's knapsack and round packer.

`_pack_counts` is the capacity-wide dynamic program that `svopt.scheduler`
used before its class-level search: every class is split into binary
bundles, a table over every buffer element from 0 to the capacity records
which bundles an optimal packing keeps, and a backtrack from the full
capacity reads the counts back.

`KnapsackItem`, `pack_round` and `_pack_tile` are the item-level packer
the scheduler used before it packed per-group filter counts: one item per
(filter group, output filter), regrouped into classes on every round and
consumed item by item. Here `pack_round` solves each round with the
dynamic program above.

Both stay here, unchanged, so tests can require the scheduler's packer to
return the same counts and the same rounds on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from svopt.perfmodel import HardwareConfig, RoundPricer
from svopt.scheduler import InfeasibleTileError, ScheduleMode, _filter_round


def _pack_counts(classes: list[tuple[int, int, int]], capacity: int) -> list[int]:
    """Exact bounded knapsack over (weight, value, count) classes.

    `classes` arrive in descending selection priority. Counts are split
    into binary bundles and processed lowest priority first, so the
    backtrack visits high-priority bundles first and keeps them on value
    ties.
    """
    taken = [0] * len(classes)
    pseudo = []  # (class index, bundle count, bundle weight, bundle value)
    for ci in range(len(classes) - 1, -1, -1):
        weight, value, count = classes[ci]
        chunk = 1
        while count > 0:
            take = min(chunk, count)
            pseudo.append((ci, take, weight * take, value * take))
            count -= take
            chunk *= 2
    dp = np.zeros(capacity + 1, dtype=np.int64)
    takes = np.zeros((len(pseudo), capacity + 1), dtype=bool)
    for i, (_, _, bw, bv) in enumerate(pseudo):
        if bw > capacity:
            continue
        candidate = dp[: capacity + 1 - bw] + bv
        keep = candidate >= dp[bw:]
        takes[i, bw:] = keep
        dp[bw:] = np.where(keep, candidate, dp[bw:])
    w = capacity
    for i in range(len(pseudo) - 1, -1, -1):
        ci, cnt, bw, _ = pseudo[i]
        if bw <= w and takes[i, w]:
            taken[ci] += cnt
            w -= bw
    return taken


@dataclass(frozen=True)
class KnapsackItem:
    """One output filter of one filter group, as a knapsack item.

    weight is the buffer footprint of scheduling this filter in a round
    (its kernel elements plus its ofmap slice for the current tile);
    value is the MAC work it contributes on that tile.
    """

    group: int
    filter_index: int
    weight: int
    value: int

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("item weight must be positive")
        if self.value < 0:
            raise ValueError("item value must be non-negative")


def _items(price: RoundPricer, tile) -> list[KnapsackItem]:
    terms = _filter_round(price, tile)
    return [
        KnapsackItem(g, f, w + o, v)
        for g, (w, o, v) in enumerate(zip(terms.weights, terms.ofmap, terms.macs))
        for f in range(price.layer.out_channels)
    ]


def pack_round(items: list[KnapsackItem], capacity: int) -> list[KnapsackItem]:
    """Select a maximal-value subset of items fitting `capacity` elements.

    Exact 0/1 knapsack over classes of equal (weight, value) items. Of the
    maximal-value subsets it takes the most items of the highest value,
    then of the largest weight (for layer-derived items, value at a fixed
    tile grows with the sub-kernel footprint), and so on; within a class,
    lower group, then lower filter. Raises InfeasibleTileError if none fits.
    """
    if not items:
        raise ValueError("no items to pack")
    capacity = int(capacity)
    if capacity < min(it.weight for it in items):
        raise InfeasibleTileError(
            f"capacity {capacity} holds no item (smallest weight "
            f"{min(it.weight for it in items)})"
        )
    if sum(it.weight for it in items) <= capacity:
        return list(items)
    members: dict[tuple[int, int], list[KnapsackItem]] = {}
    for it in sorted(items, key=lambda it: (it.group, it.filter_index)):
        members.setdefault((it.weight, it.value), []).append(it)
    keys = sorted(members, key=lambda k: (-k[1], -k[0]))
    counts = _pack_counts([(*k, len(members[k])) for k in keys], capacity)
    selection = [it for key, count in zip(keys, counts) for it in members[key][:count]]
    return sorted(selection, key=lambda it: (it.group, it.filter_index))


def _round_capacity(price: RoundPricer, tile, hw: HardwareConfig) -> int:
    """Buffer elements left for filters once the ifmap tile is resident."""
    return hw.usable_buffer - _filter_round(price, tile).ifmap


def _pack_tile(
    price: RoundPricer, tile, hw: HardwareConfig, mode: ScheduleMode
) -> list[tuple[int, ...]]:
    """Filter-count vectors, one per round, consuming every filter once.

    CONV_R packs each group's items on their own, ILAR packs all items
    together.
    """
    items = _items(price, tile)
    n_groups = len(price.groups)
    capacity = _round_capacity(price, tile, hw)
    if mode is ScheduleMode.CONV_R:
        pools = [[it for it in items if it.group == g] for g in range(n_groups)]
    else:
        pools = [items]
    parts: list[tuple[int, ...]] = []
    for pool in pools:
        remaining = {(it.group, it.filter_index): it for it in pool}
        while remaining:
            selected = pack_round(list(remaining.values()), capacity)
            counts = [0] * n_groups
            for it in selected:
                counts[it.group] += 1
                del remaining[it.group, it.filter_index]
            parts.append(tuple(counts))
    return parts
