"""The scheduler's knapsack and round packer against the references in knapsack_oracle.

Every comparison is exact: the same count taken from every class. The
random instances are built the way pack_round builds them, in its
priority order (value, then weight, descending), and include duplicate
(weight, value) classes, zero values, counts up to 512 and capacities
from below the lightest item to above the total weight. The layer
instances are the ones the packer gets on every candidate tile of random
layers, pruned by `solve` or not. The packer test requires the
per-group count packer to build the same rounds as the item-level packer
on every candidate tile of random layers.
"""

import itertools
import random

import pytest

import knapsack_oracle as oracle
from svopt import scheduler
from svopt.perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LayerKind,
    LayerSpec,
    RoundPricer,
)
from svopt.scheduler import InfeasibleTileError, ScheduleMode


def random_classes(rng):
    classes = []
    for _ in range(rng.randint(1, 8)):
        if classes and rng.random() < 0.3:
            weight, value, _ = rng.choice(classes)
        else:
            weight = rng.randint(1, 60)
            value = rng.choice([0, rng.randint(0, 80), 2 * weight])
        classes.append((weight, value, rng.randint(1, rng.choice([4, 40, 512]))))
    return sorted(classes, key=lambda c: (-c[1], -c[0]))


@pytest.mark.parametrize("seed", range(4))
def test_random_class_instances(seed):
    rng = random.Random(seed)
    for _ in range(250):
        classes = random_classes(rng)
        lightest = min(w for w, _, _ in classes)
        total = sum(w * c for w, _, c in classes)
        capacity = rng.choice([
            rng.randint(0, lightest - 1),
            rng.randint(lightest, total),
            rng.randint(total, total + 100),
        ])
        want = oracle._pack_counts(classes, capacity)
        assert scheduler._pack_counts(classes, capacity) == want, (classes, capacity)


def test_any_class_order():
    # the answer depends on the order only through the lexicographic rule
    rng = random.Random(11)
    for _ in range(200):
        classes = [(rng.randint(1, 12), rng.randint(0, 20), rng.randint(1, 6))
                   for _ in range(rng.randint(1, 5))]
        capacity = rng.randint(0, sum(w * c for w, _, c in classes) + 5)
        assert scheduler._pack_counts(classes, capacity) == oracle._pack_counts(
            classes, capacity), (classes, capacity)


def random_layer(rng, rank):
    if rank == 2:
        kernel = (rng.randint(2, 5), rng.randint(2, 5))
        ifmap = (rng.randint(3, 16), rng.randint(3, 16))
        in_ch, out_ch = rng.randint(1, 16), rng.randint(1, 48)
    else:
        kernel = tuple(rng.randint(2, 3) for _ in range(3))
        ifmap = tuple(rng.randint(2, 7) for _ in range(3))
        in_ch, out_ch = rng.randint(1, 8), rng.randint(1, 24)
    return LayerSpec("r", LayerKind.DECONV, kernel, in_ch, out_ch, ifmap, 2)


@pytest.mark.parametrize("mode", list(ScheduleMode))
@pytest.mark.parametrize("rank", [2, 3])
def test_layer_instances(monkeypatch, rank, mode):
    # every candidate tile is packed, not only those solve's bound leaves unpruned
    calls = []
    pack_counts = scheduler._pack_counts

    def spy(classes, capacity):
        taken = pack_counts(classes, capacity)
        calls.append((list(classes), capacity, taken))
        return taken

    monkeypatch.setattr(scheduler, "_pack_counts", spy)
    rng = random.Random(f"{rank}-{mode.value}")
    for _ in range(12):
        layer = random_layer(rng, rank)
        hw = HardwareConfig(rng.randint(2, 8), rng.randint(2, 8), rng.randint(300, 6000), 8.0)
        price = RoundPricer(layer, True)
        for tile in itertools.product(*scheduler._candidate_extents(layer, price.groups)):
            packed(scheduler._pack_tile, price, tile, hw, mode)
    assert len(calls) >= 20
    if rank == 3 and mode is ScheduleMode.ILAR:
        assert any(len(classes) > 2 for classes, _, _ in calls)
    for classes, capacity, taken in calls:
        assert taken == oracle._pack_counts(classes, capacity), (classes, capacity)


def packed(pack_tile, price, tile, hw, mode):
    try:
        return pack_tile(price, tile, hw, mode)
    except InfeasibleTileError:
        return None


@pytest.mark.parametrize("iaware", [False, True])
@pytest.mark.parametrize("kind, mode", [
    (LayerKind.CONV, ScheduleMode.CONV_R),
    (LayerKind.DECONV, ScheduleMode.CONV_R),
    (LayerKind.DECONV, ScheduleMode.ILAR),
])
@pytest.mark.parametrize("rank", [2, 3])
def test_pack_tile_matches_item_level_packer(rank, kind, mode, iaware):
    rng = random.Random(f"{rank}-{kind.value}-{mode.value}-{iaware}")
    rounds = infeasible = 0
    for _ in range(10):
        layer = random_layer(rng, rank)
        if kind is LayerKind.CONV:
            kernel = tuple(min(k, n) for k, n in zip(layer.kernel, layer.ifmap))
            layer = LayerSpec("c", kind, kernel, layer.in_channels, layer.out_channels,
                              layer.ifmap, rng.choice([1, 2]))
        price = RoundPricer(layer, iaware)
        try:
            tiles = list(itertools.product(*scheduler._candidate_extents(layer, price.groups)))
        except InfeasibleScheduleError:
            continue
        one = scheduler._filter_round(price, rng.choice(tiles))
        whole = price(layer.ifmap, (layer.out_channels,) * len(price.groups)).occupancy
        # tight: one tile's ifmap plus at most one filter of each group, so
        # larger tiles fit no filter and smaller ones take several rounds; loose
        for buffer in (one.ifmap + rng.randint(0, one.occupancy - one.ifmap), 2 * whole):
            hw = HardwareConfig(4, 4, buffer, 8.0, double_buffered=False)
            for tile in tiles:
                want = packed(oracle._pack_tile, price, tile, hw, mode)
                assert packed(scheduler._pack_tile, price, tile, hw, mode) == want, (
                    layer, hw, tile)
                if want is None:
                    infeasible += 1
                else:
                    rounds += len(want)
    assert infeasible and rounds > 100
