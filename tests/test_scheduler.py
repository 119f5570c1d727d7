import dataclasses
import itertools
import math
import random
import re
import sys
import types

import numpy as np
import pytest

from svopt import deconv, scheduler
from svopt.deconv import decompose_nd, transformed_deconv
from svopt.formats import load_schedule, save_schedule
from svopt.perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LayerKind,
    LayerSpec,
    RoundPlan,
    RoundPricer,
    TileGrid,
    TileSchedule,
    filter_group_dims,
    total_latency,
    validate_schedule,
)
from svopt.scheduler import (
    InfeasibleTileError,
    ScheduleMode,
    _filter_round,
    _grid_cycles,
    _pack_tile,
    _scored_tiles,
    pack_round,
    solve,
)
from svopt.tensor import deconv_reference
import schedule_oracle
from schedule_oracle import (
    SearchSpaceExceeded,
    every_tile,
    exhaustive,
    tile_floors,
    validate_rounds,
)

SEARCHES = {"solve": solve, "exhaustive": exhaustive}


def deconv_layer(name="d", kernel=(3, 3), in_ch=2, out_ch=4, ifmap=(8, 8)):
    return LayerSpec(name, LayerKind.DECONV, kernel, in_ch, out_ch, ifmap, 2)


def kset(kernel):
    return decompose_nd(np.zeros(kernel))


def random_instance(rng):
    kernel = rng.choice([(2, 2), (3, 3), (3, 2), (5, 5)])
    layer = LayerSpec(
        "r",
        LayerKind.DECONV,
        kernel,
        rng.randint(1, 4),
        rng.randint(1, 6),
        (rng.randint(3, 12), rng.randint(3, 12)),
        2,
    )
    hw = HardwareConfig(
        rng.randint(2, 8),
        rng.randint(2, 8),
        rng.randint(100, 2000),
        float(rng.choice([1, 2, 4, 8, 16])),
    )
    return layer, kset(kernel), hw


class TestFilterClasses:
    big_hw = HardwareConfig(4, 4, 10**6, 8.0)

    def test_deconv_group_count(self):
        price = RoundPricer(deconv_layer(out_ch=4))
        assert len(_filter_round(price, (4, 4)).macs) == 4  # one class per sub-kernel
        assert _pack_tile(price, (4, 4), self.big_hw, ScheduleMode.ILAR) == [(4, 4, 4, 4)]

    def test_conv_group_count(self):
        price = RoundPricer(LayerSpec("c", LayerKind.CONV, (3, 3), 2, 4, (8, 8), 1))
        assert len(_filter_round(price, (4, 4)).macs) == 1
        assert _pack_tile(price, (4, 4), self.big_hw, ScheduleMode.CONV_R) == [(4,)]

    def test_larger_subkernel_larger_value(self):
        one = _filter_round(RoundPricer(deconv_layer()), (4, 4))
        assert one.macs[0] > one.macs[3]  # 2x2 slice vs 1x1 slice


class TestPackRound:
    def test_everything_fits_in_one_round(self):
        one = _filter_round(RoundPricer(deconv_layer(out_ch=2)), (4, 4))
        classes = [(w + o, v) for w, o, v in zip(one.weights, one.ofmap, one.macs)]
        assert pack_round(classes, [2, 2, 2, 2], 10**6) == (2, 2, 2, 2)

    def test_tie_breaks_toward_larger_subkernel(self):
        # one big filter or two small ones, equal total value and weight
        assert pack_round([(8, 8), (4, 4)], [1, 2], 8) == (1, 0)

    @staticmethod
    def bruteforce_selection(classes, counts, capacity):
        """Max value, then lexicographic-max per-group counts.

        Groups are taken in the order (-value, -weight, group), so groups
        that share a (weight, value) are filled lowest group first.
        """
        order = sorted(range(len(classes)), key=lambda g: (-classes[g][1], -classes[g][0], g))
        best = None
        for chosen in itertools.product(*(range(c + 1) for c in counts)):
            if sum(w * c for (w, _), c in zip(classes, chosen)) > capacity:
                continue
            key = (sum(v * c for (_, v), c in zip(classes, chosen)), [chosen[g] for g in order])
            if best is None or key > best[0]:
                best = (key, chosen)
        return best[1]

    def test_matches_bruteforce_subset_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            n_groups = rng.randint(1, 4)
            classes = [(rng.randint(1, 12), rng.randint(0, 20)) for _ in range(n_groups)]
            counts = [rng.randint(1, 4) for _ in range(n_groups)]
            capacity = rng.randint(min(w for w, _ in classes), 60)
            best = max(
                sum(v * c for (_, v), c in zip(classes, chosen))
                for chosen in itertools.product(*(range(c + 1) for c in counts))
                if sum(w * c for (w, _), c in zip(classes, chosen)) <= capacity
            )
            got = pack_round(classes, counts, capacity)
            assert sum(v * c for (_, v), c in zip(classes, got)) == best
            assert sum(w * c for (w, _), c in zip(classes, got)) <= capacity
            assert got == self.bruteforce_selection(classes, counts, capacity)
        # tie-heavy: groups repeat a few (weight, value) classes
        for _ in range(60):
            shapes = [(rng.randint(1, 4), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
            classes = [rng.choice(shapes) for _ in range(rng.randint(1, 4))]
            counts = [rng.randint(1, 4) for _ in classes]
            capacity = rng.randint(
                min(w for w, _ in classes), sum(w * c for (w, _), c in zip(classes, counts))
            )
            assert pack_round(classes, counts, capacity) == self.bruteforce_selection(
                classes, counts, capacity)

    def test_nothing_fits_raises(self):
        with pytest.raises(InfeasibleTileError):
            pack_round([(50, 1)], [1], 10)


class TestSolve:
    def test_single_round_when_everything_fits(self):
        layer = deconv_layer(out_ch=1, in_ch=1, ifmap=(4, 4))
        hw = HardwareConfig(4, 4, 10**6, 8.0)
        sched = solve(layer, kset((3, 3)), hw, ScheduleMode.ILAR)
        assert sched.n_rounds == 1
        assert sched.rounds[0].tile == (4, 4)
        report = total_latency(sched, layer, kset((3, 3)), hw)
        assert report.total_cycles == report.rounds[0].cycles

    def test_schedules_validate_on_construction(self):
        rng = random.Random(7)
        for _ in range(40):
            layer, ks, hw = random_instance(rng)
            for mode in (ScheduleMode.CONV_R, ScheduleMode.ILAR):
                try:
                    sched = solve(layer, ks, hw, mode)
                except InfeasibleScheduleError:
                    continue
                validate_schedule(sched, layer, hw)

    def test_deterministic(self):
        rng = random.Random(23)
        for _ in range(10):
            layer, ks, hw = random_instance(rng)
            try:
                a = solve(layer, ks, hw, ScheduleMode.ILAR)
            except InfeasibleScheduleError:
                continue
            b = solve(layer, ks, hw, ScheduleMode.ILAR)
            assert a == b

    def test_ilar_rejected_for_conv(self):
        layer = LayerSpec("c", LayerKind.CONV, (3, 3), 2, 4, (8, 8), 1)
        hw = HardwareConfig(4, 4, 10**6, 8.0)
        with pytest.raises(ValueError):
            solve(layer, None, hw, ScheduleMode.ILAR)

    def test_infeasible_hardware(self):
        layer = deconv_layer(in_ch=8, ifmap=(8, 8))
        hw = HardwareConfig(4, 4, 16, 8.0)  # buffer can't hold any tile
        with pytest.raises(InfeasibleScheduleError):
            solve(layer, kset((3, 3)), hw, ScheduleMode.ILAR)

    def test_pruning_preserves_the_tile_grid_minimum(self):
        # every_tile packs every candidate, so solve's bounds may prune no tile
        # that wins or ties earlier in (tie, tile) order. About one draw in 300
        # has a tile whose bound ties the incumbent's cycles earlier in that
        # order: a stop rule that ignores the tie key needs this many draws to show
        rng = random.Random(99)
        regimes = set()
        checked = 0
        for _ in range(1600):
            layer, ks_, hw, mode, iaware = guard_case(rng, small=False)
            try:
                want = every_tile(layer, ks_, hw, mode, include_input_channels=iaware)
            except InfeasibleScheduleError:
                with pytest.raises(InfeasibleScheduleError):
                    solve(layer, ks_, hw, mode, include_input_channels=iaware)
                continue
            got = solve(layer, ks_, hw, mode, include_input_channels=iaware)
            assert (got.grid, got.beta) == (want.grid, want.beta), (layer, hw, mode, iaware)
            regimes |= {("kind", layer.kind), ("rank", layer.rank), ("mode", mode),
                        ("iaware", iaware), ("double", hw.double_buffered),
                        ("inf", math.isinf(hw.bandwidth))}
            checked += 1
        assert checked >= 1500
        assert len(regimes) == 12

    @pytest.mark.parametrize("mode", list(ScheduleMode))
    def test_decoder_layers_pack_only_the_chosen_tile(self, monkeypatch, mode):
        # DispNet upconv5..upconv1 and GC-Net's first two 3-D deconvolutions on a
        # 24x24-PE, 786,432-element, 16 elements/cycle accelerator: the bounds
        # prune every tile but the one solve keeps
        hw = HardwareConfig(24, 24, 786432, 16.0, double_buffered=True)
        packed = []
        pack_tile = scheduler._pack_tile

        def spy(price, tile, hw, mode):
            packed.append(tile)
            return pack_tile(price, tile, hw, mode)

        monkeypatch.setattr(scheduler, "_pack_tile", spy)
        for layer in DECODER_LAYERS:
            want = every_tile(layer, kset(layer.kernel), hw, mode)
            packed.clear()
            got = solve(layer, kset(layer.kernel), hw, mode)
            assert (got.grid, got.beta) == (want.grid, want.beta), layer.name
            assert packed == [got.grid.tile], layer.name


def test_compute_floor_bounds_every_packed_tile():
    """Neither floor of a tile exceeds the cycles its packed rounds cost."""
    rng = random.Random(5)
    checked = tight = above = below = 0
    for _ in range(150):
        layer, _, hw, mode, iaware = guard_case(rng, small=False)
        price = RoundPricer(layer, iaware)
        for bound, tie, tile in _scored_tiles(price, hw, mode):
            compute, traffic = tile_floors(price, tile, hw, mode is ScheduleMode.ILAR)
            assert bound == max(compute, traffic) and tie <= bound
            parts = _pack_tile(price, tile, hw, mode)
            cycles = min(_grid_cycles(price, tile, parts, hw))
            assert compute <= cycles and traffic <= cycles, (layer, hw, mode, iaware, tile)
            tight += compute == cycles
            above += compute > traffic > 0
            below += traffic > compute
            checked += 1
    assert checked > 1000 and tight and above and below


def holds_every_filter(price, tile, hw) -> bool:
    """Whether the heaviest knapsack class, one filter with its ofmap share, fits beside `tile`."""
    one = price(tile, (1,) * len(price.groups))
    return max(w + o for w, o in zip(one.weights, one.ofmap)) <= hw.usable_buffer - one.ifmap


def assert_floors_match_oracle(price, hw, mode) -> list:
    """candidate_floors equals tile_floors, as ints, on every candidate that
    holds every filter, and drops the others; returns the dropped tiles."""
    mixed, layer = mode is ScheduleMode.ILAR, price.layer
    extents = scheduler._candidate_extents(layer, price.groups)
    tiles = list(itertools.product(*extents))
    fits, dropped = [], []
    for t in tiles:
        (fits if holds_every_filter(price, t, hw) else dropped).append(t)
    got = list(price.candidate_floors(extents, hw, mixed))
    assert got == [(*tile_floors(price, t, hw, mixed), t) for t in fits], (layer, hw, mode)
    assert all(type(c) is int and type(t) is int for c, t, _ in got)
    return dropped


def test_candidate_floors_match_the_per_tile_oracle_on_guard_draws():
    rng = random.Random(22)
    dropped, regimes = 0, set()
    for _ in range(300):
        layer, _, hw, mode, iaware = guard_case(rng, small=False)
        price = RoundPricer(layer, iaware)
        gone = set(assert_floors_match_oracle(price, hw, mode))
        # scoring drops exactly the candidates on which the packer raises
        for tile in itertools.product(*scheduler._candidate_extents(layer, price.groups)):
            try:
                _pack_tile(price, tile, hw, mode)
            except InfeasibleTileError:
                assert tile in gone, (layer, hw, mode, tile)
            else:
                assert tile not in gone, (layer, hw, mode, tile)
        dropped += len(gone)
        regimes |= {("rank", layer.rank), ("mode", mode), ("inf", math.isinf(hw.bandwidth))}
    assert dropped and len(regimes) == 6


@pytest.mark.parametrize("iaware", [False, True])
@pytest.mark.parametrize("buffer", [786432, 49152])
@pytest.mark.parametrize("bandwidth", [16.0, 1.0, 0.25, math.inf])
def test_candidate_floors_match_the_per_tile_oracle_on_decoders(bandwidth, buffer, iaware):
    hw = HardwareConfig(24, 24, buffer, bandwidth)
    for layer in DECODER_LAYERS:
        for mode in ScheduleMode:
            assert_floors_match_oracle(RoundPricer(layer, iaware), hw, mode)


def test_no_tile_whose_ifmap_fills_the_buffer_is_packed(monkeypatch):
    # such a tile holds no filter, so scoring drops it (test_infeasible_hardware:
    # solve still raises InfeasibleScheduleError when every candidate is one)
    packed = []
    pack_tile = scheduler._pack_tile

    def spy(price, tile, hw, mode):
        packed.append((price, tile, hw))
        return pack_tile(price, tile, hw, mode)

    monkeypatch.setattr(scheduler, "_pack_tile", spy)
    hw = HardwareConfig(24, 24, 49152, 16.0)
    for layer in DECODER_LAYERS:
        for mode in ScheduleMode:
            solve(layer, kset(layer.kernel), hw, mode)
    rng = random.Random(23)
    for _ in range(300):
        layer, ks_, hw, mode, iaware = guard_case(rng, small=False)
        try:
            solve(layer, ks_, hw, mode, include_input_channels=iaware)
        except InfeasibleScheduleError:
            pass
    assert packed
    assert all(math.prod(tile) * price.layer.in_channels < hw.usable_buffer
               for price, tile, hw in packed)
    # nor one that leaves room for some filters but not the heaviest
    assert all(holds_every_filter(price, tile, hw) for price, tile, hw in packed)
    # packed anyway, such a tile leaves pack_round less room than any filter weighs
    layer = DECODER_LAYERS[0]  # 1,024 input channels: a 4x6 tile fills 24,576 elements
    price, hw = RoundPricer(layer), HardwareConfig(24, 24, 49152, 16.0)
    for tile in ((4, 6), (5, 6)):
        for mode in ScheduleMode:
            with pytest.raises(InfeasibleTileError, match="holds no filter"):
                _pack_tile(price, tile, hw, mode)


def test_candidate_extents_are_divisors_and_powers_of_two():
    # per axis: the extent's divisors, the powers of two below it and the extent
    # itself, none below the largest group extent on that axis, sorted
    extents = range(1, 301)
    layer = types.SimpleNamespace(ifmap=tuple(extents))  # only the ifmap is read
    for least in range(1, 8):
        groups = [(least,) * len(extents), (1,) * len(extents)]
        want = [sorted(v for v in {d for d in range(1, e + 1) if e % d == 0}
                       | {2**k for k in range(10) if 2**k < e} | {e} if v >= least)
                for e in extents]
        assert scheduler._candidate_extents(layer, groups) == want, least


UPCONV2 = LayerSpec("upconv2", LayerKind.DECONV, (4, 4), 128, 64, (68, 120), 2)


@pytest.mark.parametrize("layer, hw, mode, rival, tile, beta, cycles, dram", [
    # DispNet upconv2 on a 49,152-element buffer: the rival has the smaller bound
    (UPCONV2, HardwareConfig(24, 24, 49152, 4.0), ScheduleMode.ILAR, (17, 8),
     (8, 8), 1, 1_856_940, (1_044_480, 0, 522_240)),
    (UPCONV2, HardwareConfig(24, 24, 49152, 1.0), ScheduleMode.ILAR, (17, 8),
     (8, 8), 1, 1_856_940, (1_044_480, 0, 522_240)),
    # the rival comes first in tile order
    (LayerSpec("g", LayerKind.DECONV, (2, 3), 2, 1, (8, 9), 2),
     HardwareConfig(5, 5, 2086, 2.0, double_buffered=False), ScheduleMode.CONV_R, (4, 9),
     (8, 9), 0, 44, (0, 6, 72)),
], ids=["upconv2-bw4", "upconv2-bw1", "tile-order"])
def test_equal_cycle_tiles_keep_the_tie_order(layer, hw, mode, rival, tile, beta, cycles, dram):
    # the rival costs what the kept tile costs, and ordering equal-cycle tiles by
    # the bound or by the tile alone would keep it
    price = RoundPricer(layer)
    bounds = {t: bound for bound, _, t in _scored_tiles(price, hw, mode)}
    assert bounds[rival] < bounds[tile] or rival < tile
    assert min(_grid_cycles(price, rival, _pack_tile(price, rival, hw, mode), hw)) == cycles
    sched = solve(layer, kset(layer.kernel), hw, mode)
    report = total_latency(sched, layer, kset(layer.kernel), hw)
    assert (sched.grid.tile, sched.beta, report.total_cycles) == (tile, beta, cycles)
    assert (report.dram_ifmap, report.dram_weights, report.dram_ofmap) == dram


class TestExhaustive:
    def test_equals_greedy_on_one_round_instance(self):
        layer = deconv_layer(out_ch=1, in_ch=1, ifmap=(4, 4))
        hw = HardwareConfig(4, 4, 10**6, 8.0)
        ks33 = kset((3, 3))
        g = total_latency(solve(layer, ks33, hw, ScheduleMode.ILAR), layer, ks33, hw)
        e = total_latency(exhaustive(layer, ks33, hw, ScheduleMode.ILAR), layer, ks33, hw)
        assert g.total_cycles == e.total_cycles

    @pytest.mark.parametrize("draw", ["few_channels", "hundreds_of_channels"])
    def test_greedy_never_beats_exhaustive_and_ilar_contains_convr(self, draw):
        # few_channels: 1-2 input channels under paper weights. hundreds_of_channels:
        # 128-512 under input-channel-aware weights, with a buffer of 10-60 elements
        # per input channel, which holds only some of a tile's filters per round
        iaware = draw == "hundreds_of_channels"
        rng = random.Random(31)
        checked = 0
        parts_per_origin = set()
        while checked < 8:
            kernel = rng.choice([(2, 2), (3, 3)])
            in_ch = rng.randint(128, 512) if iaware else rng.randint(1, 2)
            layer = LayerSpec(
                "s", LayerKind.DECONV, kernel, in_ch, rng.randint(1, 4),
                (rng.randint(4, 8), rng.randint(4, 8)), 2,
            )
            ks_ = kset(kernel)
            hw = HardwareConfig(
                rng.randint(2, 5), rng.randint(2, 5),
                rng.randint(10, 60) * in_ch if iaware else rng.randint(150, 600),
                float(rng.choice([2, 4, 8])),
            )

            def cycles(schedule):
                return total_latency(
                    schedule, layer, ks_, hw, include_input_channels=iaware
                ).total_cycles

            try:
                greedy = solve(layer, ks_, hw, ScheduleMode.ILAR, include_input_channels=iaware)
            except InfeasibleScheduleError:
                continue
            ex_ilar = exhaustive(layer, ks_, hw, ScheduleMode.ILAR, include_input_channels=iaware)
            ex_convr = exhaustive(
                layer, ks_, hw, ScheduleMode.CONV_R, include_input_channels=iaware
            )
            assert cycles(greedy) >= cycles(ex_ilar)
            assert cycles(ex_ilar) <= cycles(ex_convr)
            parts_per_origin.add(len(greedy.grid.parts))
            checked += 1
        if iaware:
            assert max(parts_per_origin) > 1

    def test_every_emitted_round_respects_the_buffer(self):
        layer = deconv_layer(out_ch=3, in_ch=2, ifmap=(6, 6))
        hw = HardwareConfig(3, 3, 300, 4.0)
        sched = exhaustive(layer, kset((3, 3)), hw, ScheduleMode.ILAR)
        validate_schedule(sched, layer, hw)  # checks per-round occupancy


def assert_rejected(rounds, layer, hw, oracle, named):
    """validate_rounds rejects the explicit rounds matching `oracle`, and
    validate_schedule, which checks the grid they spell, rejects them matching `named`."""
    schedule = TileSchedule(1, tuple(RoundPlan(*r) for r in rounds))
    with pytest.raises(InfeasibleScheduleError, match=oracle):
        validate_rounds(schedule, layer, hw)
    with pytest.raises(InfeasibleScheduleError, match=named):
        validate_schedule(schedule, layer, hw)


class TestValidateCoverage:
    """The tiles of a schedule's origins must cover the ifmap exactly once."""

    layer = deconv_layer(out_ch=4, in_ch=2, ifmap=(8, 8))
    hw = HardwareConfig(4, 4, 300, 4.0)

    def solved(self, mode):
        sched = solve(self.layer, kset((3, 3)), self.hw, mode)
        assert len({r.origin for r in sched.rounds}) > 1
        return sched

    @pytest.mark.parametrize("mode", list(ScheduleMode))
    def test_dropping_one_origin_is_rejected(self, mode):
        sched = self.solved(mode)
        gone = sched.rounds[-1].origin
        kept = tuple(r for r in sched.rounds if r.origin != gone)
        assert_rejected(kept, self.layer, self.hw, rf"element {re.escape(str(gone))}",
                        rf"^layer d round {len(kept)}: missing, where the grid runs "
                        rf"RoundPlan\(origin={re.escape(str(gone))}")

    def test_overlapping_origins_name_a_doubly_covered_element(self):
        sched = self.solved(ScheduleMode.ILAR)
        first = [r for r in sched.rounds if r.origin == (0, 0)]
        shifted = tuple(RoundPlan((0, 1), r.tile, r.filters) for r in first)
        assert_rejected(sched.rounds + shifted, self.layer, self.hw,
                        r"element \(0, 1\) \(2 tiles",
                        rf"^layer d round {len(sched.rounds)}: RoundPlan\(origin=\(0, 1\).* "
                        rf"is extra, the grid runs {len(sched.rounds)} rounds$")

    def test_tile_shape_must_agree_within_an_origin(self):
        sched = self.solved(ScheduleMode.CONV_R)
        r0, *rest = sched.rounds
        assert any(r.origin == r0.origin for r in rest)
        odd = RoundPlan(r0.origin, (1, 2), r0.filters)
        # the grid spelled by the rounds at the first origin lacks r0's filters
        assert_rejected((*rest, odd), self.layer, self.hw, "differs from tile",
                        r"^layer d grid: filter coverage constraint violated")


class TestValidateRoundValues:
    """Origins, tiles and filter counts that no coverage tally would catch."""

    layer = deconv_layer(out_ch=4, in_ch=2, ifmap=(8, 8))
    hw = HardwareConfig(4, 4, 10**6, 4.0)
    whole = ((0, 0), (8, 8), (4, 4, 4, 4))

    def test_one_round_over_the_whole_ifmap_is_valid(self):
        schedule = TileSchedule(1, (RoundPlan(*self.whole),))
        validate_rounds(schedule, self.layer, self.hw)
        validate_schedule(schedule, self.layer, self.hw)

    @pytest.mark.parametrize("rounds, oracle, named", [
        # a tile of zero rows beyond the ifmap's edge covers nothing
        ([whole, ((0, 8), (8, 0), (4, 4, 4, 4))], r"round 1: tile \(8, 0\) is not 2 positive",
         r"^layer d round 1: RoundPlan\(origin=\(0, 8\), tile=\(8, 0\).* is extra"),
        # a negative origin's slice is empty, so it covers nothing either
        ([whole, ((-1, 0), (1, 8), (4, 4, 4, 4))], r"round 1: origin \(-1, 0\) is not 2 non-neg",
         r"^layer d round 1: RoundPlan\(origin=\(-1, 0\).* is extra"),
        # counts O+1 and -1 at one origin tally to O
        ([((0, 0), (8, 8), (5, 4, 4, 4)), ((0, 0), (8, 8), (-1, 0, 0, 0))],
         r"round 1: filters \(-1, 0, 0, 0\) are not 4 non-negative",
         r"^layer d grid: filters \(-1, 0, 0, 0\) are not 4 non-negative"),
        # a rank-1 round over a rank-2 layer covers whole rows
        ([((0,), (8,), (4, 4, 4, 4))], r"round 0: tile \(8,\) is not 2 positive",
         r"^layer d grid: tile \(8,\) is not 2 positive extents"),
        # no rounds, and a zero extent in round 0's tile, which the grid would step by
        ([], r"element \(0, 0\) \(0 tiles", r"^layer d: no rounds$"),
        ([((0, 0), (4, 0), (4, 4, 4, 4))], r"round 0: tile \(4, 0\) is not 2 positive",
         r"^layer d grid: tile \(4, 0\) is not 2 positive extents"),
    ])
    def test_rejected_naming_the_round(self, rounds, oracle, named):
        assert_rejected(rounds, self.layer, self.hw, oracle, named)


def refuse_round_plans(monkeypatch):
    """Fail the test wherever a RoundPlan is built."""
    def refuse(cls, *args, **kwargs):
        raise AssertionError("built a RoundPlan")

    monkeypatch.setattr(RoundPlan, "__new__", refuse)


class TestValidateGrid:
    """A grid that is no schedule of its layer fails naming what is wrong, no round built."""

    layer = deconv_layer(out_ch=4, in_ch=2, ifmap=(8, 8))
    hw = HardwareConfig(4, 4, 10**6, 4.0)
    parts = ((4, 4, 4, 4),)

    @pytest.fixture(autouse=True)
    def no_rounds(self, monkeypatch):
        refuse_round_plans(monkeypatch)

    def validate(self, ifmap, tile, parts, hw=hw):
        validate_schedule(TileSchedule(1, grid=TileGrid(ifmap, tile, parts)), self.layer, hw)

    def test_a_grid_over_the_whole_ifmap_is_valid(self):
        self.validate((8, 8), (3, 8), self.parts)

    @pytest.mark.parametrize("ifmap, tile, parts, match", [
        ((8, 9), (4, 4), parts, r": ifmap \(8, 9\) differs from the layer's ifmap \(8, 8\)"),
        ((8, 8), (8,), parts, r"tile \(8,\) is not 2 positive extents"),
        ((8, 8), (4, 0), parts, r"tile \(4, 0\) is not 2 positive extents"),
        ((8, 8), (4, -2), parts, r"tile \(4, -2\) is not 2 positive extents"),
        ((8, 8), (4, 4), ((4, 4, 4),), r"filters \(4, 4, 4\) are not 4 non-negative"),
        ((8, 8), (4, 4), ((5, 4, 4, 4), (-1, 0, 0, 0)),
         r"filters \(-1, 0, 0, 0\) are not 4 non-negative"),
        ((8, 8), (4, 4), ((4, 4, 3, 4),),
         r": filter coverage constraint violated for group 2 \(3 scheduled, 4 required\)"),
    ])
    def test_rejected_naming_what_is_wrong(self, ifmap, tile, parts, match):
        with pytest.raises(InfeasibleScheduleError, match=rf"^layer d grid.*{match}"):
            self.validate(ifmap, tile, parts)

    def test_overflow_names_the_clipped_tile_and_the_part(self):
        # the tile at origin 0 is clipped to 8 rows; only the second part overflows
        parts = ((1, 0, 0, 0), (3, 4, 4, 4))
        need = RoundPricer(self.layer)((8, 2), parts[1]).occupancy
        hw = HardwareConfig(4, 4, 2 * (need - 1), 4.0)
        assert RoundPricer(self.layer)((8, 2), parts[0]).occupancy < need - 1
        match = (r"layer d grid, tile \(8, 2\) with part \(3, 4, 4, 4\): buffer capacity "
                 rf"constraint violated \({need} elements, usable {need - 1}\)")
        with pytest.raises(InfeasibleScheduleError, match=match):
            self.validate((8, 8), (12, 2), parts, hw)


@pytest.mark.parametrize("beta", [True, 1.0, 2, -1])
def test_beta_is_the_int_0_or_1(beta):
    with pytest.raises(ValueError, match="beta must be the int 0 or 1"):
        TileSchedule(beta, grid=TileGrid((8, 8), (8, 8), ((4, 4, 4, 4),)))


def test_equal_grids_compare_without_expanding(tmp_path, monkeypatch):
    layer = deconv_layer(out_ch=4, in_ch=2, ifmap=(8, 8))
    ks_, hw = kset((3, 3)), HardwareConfig(4, 4, 300, 4.0)
    schedule = solve(layer, ks_, hw, ScheduleMode.ILAR)
    assert any(map(int.__lt__, schedule.grid.tile, layer.ifmap))  # more than one origin
    path = tmp_path / "schedule.json"
    save_schedule(path, layer.name, "ilar", schedule)
    report = total_latency(schedule, layer, ks_, hw)
    refuse_round_plans(monkeypatch)
    name, mode, back = load_schedule(path)
    assert (name, mode, back) == (layer.name, "ilar", schedule)
    flipped = TileSchedule(1 - schedule.beta, grid=schedule.grid)
    assert flipped != schedule
    # and so do the reports priced from them
    assert total_latency(back, layer, ks_, hw) == report
    assert total_latency(flipped, layer, ks_, hw) != report


class TestCompareModes:
    @staticmethod
    def both_modes(layer, kernel_set, hw):
        """(schedule, report) per mode, CONV_R first."""
        schedules = (solve(layer, kernel_set, hw, mode) for mode in ScheduleMode)
        return [(s, total_latency(s, layer, kernel_set, hw)) for s in schedules]

    def test_modes_tie_with_a_buffer_holding_everything(self):
        layer = deconv_layer(out_ch=2, in_ch=1, ifmap=(6, 6))
        hw = HardwareConfig(4, 4, 10**7, 8.0)
        (_, convr), (_, ilar) = self.both_modes(layer, kset((3, 3)), hw)
        assert ilar.total_cycles == convr.total_cycles

    def test_ilar_loads_the_tile_less_often(self):
        # heavy weights and a light ifmap keep the tile streaming in both
        # modes; CONV_R reloads it for every sub-kernel's rounds while ILAR
        # shares it within mixed rounds
        layer = deconv_layer(kernel=(5, 5), out_ch=8, in_ch=1, ifmap=(6, 6))
        hw = HardwareConfig(2, 2, 200, 1.0, double_buffered=False)
        (convr_schedule, convr), (ilar_schedule, ilar) = self.both_modes(layer, kset((5, 5)), hw)
        assert ilar_schedule.beta == 1
        assert convr_schedule.beta == 1
        assert ilar.dram_ifmap < convr.dram_ifmap
        assert ilar.total_cycles <= convr.total_cycles


# DispNet upconv5..upconv1 and GC-Net's first two 3-D deconvolutions
DECODER_LAYERS = [
    LayerSpec(f"upconv{5 - i}", LayerKind.DECONV, (4, 4), cin, cout, ifmap, 2)
    for i, (cin, cout, ifmap) in enumerate(zip(
        [1024, 512, 256, 128, 64], [512, 256, 128, 64, 32],
        [(9, 15), (17, 30), (34, 60), (68, 120), (135, 240)]))
] + [
    LayerSpec(f"deconv3d_{i + 1}", LayerKind.DECONV, (3, 3, 3), cin, cout, ifmap, 2)
    for i, (cin, cout, ifmap) in enumerate([(128, 64, (6, 17, 30)), (64, 64, (12, 34, 60))])
]


def guard_case(rng, small):
    """A random layer, hardware and mode drawn across every modeled regime."""
    kind = rng.choice([LayerKind.CONV, LayerKind.DECONV])
    rank = rng.choice([2, 3])
    kernel = tuple(rng.randint(1, 3 if small or rank == 3 else 5) for _ in range(rank))
    top = (6 if small else 12) if rank == 2 else (4 if small else 6)
    layer = LayerSpec(
        "g",
        kind,
        kernel,
        rng.randint(1, 3),
        rng.randint(1, 2 if small else 5),
        tuple(rng.randint(max(k, 2), max(k, 2, top)) for k in kernel),
        2 if kind is LayerKind.DECONV else rng.choice([1, 2]),
    )
    hw = HardwareConfig(
        rng.randint(2, 6),
        rng.randint(2, 6),
        rng.randint(40, 2500),
        rng.choice([1.0, 2.0, 8.0, math.inf]),
        double_buffered=rng.random() < 0.5,
    )
    ilar = kind is LayerKind.DECONV and rng.random() < 0.5
    mode = ScheduleMode.ILAR if ilar else ScheduleMode.CONV_R
    ks_ = kset(kernel) if kind is LayerKind.DECONV else None
    return layer, ks_, hw, mode, rng.random() < 0.5


@pytest.mark.parametrize("search", ["solve", "exhaustive"])
def test_rounds_hold_python_ints_and_round_trip(tmp_path, search):
    # RoundPlan converts nothing, so a numpy integer here would change the
    # schedule file and every digest taken over the rounds
    rng = random.Random(search)
    bound = {"max_candidates": 3000} if search == "exhaustive" else {}
    checked = 0
    for _ in range(60):
        layer, ks_, hw, mode, iaware = guard_case(rng, small=True)
        try:
            sched = SEARCHES[search](
                layer, ks_, hw, mode, include_input_channels=iaware, **bound
            )
        except (InfeasibleScheduleError, SearchSpaceExceeded):
            continue
        values = [v for r in sched.rounds for v in (*r.origin, *r.tile, *r.filters)]
        assert {type(v) for v in values} == {int} and type(sched.beta) is int
        path = tmp_path / "schedule.json"
        save_schedule(path, layer.name, mode.value, sched)
        assert load_schedule(path) == (layer.name, mode.value, sched)
        checked += 1
    assert checked >= 30


class TestSearchCostMatchesReport:
    """The cycles solve and exhaustive minimize equal total_latency's total.

    Each search ends by building a grid schedule from its incumbent
    `best`, a tuple (cycles, tile, parts, beta); the spy reads it from the
    caller's frame.
    """

    @pytest.fixture
    def chosen(self, monkeypatch):
        seen = []
        build = scheduler.TileSchedule

        def spy(beta, *, grid):
            best = sys._getframe(1).f_locals["best"]
            assert (best[1], tuple(best[2]), best[3]) == (grid.tile, grid.parts, beta)
            seen.append(best[0])
            return build(beta, grid=grid)

        monkeypatch.setattr(scheduler, "TileSchedule", spy)
        monkeypatch.setattr(schedule_oracle, "TileSchedule", spy)
        return seen

    @pytest.mark.parametrize("search", ["solve", "exhaustive"])
    def test_random_instances(self, chosen, search):
        rng = random.Random(2024 if search == "solve" else 2025)
        regimes = set()
        checked = 0
        for _ in range(600 if search == "solve" else 300):
            layer, ks_, hw, mode, iaware = guard_case(rng, small=search == "exhaustive")
            try:
                if search == "solve":
                    sched = solve(layer, ks_, hw, mode, include_input_channels=iaware)
                else:
                    sched = exhaustive(
                        layer, ks_, hw, mode, max_candidates=3000,
                        include_input_channels=iaware,
                    )
            except (InfeasibleScheduleError, SearchSpaceExceeded):
                continue
            report = total_latency(sched, layer, ks_, hw, include_input_channels=iaware)
            assert chosen.pop() == report.total_cycles, (layer, hw, mode, iaware)
            regimes |= {
                ("kind", layer.kind), ("rank", layer.rank), ("mode", mode),
                ("iaware", iaware), ("double", hw.double_buffered),
                ("inf", math.isinf(hw.bandwidth)),
            }
            checked += 1
        assert checked >= 200
        assert regimes == {
            ("kind", LayerKind.CONV), ("kind", LayerKind.DECONV), ("rank", 2), ("rank", 3),
            ("mode", ScheduleMode.CONV_R), ("mode", ScheduleMode.ILAR),
            ("iaware", False), ("iaware", True), ("double", False), ("double", True),
            ("inf", False), ("inf", True),
        }


def _verdict(schedule, layer, hw, iaware, check=validate_schedule):
    try:
        check(schedule, layer, hw, include_input_channels=iaware)
    except InfeasibleScheduleError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("search", ["solve", "exhaustive"])
def test_grid_schedules_agree_with_their_explicit_rounds(tmp_path, search):
    """A grid schedule validates, prices and compares as its expanded rounds do.

    validate_rounds, which checks the expanded rounds one by one, is the
    reference: a corrupted grid and its explicit twin TileSchedule(beta,
    rounds) fail exactly when it does, the grid naming the (tile at origin
    0, part) that overflows, the group whose parts fall short, or its
    ifmap. A grid written to a schedule file reads back as an equal
    schedule with an equal report; its twin cannot be written.
    """
    rng = random.Random(f"grid-{search}")
    bound = {"max_candidates": 3000} if search == "exhaustive" else {}
    regimes = set()
    checked = 0
    for _ in range(200 if search == "solve" else 150):
        layer, ks_, hw, mode, iaware = guard_case(rng, small=search == "exhaustive")
        try:
            sched = SEARCHES[search](
                layer, ks_, hw, mode, include_input_channels=iaware, **bound
            )
        except (InfeasibleScheduleError, SearchSpaceExceeded):
            continue
        grid = sched.grid
        price = RoundPricer(layer, iaware)
        need = max(price(*pair).occupancy for pair in grid.round_counts())
        # one element short for the largest round: a part overflows the buffer
        tight = dataclasses.replace(hw, buffer_capacity=(need - 1) * (1 + hw.double_buffered))
        first = sched.rounds[0].tile
        over = next(p for p in grid.parts if price(first, p).occupancy == need)
        g = max(k for k, c in enumerate(grid.parts[-1]) if c)
        short = tuple(c - (k == g) for k, c in enumerate(grid.parts[-1]))
        cases = [
            (sched, hw, None),
            (sched, tight, f"grid, tile {first} with part {over}: buffer capacity"),
            # one filter of group g missing
            (TileSchedule(sched.beta, grid=grid._replace(parts=(*grid.parts[:-1], short))), hw,
             f"grid: filter coverage constraint violated for group {g} "),
            # a grid over a larger ifmap than the layer's
            (TileSchedule(sched.beta, grid=grid._replace(ifmap=(layer.ifmap[0] + 1,
                                                                 *layer.ifmap[1:]))), hw,
             f"grid: ifmap ({layer.ifmap[0] + 1}, "),
        ]
        for candidate, on, named in cases:
            twin = TileSchedule(candidate.beta, tuple(candidate.rounds))
            assert candidate == twin and twin.grid is None
            assert candidate.n_rounds == twin.n_rounds
            found = _verdict(candidate, layer, on, iaware)
            reference = _verdict(candidate, layer, on, iaware, validate_rounds)
            assert ((found is None) == (named is None) == (reference is None)
                    == (_verdict(twin, layer, on, iaware) is None)), (layer, on, mode, iaware)
            assert named is None or f"layer {layer.name} {named}" in found, found
        twin = TileSchedule(sched.beta, tuple(sched.rounds))
        report = total_latency(sched, layer, ks_, hw, include_input_channels=iaware)
        assert report == total_latency(twin, layer, ks_, hw, include_input_channels=iaware)
        assert len(report.rounds) == sched.n_rounds
        path = tmp_path / "grid.json"
        save_schedule(path, layer.name, mode.value, sched)
        name, mode_back, back = load_schedule(path)
        assert (name, mode_back, back) == (layer.name, mode.value, sched)
        assert back.grid == grid
        assert total_latency(back, layer, ks_, hw, include_input_channels=iaware) == report
        with pytest.raises(ValueError, match="not explicit rounds"):
            save_schedule(tmp_path / "twin.json", layer.name, mode.value, twin)
        regimes |= {("kind", layer.kind), ("rank", layer.rank), ("iaware", iaware)}
        checked += 1
    assert checked >= 60
    assert len(regimes) == 6


def random_grid(rng):
    """A random layer's grid schedule, its tile up to 2 past the ifmap and its parts
    of random sizes, on hardware whose buffer is within two elements of what the
    grid's largest round needs; with the layer, the hardware and the weight model."""
    layer, _, hw, _, iaware = guard_case(rng, small=True)
    n_groups = len(filter_group_dims(layer))
    tile = tuple(rng.randint(1, e + 2) for e in layer.ifmap)
    n_parts = rng.randint(1, 3)
    # each group's out_channels filters cut into n_parts counts at random
    cuts = [sorted(rng.randint(0, layer.out_channels) for _ in range(n_parts - 1))
            for _ in range(n_groups)]
    parts = tuple(zip(*([b - a for a, b in zip([0, *c], [*c, layer.out_channels])]
                        for c in cuts)))
    grid = TileSchedule(rng.randint(0, 1), grid=TileGrid(layer.ifmap, tile, parts))
    price = RoundPricer(layer, iaware)
    need = max(price(*pair).occupancy for pair in grid.round_counts())
    usable = max(1, need + rng.randint(-2, 1))
    hw = dataclasses.replace(hw, buffer_capacity=usable * (1 + hw.double_buffered))
    return grid, layer, hw, iaware


def test_random_grids_hold_exactly_when_their_rounds_do():
    """A grid is checked on the tile at origin 0 alone, so a grid whose tile reaches past
    the ifmap or whose parts differ in size must still pass exactly when validate_rounds
    passes its rounds, and so must its explicit twin."""
    rng = random.Random("random-grids")
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        grid, layer, hw, iaware = random_grid(rng)
        twin = TileSchedule(grid.beta, tuple(grid.rounds))
        holds = _verdict(grid, layer, hw, iaware) is None
        assert (holds == (_verdict(grid, layer, hw, iaware, validate_rounds) is None)
                == (_verdict(twin, layer, hw, iaware) is None)), (layer, hw, grid)
        verdicts[holds] += 1
    assert min(verdicts.values()) > 100


def perturbed(rounds, kind, rng):
    """`rounds` with one round dropped, duplicated, swapped with another, or with one
    coordinate of its origin, one extent of its tile or one filter count moved by 1."""
    rounds = list(rounds)
    i = rng.randrange(len(rounds))
    if kind == "drop":
        del rounds[i]
    elif kind == "duplicate":
        rounds.insert(i, rounds[i])
    elif kind == "swap":
        j = rng.choice([j for j in range(len(rounds)) if j != i] or [i])
        rounds[i], rounds[j] = rounds[j], rounds[i]
    else:
        values = getattr(rounds[i], kind)
        k, step = rng.randrange(len(values)), rng.choice((-1, 1))
        moved = tuple(v + step * (a == k) for a, v in enumerate(values))
        rounds[i] = rounds[i]._replace(**{kind: moved})
    return TileSchedule(1, rounds)


def test_validate_schedule_rejects_what_the_round_oracle_rejects():
    """On a grid's expansion validate_schedule and validate_rounds agree. With one round
    perturbed, whatever validate_rounds rejects validate_schedule rejects too, naming a
    round or the grid. It also rejects two rounds swapped past the first origin, whose
    rounds spell the grid, though validate_rounds takes rounds in any order."""
    rng = random.Random("perturbed-rounds")
    kinds = ("drop", "duplicate", "swap", "origin", "tile", "filters")
    verdicts = {True: 0, False: 0}
    rejected = dict.fromkeys(kinds, 0)
    reordered = 0
    for _ in range(400):
        grid, layer, hw, iaware = random_grid(rng)
        rounds, lead = grid.rounds, len(grid.grid.parts)
        holds = _verdict(TileSchedule(1, rounds), layer, hw, iaware) is None
        assert holds == (_verdict(grid, layer, hw, iaware, validate_rounds) is None), grid
        verdicts[holds] += 1
        for kind in kinds:
            schedule = perturbed(rounds, kind, rng)
            found = _verdict(schedule, layer, hw, iaware)
            if _verdict(schedule, layer, hw, iaware, validate_rounds) is not None:
                assert found is not None, (kind, schedule.rounds, layer, hw)
            if found is not None:
                assert re.match(r"layer g( round \d+| grid|: no rounds)", found), found
                rejected[kind] += holds  # a perturbation of a schedule that held
            if (kind == "swap" and schedule.rounds != rounds
                    and schedule.rounds[:lead] == rounds[:lead]):
                assert found is not None, (schedule.rounds, grid)
                reordered += 1
    assert min(verdicts.values()) > 100
    assert min(rejected.values()) > 0 and reordered > 50, (rejected, reordered)


def test_model_schedules_exactly_the_sub_convolutions_the_transform_runs(monkeypatch):
    """Every small deconvolution LayerSpec accepts (ifmap 1..5 per axis, every kernel
    up to 2n+1): its filter groups are the sub-kernels transformed_deconv convolves, and
    it solves in both modes. K = 2n+1 leaves the even-offset slices owning no output."""
    rng = np.random.default_rng(9)
    convolved = []
    real_conv_valid = deconv.conv_valid

    def recording_conv_valid(ifmap, kernel):
        convolved.append(kernel.shape)
        return real_conv_valid(ifmap, kernel)

    monkeypatch.setattr(deconv, "conv_valid", recording_conv_valid)
    hw = HardwareConfig(4, 4, 10**6, 8.0)
    axis = [(n, k) for n in range(1, 6) for k in range(1, 2 * n + 2)]
    solved = 0
    for (n0, k0), (n1, k1) in itertools.product(axis, repeat=2):
        in_ch, out_ch = (int(c) for c in rng.integers(1, 4, 2))
        layer = LayerSpec("s", LayerKind.DECONV, (k0, k1), in_ch, out_ch, (n0, n1), 2)
        ifmap = rng.uniform(-1, 1, layer.ifmap)
        kernel = rng.uniform(-1, 1, layer.kernel)
        convolved.clear()
        got = transformed_deconv(ifmap, kernel)
        assert abs(got - deconv_reference(ifmap, kernel)).max() <= 1e-4
        assert tuple(convolved) == filter_group_dims(layer), layer
        for mode in ScheduleMode:
            schedule = solve(layer, kset(layer.kernel), hw, mode)
            validate_schedule(schedule, layer, hw)
        solved += 1
    assert solved == 1225
