import random
import re

import pytest

from svopt.deconv import decompose_nd
from svopt.perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LayerKind,
    LayerSpec,
    RoundPlan,
    TileSchedule,
    total_latency,
    validate_schedule,
)
from svopt.scheduler import (
    InfeasibleTileError,
    KnapsackItem,
    ScheduleMode,
    build_items,
    compare_modes,
    exhaustive,
    pack_round,
    solve,
)
from svopt.tensor import Tensor


def deconv_layer(name="d", kernel=(3, 3), in_ch=2, out_ch=4, ifmap=(8, 8)):
    return LayerSpec(name, LayerKind.DECONV, kernel, in_ch, out_ch, ifmap, 2)


def kset(kernel):
    return decompose_nd(Tensor.zeros(kernel))


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


class TestBuildItems:
    def test_deconv_item_count(self):
        layer = deconv_layer(out_ch=4)
        items = build_items(layer, kset((3, 3)), (4, 4))
        assert len(items) == 16  # 4 sub-kernels x 4 filters

    def test_conv_item_count(self):
        layer = LayerSpec("c", LayerKind.CONV, (3, 3), 2, 4, (8, 8), 1)
        assert len(build_items(layer, None, (4, 4))) == 4

    def test_larger_subkernel_larger_value(self):
        layer = deconv_layer()
        items = build_items(layer, kset((3, 3)), (4, 4))
        by_group = {it.group: it.value for it in items}
        assert by_group[0] > by_group[3]  # 2x2 slice vs 1x1 slice


class TestPackRound:
    def test_everything_fits_in_one_round(self):
        layer = deconv_layer(out_ch=2)
        items = build_items(layer, kset((3, 3)), (4, 4))
        selected = pack_round(items, 10**6)
        assert sorted((it.group, it.filter_index) for it in selected) == sorted(
            (it.group, it.filter_index) for it in items
        )

    def test_tie_breaks_toward_larger_subkernel(self):
        # one big filter or two small ones, equal total value and weight
        big = KnapsackItem(group=0, filter_index=0, weight=8, value=8)
        small = [KnapsackItem(group=3, filter_index=f, weight=4, value=4) for f in range(2)]
        selected = pack_round([big] + small, 8)
        assert selected == [big]

    def test_matches_bruteforce_subset_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            items = [
                KnapsackItem(g, f, rng.randint(1, 12), rng.randint(0, 20))
                for g in range(rng.randint(1, 4))
                for f in range(rng.randint(1, 4))
            ][:14]
            capacity = rng.randint(min(i.weight for i in items), 60)
            best = 0
            for mask in range(1 << len(items)):
                w = v = 0
                for i, it in enumerate(items):
                    if mask >> i & 1:
                        w += it.weight
                        v += it.value
                if w <= capacity and v > best:
                    best = v
            got = pack_round(items, capacity)
            assert sum(it.value for it in got) == best
            assert sum(it.weight for it in got) <= capacity

    def test_nothing_fits_raises(self):
        items = [KnapsackItem(0, 0, weight=50, value=1)]
        with pytest.raises(InfeasibleTileError):
            pack_round(items, 10)


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
        # re-derive the best candidate without pruning via module internals
        from svopt.scheduler import (
            _evaluate_parts,
            _pack_tile,
            _tile_candidates,
        )
        from svopt.perfmodel import _groups_for

        rng = random.Random(99)
        for _ in range(10):
            layer, ks, hw = random_instance(rng)
            groups = _groups_for(layer, ks)
            best = None
            try:
                candidates = _tile_candidates(layer, groups)
            except InfeasibleScheduleError:
                continue
            for tile in candidates:
                if hw.usable_buffer <= tile[0] * tile[1] * layer.in_channels:
                    continue
                try:
                    parts = _pack_tile(layer, ks, tile, hw, ScheduleMode.ILAR, False)
                except InfeasibleTileError:
                    continue
                for beta in (1, 0):
                    cycles = _evaluate_parts(layer, groups, tile, parts, beta, hw, False)
                    if best is None or cycles < best:
                        best = cycles
            if best is None:
                continue
            sched = solve(layer, ks, hw, ScheduleMode.ILAR)
            got = total_latency(sched, layer, ks, hw).total_cycles
            assert got == best


class TestExhaustive:
    def test_equals_greedy_on_one_round_instance(self):
        layer = deconv_layer(out_ch=1, in_ch=1, ifmap=(4, 4))
        hw = HardwareConfig(4, 4, 10**6, 8.0)
        ks33 = kset((3, 3))
        g = total_latency(solve(layer, ks33, hw, ScheduleMode.ILAR), layer, ks33, hw)
        e = total_latency(exhaustive(layer, ks33, hw, ScheduleMode.ILAR), layer, ks33, hw)
        assert g.total_cycles == e.total_cycles

    def test_greedy_never_beats_exhaustive_and_ilar_contains_convr(self):
        rng = random.Random(31)
        checked = 0
        while checked < 8:
            kernel = rng.choice([(2, 2), (3, 3)])
            layer = LayerSpec(
                "s", LayerKind.DECONV, kernel, rng.randint(1, 2), rng.randint(1, 4),
                (rng.randint(4, 8), rng.randint(4, 8)), 2,
            )
            ks_ = kset(kernel)
            hw = HardwareConfig(
                rng.randint(2, 5), rng.randint(2, 5), rng.randint(150, 600),
                float(rng.choice([2, 4, 8])),
            )
            try:
                greedy = total_latency(
                    solve(layer, ks_, hw, ScheduleMode.ILAR), layer, ks_, hw
                ).total_cycles
            except InfeasibleScheduleError:
                continue
            ex_ilar = total_latency(
                exhaustive(layer, ks_, hw, ScheduleMode.ILAR), layer, ks_, hw
            ).total_cycles
            ex_convr = total_latency(
                exhaustive(layer, ks_, hw, ScheduleMode.CONV_R), layer, ks_, hw
            ).total_cycles
            assert greedy >= ex_ilar
            assert ex_ilar <= ex_convr
            checked += 1

    def test_every_emitted_round_respects_the_buffer(self):
        layer = deconv_layer(out_ch=3, in_ch=2, ifmap=(6, 6))
        hw = HardwareConfig(3, 3, 300, 4.0)
        sched = exhaustive(layer, kset((3, 3)), hw, ScheduleMode.ILAR)
        validate_schedule(sched, layer, hw)  # checks per-round occupancy


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
        with pytest.raises(InfeasibleScheduleError, match=rf"element {re.escape(str(gone))}"):
            validate_schedule(TileSchedule(sched.beta, kept), self.layer, self.hw)

    def test_overlapping_origins_name_a_doubly_covered_element(self):
        sched = self.solved(ScheduleMode.ILAR)
        first = [r for r in sched.rounds if r.origin == (0, 0)]
        shifted = tuple(RoundPlan((0, 1), r.tile, r.filters) for r in first)
        with pytest.raises(InfeasibleScheduleError, match=r"element \(0, 1\) \(2 tiles"):
            validate_schedule(
                TileSchedule(sched.beta, sched.rounds + shifted), self.layer, self.hw
            )

    def test_tile_shape_must_agree_within_an_origin(self):
        sched = self.solved(ScheduleMode.CONV_R)
        r0, *rest = sched.rounds
        assert any(r.origin == r0.origin for r in rest)
        odd = RoundPlan(r0.origin, (1, 2), r0.filters)
        with pytest.raises(InfeasibleScheduleError, match="differs from tile"):
            validate_schedule(TileSchedule(sched.beta, (*rest, odd)), self.layer, self.hw)


class TestCompareModes:
    def test_modes_tie_with_a_buffer_holding_everything(self):
        layer = deconv_layer(out_ch=2, in_ch=1, ifmap=(6, 6))
        hw = HardwareConfig(4, 4, 10**7, 8.0)
        cmp_ = compare_modes(layer, kset((3, 3)), hw)
        assert cmp_.ilar_cycles == cmp_.convr_cycles

    def test_ilar_loads_the_tile_less_often(self):
        # heavy weights and a light ifmap keep the tile streaming in both
        # modes; CONV_R reloads it for every sub-kernel's rounds while ILAR
        # shares it within mixed rounds
        layer = deconv_layer(kernel=(5, 5), out_ch=8, in_ch=1, ifmap=(6, 6))
        hw = HardwareConfig(2, 2, 200, 1.0, double_buffered=False)
        cmp_ = compare_modes(layer, kset((5, 5)), hw)
        assert cmp_.ilar_schedule.beta == 1
        assert cmp_.convr_schedule.beta == 1
        assert cmp_.ilar_dram_ifmap < cmp_.convr_dram_ifmap
        assert cmp_.ilar_cycles <= cmp_.convr_cycles

    def test_report_totals_reconcile(self):
        layer = deconv_layer(out_ch=4, in_ch=2, ifmap=(8, 8))
        hw = HardwareConfig(4, 4, 1500, 4.0)
        ks_ = kset((3, 3))
        cmp_ = compare_modes(layer, ks_, hw)
        again = total_latency(cmp_.ilar_schedule, layer, ks_, hw)
        assert again == cmp_.ilar_report
