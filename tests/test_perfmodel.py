import math

import numpy as np
import pytest

from svopt.deconv import decompose_nd, deconv_output_dims
from svopt.perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LayerKind,
    LayerSpec,
    RoundPlan,
    RoundPricer,
    TileSchedule,
    dense_equivalent,
    filter_group_dims,
    output_dims,
    total_latency,
    validate_schedule,
)
from svopt.tensor import (
    ShapeError,
    conv_valid,
    deconv_reference,
    redundant_mac_fraction,
    upsample_zero,
    upsampled_dims,
)
from schedule_oracle import validate_rounds


def deconv_layer(kernel=(3, 3), in_ch=3, out_ch=4, ifmap=(8, 8)):
    return LayerSpec("d", LayerKind.DECONV, kernel, in_ch, out_ch, ifmap, 2)


def kernel_set_for(layer):
    return decompose_nd(np.zeros(layer.kernel))


def terms(round_, layer, include_input_channels=False):
    return RoundPricer(layer, include_input_channels)(round_.tile, round_.filters)


class TestHardwareConfig:
    def test_pe_count_and_usable_buffer(self):
        hw = HardwareConfig(24, 24, 1000, 16.0)
        assert hw.pe_count == 576
        assert hw.usable_buffer == 500  # double buffering halves it
        assert HardwareConfig(2, 2, 1000, 16.0, double_buffered=False).usable_buffer == 1000

    def test_positivity(self):
        with pytest.raises(ValueError):
            HardwareConfig(0, 4, 100, 1.0)
        with pytest.raises(ValueError):
            HardwareConfig(4, 4, 100, 0.0)


class TestLayerSpec:
    def test_deconv_requires_stride_two(self):
        with pytest.raises(ValueError):
            LayerSpec("x", LayerKind.DECONV, (3, 3), 1, 1, (4, 4), 3)

    def test_filter_groups(self):
        conv = LayerSpec("c", LayerKind.CONV, (5, 5), 2, 2, (8, 8), 1)
        assert filter_group_dims(conv) == ((5, 5),)
        assert filter_group_dims(deconv_layer((5, 5))) == (
            (3, 3),
            (2, 3),
            (3, 2),
            (2, 2),
        )
        # a 1-wide kernel axis leaves only the even-offset groups
        assert filter_group_dims(deconv_layer((1, 3))) == ((1, 2), (1, 1))
        # K = 2n+1 leaves one ofmap row, at parity 0: the even-row slices (phases 0
        # and 2, extent 4 > n) own no output and are not scheduled
        assert filter_group_dims(deconv_layer((7, 3), ifmap=(3, 3))) == ((3, 2), (3, 1))


class TestComputeTime:
    def test_single_group_exactly_one_pe_pass(self):
        # 2*2 kernel elements * I=1 * C=1 * 4*4 tile = 64 MACs on 64 PEs
        layer = deconv_layer((4, 4), in_ch=1, out_ch=1)
        hw = HardwareConfig(8, 8, 10**6, 1.0)
        round_ = RoundPlan((0, 0), (4, 4), (1, 0, 0, 0))
        assert terms(round_, layer).compute_cycles(hw) == 1

    def test_no_filters_no_cycles(self):
        layer = deconv_layer((4, 4), in_ch=1, out_ch=1)
        hw = HardwareConfig(8, 8, 10**6, 1.0)
        round_ = RoundPlan((0, 0), (4, 4), (0, 0, 0, 0))
        assert terms(round_, layer).compute_cycles(hw) == 0

    def test_ceiling_applies_per_subkernel(self):
        # two groups, each 1.5x the PE array: 2 + 2 cycles, not ceil(3) = 3
        layer = LayerSpec("d", LayerKind.DECONV, (4, 4), 1, 1, (6, 6), 2)
        hw = HardwareConfig(8, 8, 10**6, 1.0)
        round_ = RoundPlan((0, 0), (6, 4), (1, 1, 0, 0))
        # each group is 2x2 -> 4 * 1 * 1 * 24 = 96 MACs = 1.5 * 64
        assert terms(round_, layer).compute_cycles(hw) == 4

    def test_deconv_requires_kernel_set(self):
        layer = deconv_layer()
        hw = HardwareConfig(8, 8, 10**6, 1.0)
        with pytest.raises(ValueError, match="SubKernelSet"):
            total_latency(full_cover_schedule(layer), layer, None, hw)
        other = decompose_nd(np.zeros((5, 5)))
        with pytest.raises(ValueError, match=r"kernel \(5, 5\) do not match kernel \(3, 3\)"):
            total_latency(full_cover_schedule(layer), layer, other, hw)


class TestDramDeltas:
    def test_ifmap_traffic(self):
        layer = deconv_layer((3, 3), in_ch=3)
        deltas = terms(RoundPlan((0, 0), (8, 8), (0, 0, 0, 0)), layer)
        assert deltas.ifmap == 192

    def test_zero_filters_zero_traffic(self):
        layer = deconv_layer((3, 3))
        deltas = terms(RoundPlan((0, 0), (4, 4), (0, 0, 0, 0)), layer)
        assert deltas.weights == (0, 0, 0, 0)
        assert deltas.ofmap == (0, 0, 0, 0)

    def test_ofmap_scaled_by_stride_square(self):
        layer = deconv_layer((3, 3))
        deltas = terms(RoundPlan((0, 0), (4, 4), (2, 0, 0, 0)), layer)
        assert deltas.ofmap[0] == 8  # 4*4*2 / 2^2

    def test_weights_follow_group_extents(self):
        layer = deconv_layer((3, 3))
        deltas = terms(RoundPlan((0, 0), (4, 4), (2, 1, 0, 0)), layer)
        assert deltas.weights == (8, 2, 0, 0)  # 2x2*2 filters, 1x2*1 filter
        with_i = terms(
            RoundPlan((0, 0), (4, 4), (2, 1, 0, 0)), layer, include_input_channels=True
        )
        assert with_i.weights == (24, 6, 0, 0)


class TestMemoryTime:
    def test_resident_weights_hand_case(self):
        # tile 8x8, I=3 -> ifmap 192; one group with C=2 -> ofmap 32; B=16
        layer = deconv_layer((3, 3), in_ch=3)
        hw = HardwareConfig(4, 4, 10**6, 16.0)
        round_ = RoundPlan((0, 0), (8, 8), (2, 0, 0, 0))
        assert terms(round_, layer).memory_cycles(1, hw) == 14  # ceil(224/16)

    def test_zero_traffic_zero_cycles(self):
        layer = deconv_layer((3, 3), in_ch=1)
        hw = HardwareConfig(4, 4, 10**6, 16.0)
        round_ = RoundPlan((0, 0), (4, 4), (0, 0, 0, 0))
        assert terms(round_, layer).memory_cycles(0, hw) == 0

    def test_beta_difference_is_if_minus_weights(self):
        layer = deconv_layer((3, 3), in_ch=2)
        hw = HardwareConfig(4, 4, 10**6, 1.0)  # unit bandwidth: cycles == elements
        round_ = RoundPlan((0, 0), (6, 6), (3, 1, 2, 1))
        deltas = terms(round_, layer)
        diff = deltas.memory_cycles(1, hw) - deltas.memory_cycles(0, hw)
        assert diff == deltas.ifmap - sum(deltas.weights)

    def test_infinite_bandwidth(self):
        layer = deconv_layer((3, 3), in_ch=2)
        hw = HardwareConfig(4, 4, 10**6, math.inf)
        round_ = RoundPlan((0, 0), (6, 6), (3, 1, 2, 1))
        assert terms(round_, layer).memory_cycles(1, hw) == 0


class TestCheckBuffer:
    def test_empty_round_fits_any_buffer(self):
        layer = deconv_layer((3, 3), in_ch=1)
        round_ = RoundPlan((0, 0), (1, 1), (0, 0, 0, 0))
        hw = HardwareConfig(2, 2, 2, 1.0, double_buffered=False)
        assert terms(round_, layer).occupancy <= hw.usable_buffer

    def test_exact_boundary(self):
        # occupancy: ifmap 192 + weights 20 + ofmap 80 = 292 elements
        layer = LayerSpec("d", LayerKind.DECONV, (4, 4), 3, 5, (8, 8), 2)
        round_ = RoundPlan((0, 0), (8, 8), (5, 0, 0, 0))
        fits = HardwareConfig(2, 2, 292, 1.0, double_buffered=False)
        tight = HardwareConfig(2, 2, 291, 1.0, double_buffered=False)
        assert terms(round_, layer).occupancy <= fits.usable_buffer
        assert terms(round_, layer).occupancy > tight.usable_buffer

    def test_validate_rejects_oversized_round(self):
        layer = LayerSpec("d", LayerKind.DECONV, (4, 4), 3, 5, (8, 8), 2)
        sched = TileSchedule(1, (RoundPlan((0, 0), (8, 8), (5, 0, 0, 0)),))
        hw = HardwareConfig(2, 2, 291, 1.0, double_buffered=False)
        with pytest.raises(InfeasibleScheduleError, match="buffer capacity"):
            validate_schedule(sched, layer, hw)


def full_cover_schedule(layer, beta=1):
    """One round per filter group covering the whole ifmap in one tile."""
    groups = filter_group_dims(layer)
    rounds = []
    for g in range(len(groups)):
        counts = [0] * len(groups)
        counts[g] = layer.out_channels
        rounds.append(RoundPlan((0,) * layer.rank, layer.ifmap, tuple(counts)))
    return TileSchedule(beta, tuple(rounds))


class TestTotalLatency:
    def test_round_latency_is_max_of_compute_and_memory(self):
        layer = LayerSpec("c", LayerKind.CONV, (3, 3), 2, 2, (6, 6), 1)
        hw = HardwareConfig(8, 16, 10**6, 16.0)
        sched = TileSchedule(1, (RoundPlan((0, 0), (6, 6), (2,)),))
        report = total_latency(sched, layer, None, hw)
        l_c = report.rounds[0].compute_cycles
        l_m = report.rounds[0].memory_cycles
        assert l_c == math.ceil(9 * 2 * 2 * 36 / 128)
        assert l_m == math.ceil((6 * 6 * 2 + math.ceil(36 * 2 / 1)) / 16.0)
        assert report.total_cycles == max(l_c, l_m)

    def test_two_identical_tiles_double_latency(self):
        layer = LayerSpec("c", LayerKind.CONV, (3, 3), 2, 2, (12, 6), 1)
        hw = HardwareConfig(8, 16, 10**6, 16.0)
        rounds = (
            RoundPlan((0, 0), (6, 6), (2,)),
            RoundPlan((6, 0), (6, 6), (2,)),
        )
        report = total_latency(TileSchedule(1, rounds), layer, None, hw)
        assert report.total_cycles == 2 * report.rounds[0].cycles

    def test_hand_spreadsheet_evaluation(self):
        # independent straight-line arithmetic for a two-round deconv schedule
        layer = LayerSpec("d", LayerKind.DECONV, (5, 5), 16, 8, (12, 10), 2)
        kset = decompose_nd(np.zeros((5, 5)))
        hw = HardwareConfig(12, 12, 10**6, 8.0)
        rounds = (
            RoundPlan((0, 0), (12, 10), (8, 8, 8, 0)),
            RoundPlan((0, 0), (12, 10), (0, 0, 0, 8)),
        )
        sched = TileSchedule(1, rounds)
        report = total_latency(sched, layer, kset, hw)

        tile = 12 * 10
        a = 144
        # round 1: groups (3,3)=9, (2,3)=6, (3,2)=6 elements, 8 filters each
        lc1 = (
            math.ceil(9 * 16 * 8 * tile / a)
            + math.ceil(6 * 16 * 8 * tile / a)
            + math.ceil(6 * 16 * 8 * tile / a)
        )
        of1 = 3 * math.ceil(tile * 8 / 4)
        lm1 = math.ceil((tile * 16 + of1) / 8.0)
        # round 2: group (2,2)=4 elements, 8 filters
        lc2 = math.ceil(4 * 16 * 8 * tile / a)
        of2 = math.ceil(tile * 8 / 4)
        lm2 = math.ceil((tile * 16 + of2) / 8.0)
        assert report.total_cycles == max(lc1, lm1) + max(lc2, lm2)
        assert report.macs == (9 + 6 + 6 + 4) * 16 * 8 * tile
        assert report.dram_ofmap == of1 + of2
        assert report.dram_ifmap == 2 * tile * 16

    def test_monotone_in_pe_and_bandwidth(self):
        layer = deconv_layer((3, 3), in_ch=4, out_ch=6, ifmap=(8, 8))
        kset = kernel_set_for(layer)
        sched = full_cover_schedule(layer)
        base = None
        for pe in (2, 4, 8):
            for bw in (1.0, 4.0, 16.0):
                hw = HardwareConfig(pe, pe, 10**7, bw)
                cycles = total_latency(sched, layer, kset, hw).total_cycles
                if base is not None and pe >= base[0] and bw >= base[1]:
                    assert cycles <= base[2]
                base = (pe, bw, cycles)

    def test_compute_bound_limit(self):
        layer = deconv_layer((3, 3), in_ch=4, out_ch=6, ifmap=(8, 8))
        kset = kernel_set_for(layer)
        sched = full_cover_schedule(layer)
        hw = HardwareConfig(4, 4, 10**7, math.inf)
        report = total_latency(sched, layer, kset, hw)
        assert report.total_cycles == report.compute_cycles

    def test_traffic_conservation_conv(self):
        # stored ofmap equals the layer's ofmap element count for convolutions
        layer = LayerSpec("c", LayerKind.CONV, (3, 3), 2, 4, (10, 10), 1)
        hw = HardwareConfig(4, 4, 10**7, 4.0)
        sched = full_cover_schedule(layer)
        report = total_latency(sched, layer, None, hw)
        assert report.dram_ofmap == 10 * 10 * 4  # one ceil-free round

    def test_utilization_in_unit_interval(self):
        layer = deconv_layer((3, 3), in_ch=4, out_ch=6, ifmap=(8, 8))
        kset = kernel_set_for(layer)
        for bw in (1.0, 16.0, math.inf):
            hw = HardwareConfig(4, 4, 10**7, bw)
            report = total_latency(full_cover_schedule(layer), layer, kset, hw)
            assert 0.0 < report.utilization <= 1.0

    def test_coverage_violation_rejected(self):
        layer = deconv_layer((3, 3), out_ch=4)
        kset = kernel_set_for(layer)
        hw = HardwareConfig(4, 4, 10**7, 4.0)
        short = TileSchedule(1, (RoundPlan((0, 0), (8, 8), (3, 4, 4, 4)),))
        with pytest.raises(InfeasibleScheduleError, match="coverage"):
            total_latency(short, layer, kset, hw)

    def test_tile_outside_ifmap_rejected(self):
        layer = deconv_layer((3, 3), out_ch=1)
        kset = kernel_set_for(layer)
        hw = HardwareConfig(4, 4, 10**7, 4.0)
        bad = TileSchedule(1, (RoundPlan((4, 4), (8, 8), (1, 1, 1, 1)),))
        with pytest.raises(InfeasibleScheduleError, match="exceeds ifmap"):
            validate_rounds(bad, layer, hw)
        # the grid its round 0 spells starts at origin (0, 0)
        named = (r"^layer d round 0: RoundPlan\(origin=\(4, 4\).* "
                 r"where the grid runs RoundPlan\(origin=\(0, 0\)")
        with pytest.raises(InfeasibleScheduleError, match=named):
            validate_schedule(bad, layer, hw)
        with pytest.raises(InfeasibleScheduleError, match=named):
            total_latency(bad, layer, kset, hw)


    def test_short_round_list_is_rejected_at_its_first_departure(self, monkeypatch):
        # one 1x1x1 round over GC-Net's 24x68x120 deconvolution, whose grid runs
        # 195,840 origins: the grid's rounds are spelled only up to the missing one
        layer = LayerSpec("gc3", LayerKind.DECONV, (3, 3, 3), 64, 32, (24, 68, 120), 2)
        parts = (32,) * len(filter_group_dims(layer))
        one = TileSchedule(1, (RoundPlan((0, 0, 0), (1, 1, 1), parts),))
        built = []
        new = RoundPlan.__new__

        def counting(cls, *args):
            built.append(args)
            return new(cls, *args)

        monkeypatch.setattr(RoundPlan, "__new__", counting)
        named = (r"^layer gc3 round 1: missing, where the grid runs "
                 r"RoundPlan\(origin=\(0, 0, 1\), tile=\(1, 1, 1\)")
        with pytest.raises(InfeasibleScheduleError, match=named):
            validate_schedule(one, layer, HardwareConfig(24, 24, 786432, 16.0))
        assert len(built) == 2  # the grid's rounds 0 and 1


class TestDenseEquivalent:
    def test_upsampled_extents(self):
        layer = deconv_layer((5, 5), ifmap=(16, 12))
        dense = dense_equivalent(layer)
        assert dense.kind is LayerKind.CONV
        assert dense.ifmap == (33, 25)
        assert dense.stride == 1

    def test_output_dims_match_reference_convention(self):
        layer = deconv_layer((3, 3), ifmap=(3, 3))
        assert output_dims(layer) == (5, 5)
        dense = dense_equivalent(layer)
        assert output_dims(dense) == (5, 5)


def dims_or_none(op, *args):
    """op(*args), or None where it raises ShapeError."""
    try:
        return op(*args)
    except ShapeError:
        return None


def test_geometry_agrees_across_modules():
    """The extents functions, the reference operators and the layer model agree.

    Seeded draws of ranks 1-3 for the operators and rank-2/3 conv (stride 1-2)
    and deconv layers, with kernels both fitting and too large; a LayerSpec
    is rejected exactly when its reference operator raises.
    """
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(200):
        rank = int(rng.integers(1, 4))
        idims = tuple(int(n) for n in rng.integers(1, 5, rank))
        kdims = tuple(int(k) for k in rng.integers(1, 11, rank))
        ifmap, kernel = np.zeros(idims), np.zeros(kdims)
        assert upsample_zero(ifmap).shape == upsampled_dims(idims)
        want = dims_or_none(lambda: deconv_reference(ifmap, kernel).shape)
        assert dims_or_none(deconv_output_dims, idims, kdims) == want
        fraction = dims_or_none(redundant_mac_fraction, idims, kdims)
        assert (fraction is None) == (want is None)
        seen.add(("reference fits", want is not None))

        rank = int(rng.integers(2, 4))
        idims = tuple(int(n) for n in rng.integers(1, 7, rank))
        kdims = tuple(int(k) for k in rng.integers(1, 9, rank))
        ifmap, kernel = np.zeros(idims), np.zeros(kdims)
        kind = LayerKind.DECONV if rng.integers(2) else LayerKind.CONV
        if kind is LayerKind.DECONV:
            stride = 2
            want = dims_or_none(lambda: deconv_reference(ifmap, kernel).shape)
        else:
            stride = int(rng.integers(1, 3))
            strided = (slice(None, None, stride),) * rank
            want = dims_or_none(lambda: conv_valid(ifmap, kernel)[strided].shape)
        seen.add((kind, want is not None))
        if want is None:
            with pytest.raises(ValueError, match="does not fit"):
                LayerSpec("g", kind, kdims, 1, 1, idims, stride)
            continue
        layer = LayerSpec("g", kind, kdims, 1, 1, idims, stride)
        assert output_dims(layer) == want
        if kind is LayerKind.DECONV:
            dense = dense_equivalent(layer)
            assert dense.ifmap == upsample_zero(ifmap).shape
            assert output_dims(dense) == want
    assert seen == {(what, fits) for what in ("reference fits", *LayerKind)
                    for fits in (True, False)}
