"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from svopt.cli import main
from svopt.deconv import (
    decompose_nd,
    deconv_output_dims,
    transform_multiply_count,
    transformed_deconv,
)
from svopt.formats import load_network, load_report, load_schedule
from svopt.ism import CameraRig, three_pixel_error, triangulate
from svopt.perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LayerKind,
    LayerSpec,
    RoundPricer,
    dense_equivalent,
    filter_group_dims,
    total_latency,
)
from svopt.scheduler import ScheduleMode, solve
from svopt.tensor import (
    deconv_reference,
    redundant_mac_fraction,
    upsample_zero,
)
from conftest import ism_maps, make_sequence
from schedule_oracle import exhaustive


def announce(number, text):
    print(f"\nACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_decomposition_shapes():
    kernel = np.arange(9, dtype=np.float32).reshape(3, 3)
    ks = decompose_nd(kernel)
    shapes = [sub.dims for sub in ks.kernels]
    assert shapes == [(2, 2), (1, 2), (2, 1), (1, 1)]
    t0 = time.perf_counter()
    repeats = 200
    for _ in range(repeats):
        decompose_nd(kernel)
    per_call = (time.perf_counter() - t0) / repeats
    assert per_call < 1e-3
    announce(1, f"3x3 kernel splits into {{2x2, 1x2, 2x1, 1x1}} in {per_call * 1e6:.0f} us/call")


def test_criterion_02_nd_generalization():
    kernel = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
    ks = decompose_nd(kernel)
    assert len(ks.kernels) == 8
    assert sum(sub.element_count for sub in ks.kernels) == 27
    for sub in ks.kernels:
        assert sub.delta == tuple((sub.phase_index >> j) & 1 for j in range(3))
        for idx in itertools.product(*(range(d) for d in sub.dims)):
            src = tuple(2 * i + d for i, d in zip(idx, sub.delta))
            assert sub.array[idx] == kernel[src]
    announce(2, "3x3x3 kernel yields 8 sub-kernels, 27 elements, bit mapping verified for all 8 phases")


def test_criterion_03_transformation_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    float_cases = int_cases = 0
    worst = 0.0
    while float_cases + int_cases < 1000:
        rank = int(rng.integers(2, 4))
        idims = tuple(int(rng.integers(1, 10)) for _ in range(rank))
        kdims = tuple(int(rng.integers(1, 10)) for _ in range(rank))
        if any(k > 2 * n + 1 for k, n in zip(kdims, idims)):
            continue
        if (float_cases + int_cases) % 5 == 0:
            ifmap = rng.integers(-9, 10, idims).astype(np.float32)
            kernel = rng.integers(-9, 10, kdims).astype(np.float32)
            got = transformed_deconv(ifmap, kernel)
            want = deconv_reference(ifmap, kernel)
            assert np.array_equal(got, want)
            int_cases += 1
        else:
            ifmap = rng.uniform(-1, 1, idims).astype(np.float32)
            kernel = rng.uniform(-1, 1, kdims).astype(np.float32)
            got = transformed_deconv(ifmap, kernel)
            want = deconv_reference(ifmap, kernel)
            diff = float(np.abs(got - want).max())
            worst = max(worst, diff)
            assert diff <= 1e-4
            float_cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(
        3,
        f"{float_cases} float + {int_cases} integer instances, max |diff| {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_redundancy_elimination():
    frac = redundant_mac_fraction((3, 3), (3, 3))
    assert frac == 176 / 225
    assert frac >= 0.75
    for n in (1, 2, 3, 5):
        up = upsample_zero(np.ones((n, n, n)))
        assert 1.0 - n**3 / up.size >= 7 / 8
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        rank = int(rng.integers(2, 4))
        idims = tuple(int(rng.integers(1, 7)) for _ in range(rank))
        kdims = tuple(int(rng.integers(1, 7)) for _ in range(rank))
        if any(k > 2 * n + 1 for k, n in zip(kdims, idims)):
            continue
        out_dims = deconv_output_dims(idims, kdims)
        total = math.prod(out_dims) * math.prod(kdims)
        zero_macs = round(redundant_mac_fraction(idims, kdims) * total)
        assert transform_multiply_count(idims, kdims) == total - zero_macs
        checked += 1
    announce(
        4,
        f"2d fraction 176/225 = {frac:.3f} >= 0.75; 3d zero fraction >= 7/8; "
        f"multiply count exact on {checked} cases",
    )


def test_criterion_05_compute_bound_speedup():
    layer = LayerSpec("up", LayerKind.DECONV, (3, 3), 16, 8, (48, 48), 2)
    kset = decompose_nd(np.zeros((3, 3)))
    hw = HardwareConfig(16, 16, 10**9, math.inf)
    dct = total_latency(
        solve(layer, kset, hw, ScheduleMode.ILAR), layer, kset, hw
    ).total_cycles
    dense = dense_equivalent(layer)
    naive = total_latency(
        solve(dense, None, hw, ScheduleMode.CONV_R), dense, None, hw
    ).total_cycles
    ratio = naive / dct
    assert 3.5 <= ratio <= 4.6
    announce(5, f"compute-bound dense/transformed latency ratio {ratio:.2f} in [3.5, 4.6]")


def test_criterion_06_constraint_soundness():
    rng = random.Random(606)
    solved = 0
    attempts = 0
    while solved < 200 and attempts < 2000:
        attempts += 1
        kernel = rng.choice([(2, 2), (3, 3), (3, 2), (5, 5), (1, 3)])
        kind = rng.choice([LayerKind.CONV, LayerKind.DECONV])
        stride = 2 if kind is LayerKind.DECONV else rng.choice([1, 2])
        ifmap = (rng.randint(max(kernel[0], 3), 14), rng.randint(max(kernel[1], 3), 14))
        layer = LayerSpec(
            "r", kind, kernel, rng.randint(1, 4), rng.randint(1, 8), ifmap, stride
        )
        kset = decompose_nd(np.zeros(kernel)) if kind is LayerKind.DECONV else None
        hw = HardwareConfig(
            rng.randint(2, 10), rng.randint(2, 10), rng.randint(80, 4000),
            float(rng.choice([1, 2, 4, 8, 16])), double_buffered=rng.random() < 0.5,
        )
        mode = ScheduleMode.ILAR if kind is LayerKind.DECONV and rng.random() < 0.5 \
            else ScheduleMode.CONV_R
        try:
            schedule = solve(layer, kset, hw, mode)
        except InfeasibleScheduleError:
            continue
        groups = filter_group_dims(layer)
        price = RoundPricer(layer)
        coverage = {}
        for round_ in schedule.rounds:
            deltas = price(round_.tile, round_.filters)
            occupancy = deltas.ifmap + sum(deltas.weights) + sum(deltas.ofmap)
            assert occupancy <= hw.usable_buffer  # per-round buffer constraint
            tally = coverage.setdefault(round_.origin, [0] * len(groups))
            for k, c in enumerate(round_.filters):
                tally[k] += c
        for tally in coverage.values():
            assert tally == [layer.out_channels] * len(groups)  # coverage constraint
        solved += 1
    assert solved >= 200
    announce(6, f"{solved} randomized schedules satisfy buffer and coverage constraints")


def test_criterion_07_scheduler_oracle_gap():
    rng = random.Random(77)
    gaps = []
    checked = 0
    while checked < 10:
        kernel = rng.choice([(2, 2), (3, 3)])
        layer = LayerSpec(
            "s", LayerKind.DECONV, kernel, rng.randint(1, 2), rng.randint(1, 4),
            (rng.randint(4, 8), rng.randint(4, 8)), 2,
        )
        kset = decompose_nd(np.zeros(kernel))
        hw = HardwareConfig(
            rng.randint(2, 5), rng.randint(2, 5), rng.randint(150, 700),
            float(rng.choice([2, 4, 8])),
        )
        try:
            greedy = total_latency(
                solve(layer, kset, hw, ScheduleMode.ILAR), layer, kset, hw
            ).total_cycles
        except InfeasibleScheduleError:
            continue
        ex_ilar = total_latency(
            exhaustive(layer, kset, hw, ScheduleMode.ILAR), layer, kset, hw
        ).total_cycles
        ex_convr = total_latency(
            exhaustive(layer, kset, hw, ScheduleMode.CONV_R), layer, kset, hw
        ).total_cycles
        assert greedy >= ex_ilar
        assert ex_ilar <= ex_convr
        gaps.append(greedy / ex_ilar)
        print(
            f"  instance {checked}: greedy {greedy}, exhaustive {ex_ilar} "
            f"(gap {greedy / ex_ilar:.3f}), exhaustive convr {ex_convr}"
        )
        checked += 1
    announce(
        7,
        f"greedy >= exhaustive and min-ilar <= min-convr on {checked} instances; "
        f"worst gap {max(gaps):.3f}",
    )


def test_criterion_08_solver_speed():
    layer = LayerSpec("up5", LayerKind.DECONV, (5, 5), 128, 64, (96, 54), 2)
    kset = decompose_nd(np.zeros((5, 5)))
    hw = HardwareConfig(24, 24, 786432, 16.0)
    t0 = time.perf_counter()
    schedule = solve(layer, kset, hw, ScheduleMode.ILAR)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report = total_latency(schedule, layer, kset, hw)
    announce(
        8,
        f"96x54/I=128/C=64/5x5 layer solved in {elapsed * 1e3:.0f} ms "
        f"({schedule.n_rounds} rounds, {report.total_cycles} cycles)",
    )


def test_criterion_09_ism_fidelity(panorama):
    # moving scene: per-frame uniform motion (1, 2) px, disparity 4
    frames, gt = make_sequence(panorama, 6, 96, 128, disparity=4, motion=(1, 2))
    key = {t: gt for t in range(0, 6, 2)}
    maps = ism_maps(frames, key)
    key_score = three_pixel_error(gt, gt)
    worst = min(three_pixel_error(m, gt) for m in maps)
    assert key_score - worst <= 2.0
    # zero motion: scores match the key-frame-only score exactly
    static_frames, gt0 = make_sequence(panorama, 4, 96, 128, disparity=4)
    static_maps = ism_maps(static_frames, {0: gt0, 2: gt0})
    for m in static_maps:
        assert three_pixel_error(m, gt0) == three_pixel_error(gt0, gt0)
        assert np.array_equal(m.d[gt0.valid_mask()], gt0.d[gt0.valid_mask()])
    announce(
        9,
        f"moving-scene score within {key_score - worst:.2f} points of key-only "
        f"(threshold 2.0); zero-motion case matches exactly",
    )


def test_criterion_10_triangulation():
    rig = CameraRig(baseline_m=0.120, focal_length_m=0.0025, pixel_pitch_m=7.4e-6)
    got = triangulate(10.0, rig)
    want = (0.120 * 0.0025) / (10.0 * 7.4e-6)
    assert abs(got - want) / want <= 1e-9
    announce(10, f"depth at 10 px disparity = {got:.9f} m, within 1e-9 relative of hand value")


def test_criterion_11_determinism_and_roundtrip(tmp_path):
    import json

    net = {
        "format_version": 1,
        "layers": [
            {"name": "conv1", "kind": "conv", "kernel": [3, 3], "in_channels": 4,
             "out_channels": 8, "ifmap": [24, 24], "stride": 1},
            {"name": "up1", "kind": "deconv", "kernel": [5, 5], "in_channels": 8,
             "out_channels": 4, "ifmap": [12, 12], "stride": 2},
        ],
    }
    hw = {"format_version": 1, "pe_array": [8, 8], "buffer_capacity": 8192, "bandwidth": 8}
    net_path = tmp_path / "net.json"
    hw_path = tmp_path / "hw.json"
    net_path.write_text(json.dumps(net))
    hw_path.write_text(json.dumps(hw))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        for mode in ("baseline", "ilar"):
            assert main(["schedule", "--network", str(net_path), "--hardware", str(hw_path),
                         "--mode", mode, "--out-dir", str(out)]) == 0
            assert main(["model", "--network", str(net_path), "--hardware", str(hw_path),
                         "--mode", mode, "--out-dir", str(out)]) == 0
    compared = 0
    for file_a in sorted(out_a.iterdir()):
        file_b = out_b / file_a.name
        assert file_a.read_bytes() == file_b.read_bytes()
        compared += 1
    layers = load_network(net_path)
    assert [l.name for l in layers] == ["conv1", "up1"]
    for mode in ("baseline", "ilar"):
        for layer in layers:
            name, mode_back, schedule = load_schedule(
                out_a / f"schedule_{layer.name}_{mode}.json"
            )
            assert name == layer.name and mode_back == mode
            assert schedule.n_rounds >= 1
        header, rows = load_report(out_a / f"report_{mode}.csv")
        assert rows and header[0] == "layer"
    announce(11, f"{compared} emitted files byte-identical across reruns and re-ingested losslessly")
