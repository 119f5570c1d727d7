"""Compare modeled latency of schedule variants on one deconvolution layer.

Three ways to run the same layer on the modeled accelerator:
  baseline  dense convolution over the zero-upsampled input
  convr     transformed, each sub-kernel's filters packed separately
  ilar      transformed, rounds mix sub-kernels so they share the ifmap tile
Cycle counts come from a round-based model: each round the buffer holds
one ifmap tile plus some filters, and latency is the max of compute time
and DRAM time for that round.
"""

import math

import numpy as np

from svopt import (
    HardwareConfig,
    LayerKind,
    LayerSpec,
    ScheduleMode,
    dense_equivalent,
    solve,
    total_latency,
)
from svopt.deconv import decompose_nd

layer = LayerSpec(
    name="up2",
    kind=LayerKind.DECONV,
    kernel=(5, 5),
    in_channels=64,
    out_channels=32,
    ifmap=(48, 27),
    stride=2,
)
kernel_set = decompose_nd(np.zeros(layer.kernel))
hw = HardwareConfig(pe_rows=16, pe_cols=16, buffer_capacity=131072, bandwidth=8.0)

print(f"layer: {layer.ifmap} ifmap, {layer.kernel} kernel, "
      f"{layer.in_channels}->{layer.out_channels} channels, stride {layer.stride}")
print(f"hardware: {hw.pe_count} MACs/cycle, {hw.buffer_capacity} buffer elements "
      f"(double-buffered), {hw.bandwidth} elements/cycle\n")

dense = dense_equivalent(layer)
baseline = total_latency(solve(dense, None, hw, ScheduleMode.CONV_R), dense, None, hw)

rows = [("baseline", baseline)]
for name, mode in (("convr", ScheduleMode.CONV_R), ("ilar", ScheduleMode.ILAR)):
    rows.append((name, total_latency(solve(layer, kernel_set, hw, mode), layer, kernel_set, hw)))

print(f"{'variant':<10} {'cycles':>10} {'speedup':>8} {'util':>6} "
      f"{'dram_if':>9} {'dram_w':>8} {'dram_of':>8}")
for name, report in rows:
    print(
        f"{name:<10} {report.total_cycles:>10} "
        f"{baseline.total_cycles / report.total_cycles:>8.2f} "
        f"{report.utilization:>6.2f} {report.dram_ifmap:>9} "
        f"{report.dram_weights:>8} {report.dram_ofmap:>8}"
    )

print("\ncompute-bound limit (infinite DRAM bandwidth):")
hw_inf = HardwareConfig(16, 16, 10**9, math.inf)
ilar_inf = total_latency(
    solve(layer, kernel_set, hw_inf, ScheduleMode.ILAR), layer, kernel_set, hw_inf
)
base_inf = total_latency(
    solve(dense, None, hw_inf, ScheduleMode.CONV_R), dense, None, hw_inf
)
print(f"  dense {base_inf.total_cycles} cycles vs transformed {ilar_inf.total_cycles} "
      f"cycles -> {base_inf.total_cycles / ilar_inf.total_cycles:.2f}x from skipping zeros")
