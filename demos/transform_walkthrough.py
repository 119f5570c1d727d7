"""Walk through the deconvolution-to-convolution transformation.

A stride-2 deconvolution zero-upsamples its input before convolving, so
most multiplies hit an inserted zero. Splitting the kernel by index
parity turns the layer into a handful of small dense convolutions over
the original input, and a gather interleaves their outputs.
"""

import numpy as np

from svopt import (
    deconv_reference,
    decompose_nd,
    redundant_mac_fraction,
    transformed_deconv,
    upsample_zero,
)
from svopt.deconv import transform_multiply_count

rng = np.random.default_rng(0)

kernel = np.arange(1, 10, dtype=np.float32).reshape(3, 3)
print("original 3x3 kernel:")
print(kernel, end="\n\n")

print("parity slices (phase, offset bits, extents):")
kernel_set = decompose_nd(kernel)
for sub in kernel_set.kernels:
    print(f"  phase {sub.phase_index}  delta={sub.delta}  dims={sub.dims}")
    print(f"{sub.array}\n" if not sub.is_empty else "  (empty)\n")

ifmap = rng.integers(-4, 5, (3, 3)).astype(np.float32)
print("what the naive path convolves (3x3 input zero-upsampled to 7x7):")
print(upsample_zero(ifmap), end="\n\n")

reference = deconv_reference(ifmap, kernel)
transformed = transformed_deconv(ifmap, kernel)
print("reference ofmap:")
print(reference, end="\n\n")
print("transformed ofmap (sub-convolutions + gather):")
print(transformed, end="\n\n")
assert np.array_equal(reference, transformed)

fraction = redundant_mac_fraction((3, 3), (3, 3))
total_macs = reference.size * kernel.size
multiplies = transform_multiply_count((3, 3), (3, 3))
print(f"naive MACs:            {total_macs}")
print(f"zero-operand fraction: {fraction:.3f}  ({round(fraction * total_macs)} wasted MACs)")
print(f"transformed multiplies: {multiplies}  (exactly the useful MACs)")
