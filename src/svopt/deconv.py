"""Rewriting a stride-2 deconvolution as a set of dense convolutions.

A rank-N kernel splits into 2^N sub-kernels, one per combination of
per-dimension index parities: sub-kernel k holds the original elements
at positions (2*i + delta) where delta_j = (k >> j) & 1 and j = 0 is the
outermost dimension. Convolving the original (never upsampled) ifmap
with each sub-kernel produces exactly the ofmap elements of one parity
class, and a gather interleaves those classes back into the full ofmap.
Every multiply performed by the transformed path corresponds to a
nonzero-operand MAC of the naive upsampled convolution, whose ifmap is
bordered (2n + 1 per axis, originals at odd indices: svopt.tensor's one
convention), so sub-kernel delta owns ofmap parity 1 - delta and
convolves the whole ifmap. `phases` decides which sub-kernels own ofmap
positions; the gather, the transformed path, multiply counting and the
model's filter groups all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, ShapeError, as_array, conv_valid, upsampled_dims, valid_dims

__all__ = [
    "SubKernel",
    "SubKernelSet",
    "decompose_nd",
    "deconv_output_dims",
    "gather",
    "parity_classes",
    "phases",
    "transform_multiply_count",
    "transformed_deconv",
]

MAX_RANK = 4


@dataclass(frozen=True, eq=False)
class SubKernel:
    """One parity slice of a decomposed kernel.

    Element (i0, ..., i_{N-1}) of the slice equals original-kernel element
    (2*i0 + delta_0, ..., 2*i_{N-1} + delta_{N-1}). The extents follow
    ceil((K_j - delta_j) / 2); a slice with a zero extent carries no
    array and never contributes a sub-convolution. Compared by identity,
    as a field-wise __eq__ over an ndarray raises.
    """

    phase_index: int
    delta: tuple[int, ...]
    dims: tuple[int, ...]
    array: np.ndarray | None

    @property
    def is_empty(self) -> bool:
        return self.array is None

    @property
    def element_count(self) -> int:
        return 0 if self.is_empty else math.prod(self.dims)


@dataclass(frozen=True)
class SubKernelSet:
    """All 2^N parity slices of one kernel, ordered by phase index."""

    source_dims: tuple[int, ...]
    kernels: tuple[SubKernel, ...]

    def __post_init__(self) -> None:
        expected = 2 ** len(self.source_dims)
        if len(self.kernels) != expected:
            raise ShapeError(
                f"rank-{len(self.source_dims)} kernel needs {expected} sub-kernels, "
                f"got {len(self.kernels)}"
            )


def parity_classes(kernel_dims):
    """Each parity slice of a kernel as (phase index, delta, extents), in phase order.

    A slice's extent is the number of indices i with 2*i + delta < K,
    ceil((K - delta) / 2); a zero extent marks an empty slice.
    """
    n = len(kernel_dims)
    for k in range(2**n):
        delta = tuple((k >> j) & 1 for j in range(n))
        yield k, delta, tuple((e - d + 1) // 2 for e, d in zip(kernel_dims, delta))


def decompose_nd(kernel) -> SubKernelSet:
    """Split a rank-N kernel (1 <= N <= 4) into its 2^N parity slices."""
    kernel = as_array(kernel)
    if kernel.ndim > MAX_RANK:
        raise ShapeError(f"decomposition supports rank 1..{MAX_RANK}, got rank {kernel.ndim}")
    subs = []
    for k, delta, dims in parity_classes(kernel.shape):
        view = kernel[tuple(slice(d, None, 2) for d in delta)]
        subs.append(SubKernel(k, delta, dims, view.copy() if all(dims) else None))
    return SubKernelSet(kernel.shape, tuple(subs))


def deconv_output_dims(ifmap_dims, kernel_dims) -> tuple[int, ...]:
    """Ofmap extents of the stride-2 reference deconvolution: the valid
    convolution extents over the zero-upsampled ifmap, 2n + 2 - K per axis."""
    return valid_dims(upsampled_dims(ifmap_dims), kernel_dims)


def phases(out_dims, kernel_dims):
    """The parity slices that own ofmap positions, in phase order.

    Each entry is (phase index, sub-kernel extents, owned parity, owned
    counts). This is the one rule for which sub-convolutions a
    deconvolution runs. Slice delta owns parity 1-delta, and its valid
    convolution over the whole ifmap tiles that class exactly. A slice
    owns nothing when it is empty (K = 1 on some axis) or its parity
    class is (K = 2n+1 leaves one ofmap position on that axis, at
    parity 0).
    """
    owned = []
    for k, delta, dims in parity_classes(tuple(kernel_dims)):
        parity = tuple(1 - d for d in delta)
        counts = tuple((o - p + 1) // 2 for o, p in zip(out_dims, parity))
        if all(dims) and all(counts):
            owned.append((k, dims, parity, counts))
    return tuple(owned)


def gather(sub_ofmaps, kernel_dims, out_dims) -> np.ndarray:
    """Interleave per-parity sub-ofmaps into the final ofmap.

    Expects one sub-ofmap, of exactly the owned counts, per entry of
    phases(out_dims, kernel_dims), in phase order: the valid
    convolution of each owning sub-kernel over the full ifmap. Distinct
    phases own disjoint parity classes; a class no phase owns is
    structurally zero and stays zero-filled.
    """
    out_dims = tuple(out_dims)
    owned = phases(out_dims, kernel_dims)
    if len(sub_ofmaps) != len(owned):
        raise ShapeError(
            f"{len(sub_ofmaps)} sub-ofmaps supplied for {len(owned)} phases that own "
            f"ofmap positions"
        )
    out = np.zeros(out_dims, dtype=DTYPE)
    for sof, (k, _, parity, counts) in zip(sub_ofmaps, owned):
        sof = as_array(sof)
        if sof.shape != counts:
            raise ShapeError(
                f"sub-ofmap for phase {k} has dims {sof.shape}, "
                f"expected {counts} for out_dims {out_dims}"
            )
        out[tuple(slice(p, p + 2 * c, 2) for p, c in zip(parity, counts))] = sof
    return out


def transformed_deconv(ifmap, kernel) -> np.ndarray:
    """Deconvolution via decomposition: dense sub-convolutions plus a gather.

    Numerically equal to deconv_reference(ifmap, kernel); the multiply
    count equals the reference's nonzero-operand MAC count because each
    owning sub-kernel convolves the original ifmap, which holds no
    inserted zero.
    """
    ifmap, kernel = as_array(ifmap), as_array(kernel)
    out_dims = deconv_output_dims(ifmap.shape, kernel.shape)
    kernel_set = decompose_nd(kernel)
    sub_ofmaps = [conv_valid(ifmap, kernel_set.kernels[k].array)
                  for k, *_ in phases(out_dims, kernel.shape)]
    return gather(sub_ofmaps, kernel.shape, out_dims)


def transform_multiply_count(ifmap_dims, kernel_dims) -> int:
    """Multiplies the transformed path performs for this configuration.

    Computed from extents alone: each phase contributes
    (owned ofmap positions) x (sub-kernel elements) multiplies.
    """
    out_dims = deconv_output_dims(ifmap_dims, kernel_dims)
    return sum(
        math.prod(counts) * math.prod(dims)
        for _, dims, _, counts in phases(out_dims, kernel_dims)
    )
