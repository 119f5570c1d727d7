"""Rewriting a stride-2 deconvolution as a set of dense convolutions.

A rank-N kernel splits into 2^N sub-kernels, one per combination of
per-dimension index parities: sub-kernel k holds the original elements
at positions (2*i + delta) where delta_j = (k >> j) & 1 and j = 0 is the
outermost dimension. Convolving the original (never upsampled) ifmap
with each sub-kernel produces exactly the ofmap elements of one parity
class, and a gather interleaves those classes back into the full ofmap.
Every multiply performed by the transformed path corresponds to a
nonzero-operand MAC of the naive upsampled convolution. `phases` decides
which sub-kernels own ofmap positions; the gather, the transformed path,
multiply counting and the model's filter groups all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, ConvMode, ShapeError, Tensor, conv_valid, upsampled_dims, valid_dims

__all__ = [
    "SubKernel",
    "SubKernelSet",
    "decompose_2d",
    "decompose_nd",
    "deconv_output_dims",
    "gather",
    "parity_classes",
    "phases",
    "transform_multiply_count",
    "transformed_deconv",
]

MAX_RANK = 4


@dataclass(frozen=True)
class SubKernel:
    """One parity slice of a decomposed kernel.

    Element (i0, ..., i_{N-1}) of the slice equals original-kernel element
    (2*i0 + delta_0, ..., 2*i_{N-1} + delta_{N-1}). The extents follow
    ceil((K_j - delta_j) / 2); a slice with a zero extent carries no
    tensor and never contributes a sub-convolution.
    """

    phase_index: int
    delta: tuple[int, ...]
    dims: tuple[int, ...]
    tensor: Tensor | None

    @property
    def is_empty(self) -> bool:
        return self.tensor is None

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


def decompose_nd(kernel: Tensor) -> SubKernelSet:
    """Split a rank-N kernel (1 <= N <= 4) into its 2^N parity slices."""
    n = kernel.rank
    if not 1 <= n <= MAX_RANK:
        raise ShapeError(f"decomposition supports rank 1..{MAX_RANK}, got rank {n}")
    subs = []
    for k, delta, dims in parity_classes(kernel.dims):
        view = kernel.array[tuple(slice(d, None, 2) for d in delta)]
        subs.append(SubKernel(k, delta, dims, Tensor(view.copy()) if all(dims) else None))
    return SubKernelSet(kernel.dims, tuple(subs))


def decompose_2d(kernel: Tensor) -> SubKernelSet:
    """Split a rank-2 kernel into its four parity slices.

    Phase 0 holds the even-row/even-column elements, phase 1 odd rows,
    phase 2 odd columns, phase 3 odd rows and columns.
    """
    if kernel.rank != 2:
        raise ShapeError(f"decompose_2d needs a rank-2 kernel, got rank {kernel.rank}")
    return decompose_nd(kernel)


def deconv_output_dims(ifmap_dims, kernel_dims, with_border: bool = True) -> tuple[int, ...]:
    """Ofmap extents of the stride-2 reference deconvolution for the given convention:
    the valid convolution extents over the zero-upsampled ifmap."""
    return valid_dims(upsampled_dims(ifmap_dims, 2, with_border), kernel_dims)


def phases(out_dims, kernel_dims, with_border: bool = True):
    """The parity slices that own ofmap positions, in phase order.

    Each entry is (phase index, sub-kernel extents, owned parity, owned
    counts, first ifmap index). This is the one rule for which
    sub-convolutions a deconvolution runs. Under the bordered convention
    slice delta owns parity 1-delta and its valid convolution over the
    whole ifmap tiles that class exactly; without the border it owns
    parity delta and the first delta input rows/columns per dimension do
    not participate. A slice owns nothing when it is empty (K = 1 on some
    axis) or its parity class is (K = 2n+1 leaves one ofmap position on
    that axis, at parity 0).
    """
    owned = []
    for k, delta, dims in parity_classes(tuple(kernel_dims)):
        parity = tuple((1 - d if with_border else d) for d in delta)
        counts = tuple((o - p + 1) // 2 for o, p in zip(out_dims, parity))
        if all(dims) and all(counts):
            owned.append((k, dims, parity, counts, tuple(0 if with_border else d for d in delta)))
    return tuple(owned)


def gather(
    sub_ofmaps,
    kernel_set: SubKernelSet,
    out_dims,
    with_border: bool = True,
) -> Tensor:
    """Interleave per-parity sub-ofmaps into the final ofmap.

    Expects one sub-ofmap, of exactly the owned counts, per entry of
    phases(out_dims, kernel_set.source_dims, with_border), in phase order.
    Under the bordered convention these extents coincide with the plain
    valid convolution of each sub-kernel over the full ifmap. Distinct
    phases own disjoint parity classes; a class no phase owns is
    structurally zero and stays zero-filled.
    """
    out_dims = tuple(out_dims)
    owned = phases(out_dims, kernel_set.source_dims, with_border)
    if len(sub_ofmaps) != len(owned):
        raise ShapeError(
            f"{len(sub_ofmaps)} sub-ofmaps supplied for {len(owned)} phases that own "
            f"ofmap positions"
        )
    out = np.zeros(out_dims, dtype=DTYPE)
    for sof, (k, _, parity, counts, _) in zip(sub_ofmaps, owned):
        if sof.dims != counts:
            raise ShapeError(
                f"sub-ofmap for phase {k} has dims {sof.dims}, "
                f"expected {counts} for out_dims {out_dims}"
            )
        out[tuple(slice(p, p + 2 * c, 2) for p, c in zip(parity, counts))] = sof.array
    return Tensor(out)


def transformed_deconv(ifmap: Tensor, kernel: Tensor, with_border: bool = True) -> Tensor:
    """Deconvolution via decomposition: dense sub-convolutions plus a gather.

    Numerically equal to deconv_reference(ifmap, kernel, 2, with_border);
    the multiply count equals the reference's nonzero-operand MAC count
    because each sub-convolution runs only over the ifmap slice that
    feeds its parity class.
    """
    out_dims = deconv_output_dims(ifmap.dims, kernel.dims, with_border)
    kernel_set = decompose_nd(kernel)
    sub_ofmaps = []
    for k, dims, _, counts, starts in phases(out_dims, kernel.dims, with_border):
        window = tuple(slice(s, s + c + d - 1) for s, c, d in zip(starts, counts, dims))
        sub_ofmaps.append(
            conv_valid(Tensor(ifmap.array[window]), kernel_set.kernels[k].tensor, ConvMode.DOT)
        )
    return gather(sub_ofmaps, kernel_set, out_dims, with_border)


def transform_multiply_count(
    ifmap_dims, kernel_dims, with_border: bool = True
) -> int:
    """Multiplies the transformed path performs for this configuration.

    Computed from extents alone: each phase contributes
    (owned ofmap positions) x (sub-kernel elements) multiplies.
    """
    out_dims = deconv_output_dims(ifmap_dims, kernel_dims, with_border)
    return sum(
        math.prod(counts) * math.prod(dims)
        for _, dims, _, counts, _ in phases(out_dims, kernel_dims, with_border)
    )
