"""Rewriting a stride-2 deconvolution as a set of dense convolutions.

A rank-N kernel splits into 2^N sub-kernels, one per combination of
per-dimension index parities: sub-kernel k holds the original elements
at positions (2*i + delta) where delta_j = (k >> j) & 1 and j = 0 is the
outermost dimension. Convolving the original (never upsampled) ifmap
with each sub-kernel produces exactly the ofmap elements of one parity
class, and a gather interleaves those classes back into the full ofmap.
Every multiply performed by the transformed path corresponds to a
nonzero-operand MAC of the naive upsampled convolution.
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

    def non_empty(self) -> tuple[SubKernel, ...]:
        return tuple(sub for sub in self.kernels if not sub.is_empty)


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


def _phase_geometry(delta, dims, out_dims: tuple[int, ...], with_border: bool):
    """Placement of one parity slice's outputs inside the ofmap.

    Returns (parity, counts, ifmap_starts) or None when the slice, with
    bits delta and extents dims, is empty or owns no ofmap position.
    Under the bordered convention it owns parity 1-delta and its valid
    convolution over the whole ifmap tiles that class exactly; without
    the border it owns parity delta and the first delta input
    rows/columns per dimension do not participate.
    """
    if not all(dims):
        return None
    parity = tuple((1 - d if with_border else d) for d in delta)
    counts = tuple(max(0, -(-(o - p) // 2)) for o, p in zip(out_dims, parity))
    if any(c == 0 for c in counts):
        return None
    starts = tuple(0 if with_border else d for d in delta)
    return parity, counts, starts


def gather(
    sub_ofmaps,
    kernel_set: SubKernelSet,
    out_dims,
    with_border: bool = True,
) -> Tensor:
    """Interleave per-parity sub-ofmaps into the final ofmap.

    Expects one sub-ofmap, of exactly the owned parity-class extents, per
    sub-kernel that owns at least one ofmap position, in phase order.
    Under the bordered convention these extents coincide with the plain
    valid convolution of each sub-kernel over the full ifmap. Parity
    classes owned by an empty sub-kernel are structurally zero and stay
    zero-filled.
    """
    out_dims = tuple(out_dims)
    out = np.zeros(out_dims, dtype=DTYPE)
    covered = np.zeros(out_dims, dtype=bool)
    index = 0
    for sub in kernel_set.kernels:
        geometry = _phase_geometry(sub.delta, sub.dims, out_dims, with_border)
        if geometry is None:
            continue
        parity, counts, _ = geometry
        if index >= len(sub_ofmaps):
            raise ShapeError(
                f"missing sub-ofmap for sub-kernel phase {sub.phase_index}"
            )
        sof = sub_ofmaps[index]
        index += 1
        if sof.dims != counts:
            raise ShapeError(
                f"sub-ofmap for phase {sub.phase_index} has dims {sof.dims}, "
                f"expected {counts} for out_dims {out_dims}"
            )
        target = tuple(slice(p, p + 2 * c, 2) for p, c in zip(parity, counts))
        if covered[target].any():
            raise ShapeError(f"phase {sub.phase_index} overlaps already-written ofmap positions")
        out[target] = sof.array
        covered[target] = True
    if index != len(sub_ofmaps):
        raise ShapeError(f"{len(sub_ofmaps) - index} extra sub-ofmaps supplied")
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
    for sub in kernel_set.kernels:
        geometry = _phase_geometry(sub.delta, sub.dims, out_dims, with_border)
        if geometry is None:
            continue
        _, counts, starts = geometry
        window = tuple(
            slice(s, s + c + d - 1)
            for s, c, d in zip(starts, counts, sub.dims)
        )
        sub_ofmaps.append(conv_valid(Tensor(ifmap.array[window]), sub.tensor, ConvMode.DOT))
    return gather(sub_ofmaps, kernel_set, out_dims, with_border)


def transform_multiply_count(
    ifmap_dims, kernel_dims, with_border: bool = True
) -> int:
    """Multiplies the transformed path performs for this configuration.

    Computed from extents alone: each active sub-kernel contributes
    (owned ofmap positions) x (sub-kernel elements) multiplies.
    """
    out_dims = deconv_output_dims(ifmap_dims, kernel_dims, with_border)
    total = 0
    for _, delta, dims in parity_classes(tuple(kernel_dims)):
        geometry = _phase_geometry(delta, dims, out_dims, with_border)
        if geometry is not None:
            total += math.prod(geometry[1]) * math.prod(dims)
    return total
