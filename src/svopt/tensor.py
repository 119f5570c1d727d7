"""The reference operators every optimized path is checked against.

This module is deliberately naive: window-by-window convolution, zero
upsampling, reference deconvolution, and exact redundancy accounting.
Operators take array-likes and return float32 ndarrays, outermost
dimension first. Deconvolution has one convention: stride 2, over an
ifmap zero-upsampled to 2n + 1 per axis with the originals at odd
indices. Nothing here is tuned for speed beyond plain numpy
vectorization; the point is to be obviously correct.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DTYPE",
    "ShapeError",
    "as_array",
    "conv_valid",
    "deconv_reference",
    "redundant_mac_fraction",
    "upsample_zero",
    "upsampled_dims",
    "valid_dims",
]

DTYPE = np.float32


class ShapeError(ValueError):
    """Operand ranks or extents are incompatible."""


def as_array(x) -> np.ndarray:
    """`x` as a float32 ndarray; a scalar or a zero extent raises ShapeError."""
    arr = np.asarray(x, dtype=DTYPE)
    if arr.ndim == 0:
        raise ShapeError("an operand needs at least one dimension")
    if 0 in arr.shape:
        raise ShapeError(f"every extent must be >= 1, got {arr.shape}")
    return arr


def valid_dims(ifmap_dims, kernel_dims) -> tuple[int, ...]:
    """Output extents of a valid (no padding, stride 1) convolution: n - k + 1 per axis.

    Raises ShapeError when the ranks differ or the kernel does not fit.
    """
    ifmap_dims, kernel_dims = tuple(ifmap_dims), tuple(kernel_dims)
    if len(kernel_dims) != len(ifmap_dims):
        raise ShapeError(
            f"rank mismatch: ifmap rank {len(ifmap_dims)} vs kernel rank {len(kernel_dims)}"
        )
    if any(k > n for k, n in zip(kernel_dims, ifmap_dims)):
        raise ShapeError(f"kernel {kernel_dims} does not fit inside ifmap {ifmap_dims}")
    return tuple(n - k + 1 for n, k in zip(ifmap_dims, kernel_dims))


def upsampled_dims(ifmap_dims) -> tuple[int, ...]:
    """Extents of the zero-upsampled ifmap of a stride-2 deconvolution: 2n + 1 per axis."""
    return tuple(2 * n + 1 for n in ifmap_dims)


def conv_valid(ifmap, kernel) -> np.ndarray:
    """Valid (no padding, stride 1) convolution: the dot product of kernel with
    each window of ifmap, over valid_dims(ifmap.shape, kernel.shape) extents.

    einsum without optimize runs numpy's own loops, never BLAS, whose dot
    once raised an invalid-value warning on finite operands.
    """
    ifmap, kernel = as_array(ifmap), as_array(kernel)
    valid_dims(ifmap.shape, kernel.shape)
    windows = np.lib.stride_tricks.sliding_window_view(ifmap, kernel.shape)
    axes = "abcdefghijklmnopqrstuvwxyz"[: kernel.ndim]
    return np.einsum(f"...{axes},{axes}", windows, kernel)


def upsample_zero(ifmap) -> np.ndarray:
    """Place each element at odd indices of a zero array of upsampled_dims extents:
    one zero between neighbouring elements and a ring of one zero on every side."""
    ifmap = as_array(ifmap)
    out = np.zeros(upsampled_dims(ifmap.shape), dtype=DTYPE)
    out[(slice(1, None, 2),) * ifmap.ndim] = ifmap
    return out


def deconv_reference(ifmap, kernel) -> np.ndarray:
    """Stride-2 deconvolution the slow way: explicit zero upsampling, then conv_valid."""
    return conv_valid(upsample_zero(ifmap), kernel)


def redundant_mac_fraction(ifmap_dims, kernel_dims) -> float:
    """Fraction of naive-deconvolution MACs whose ifmap operand is an inserted zero.

    Counted exactly: an occupancy map of the upsampled ifmap is enumerated
    window by window, so the result is (zero-operand MACs) / (total MACs)
    of the dense convolution over the upsampled input.
    """
    kernel_dims = tuple(kernel_dims)
    occupancy = upsample_zero(np.ones(tuple(ifmap_dims), dtype=DTYPE))
    out_dims = valid_dims(occupancy.shape, kernel_dims)
    zero_map = (occupancy == 0.0).astype(np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(zero_map, kernel_dims)
    zero_macs = int(windows.sum())
    total_macs = math.prod(out_dims) * math.prod(kernel_dims)
    return zero_macs / total_macs
