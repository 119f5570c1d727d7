"""Dense tensors and the reference operators every optimized path is checked against.

This module is deliberately naive: a thin N-d float32 container plus
window-by-window convolution, zero upsampling, reference deconvolution,
and exact redundancy accounting. Nothing here is tuned for speed beyond
plain numpy vectorization; the point is to be obviously correct.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DTYPE",
    "ConvMode",
    "ShapeError",
    "Tensor",
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


class ConvMode(enum.Enum):
    DOT = "dot"  # sum(a_i * b_i) per window: canonical convolution
    SAD = "sad"  # sum(|a_i - b_i|) per window: block-matching cost


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense N-d array, outermost dimension first, row-major float32.

    Every extent is at least 1 and the flat buffer length always equals
    the product of the extents.
    """

    array: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.dims == other.dims
            and bool(np.array_equal(self.array, other.array))
        )

    __hash__ = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.array, dtype=DTYPE)
        if arr.ndim == 0:
            raise ShapeError("tensor needs at least one dimension")
        if any(extent < 1 for extent in arr.shape):
            raise ShapeError(f"every extent must be >= 1, got {arr.shape}")
        object.__setattr__(self, "array", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def rank(self) -> int:
        return self.array.ndim

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the element buffer."""
        return self.array.reshape(-1)

    @property
    def size(self) -> int:
        return self.array.size

    @classmethod
    def zeros(cls, dims) -> "Tensor":
        return cls(np.zeros(tuple(dims), dtype=DTYPE))

    @classmethod
    def from_flat(cls, dims, values) -> "Tensor":
        dims = tuple(dims)
        buf = np.asarray(values, dtype=DTYPE)
        if buf.size != math.prod(dims):
            raise ShapeError(f"buffer of {buf.size} elements cannot fill dims {dims}")
        return cls(buf.reshape(dims))

    def allclose(self, other: "Tensor", atol: float = 0.0, rtol: float = 0.0) -> bool:
        return self.dims == other.dims and np.allclose(
            self.array, other.array, atol=atol, rtol=rtol
        )


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


def upsampled_dims(ifmap_dims, factor: int, with_border: bool) -> tuple[int, ...]:
    """Extents of a zero-upsampled ifmap: factor * (n - 1) + 1 per axis, plus
    2 * (factor - 1) with the border; factor 2 gives 2n + 1 with it, 2n - 1 without."""
    if factor < 1:
        raise ShapeError("upsampling factor must be >= 1")
    pad = 2 * (factor - 1) if with_border else 0
    return tuple(factor * (n - 1) + 1 + pad for n in ifmap_dims)


def conv_valid(ifmap: Tensor, kernel: Tensor, mode: ConvMode = ConvMode.DOT) -> Tensor:
    """Valid (no padding, stride 1) sliding-window reduction of kernel over ifmap.

    DOT accumulates products, SAD accumulates absolute differences.
    The output extents are valid_dims(ifmap.dims, kernel.dims).
    """
    valid_dims(ifmap.dims, kernel.dims)
    windows = np.lib.stride_tricks.sliding_window_view(ifmap.array, kernel.dims)
    if mode is ConvMode.DOT:
        out = np.tensordot(windows, kernel.array, axes=kernel.rank)
    elif mode is ConvMode.SAD:
        reduce_axes = tuple(range(-kernel.rank, 0))
        out = np.abs(windows - kernel.array).sum(axis=reduce_axes)
    else:
        raise ValueError(f"unknown convolution mode {mode!r}")
    return Tensor(np.asarray(out, dtype=DTYPE))


def upsample_zero(ifmap: Tensor, factor: int, with_border: bool = True) -> Tensor:
    """Insert factor-1 zeros between neighbouring elements, into upsampled_dims extents.

    With the bordered convention a ring of factor-1 zeros is added on
    every side as well, so for factor 2 the original elements sit at odd
    indices; without the border they sit at even indices.
    """
    up = upsampled_dims(ifmap.dims, factor, with_border)
    pad = factor - 1 if with_border else 0
    out = np.zeros(up, dtype=DTYPE)
    out[tuple(slice(pad, u - pad, factor) for u in up)] = ifmap.array
    return Tensor(out)


def deconv_reference(
    ifmap: Tensor, kernel: Tensor, factor: int = 2, with_border: bool = True
) -> Tensor:
    """Deconvolution the slow way: explicit zero upsampling, then conv_valid."""
    return conv_valid(upsample_zero(ifmap, factor, with_border), kernel, ConvMode.DOT)


def redundant_mac_fraction(
    ifmap_dims, kernel_dims, factor: int = 2, with_border: bool = True
) -> float:
    """Fraction of naive-deconvolution MACs whose ifmap operand is an inserted zero.

    Counted exactly: an occupancy map of the upsampled ifmap is enumerated
    window by window, so the result is (zero-operand MACs) / (total MACs)
    of the dense convolution over the upsampled input.
    """
    kernel_dims = tuple(kernel_dims)
    occupancy = upsample_zero(Tensor(np.ones(tuple(ifmap_dims), dtype=DTYPE)), factor, with_border)
    out_dims = valid_dims(occupancy.dims, kernel_dims)
    zero_map = (occupancy.array == 0.0).astype(np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(zero_map, kernel_dims)
    zero_macs = int(windows.sum())
    total_macs = math.prod(out_dims) * math.prod(kernel_dims)
    return zero_macs / total_macs
