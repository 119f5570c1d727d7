"""Dense tensors and the reference operators every optimized path is checked against.

This module is deliberately naive: a thin N-d float32 container plus
window-by-window convolution, zero upsampling, reference deconvolution,
and exact redundancy accounting. Deconvolution has one convention:
stride 2, over an ifmap zero-upsampled to 2n + 1 per axis with the
originals at odd indices. Nothing here is tuned for speed beyond plain
numpy vectorization; the point is to be obviously correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DTYPE",
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


def upsampled_dims(ifmap_dims) -> tuple[int, ...]:
    """Extents of the zero-upsampled ifmap of a stride-2 deconvolution: 2n + 1 per axis."""
    return tuple(2 * n + 1 for n in ifmap_dims)


def conv_valid(ifmap: Tensor, kernel: Tensor) -> Tensor:
    """Valid (no padding, stride 1) convolution: the dot product of kernel with
    each window of ifmap, over valid_dims(ifmap.dims, kernel.dims) extents.

    einsum without optimize runs numpy's own loops, never BLAS, whose dot
    once raised an invalid-value warning on finite operands.
    """
    valid_dims(ifmap.dims, kernel.dims)
    windows = np.lib.stride_tricks.sliding_window_view(ifmap.array, kernel.dims)
    axes = "abcdefghijklmnopqrstuvwxyz"[: kernel.rank]
    out = np.einsum(f"...{axes},{axes}", windows, kernel.array)
    return Tensor(np.asarray(out, dtype=DTYPE))


def upsample_zero(ifmap: Tensor) -> Tensor:
    """Place each element at odd indices of a zero tensor of upsampled_dims extents:
    one zero between neighbouring elements and a ring of one zero on every side."""
    out = np.zeros(upsampled_dims(ifmap.dims), dtype=DTYPE)
    out[(slice(1, None, 2),) * ifmap.rank] = ifmap.array
    return Tensor(out)


def deconv_reference(ifmap: Tensor, kernel: Tensor) -> Tensor:
    """Stride-2 deconvolution the slow way: explicit zero upsampling, then conv_valid."""
    return conv_valid(upsample_zero(ifmap), kernel)


def redundant_mac_fraction(ifmap_dims, kernel_dims) -> float:
    """Fraction of naive-deconvolution MACs whose ifmap operand is an inserted zero.

    Counted exactly: an occupancy map of the upsampled ifmap is enumerated
    window by window, so the result is (zero-operand MACs) / (total MACs)
    of the dense convolution over the upsampled input.
    """
    kernel_dims = tuple(kernel_dims)
    occupancy = upsample_zero(Tensor(np.ones(tuple(ifmap_dims), dtype=DTYPE)))
    out_dims = valid_dims(occupancy.dims, kernel_dims)
    zero_map = (occupancy.array == 0.0).astype(np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(zero_map, kernel_dims)
    zero_macs = int(windows.sum())
    total_macs = math.prod(out_dims) * math.prod(kernel_dims)
    return zero_macs / total_macs
