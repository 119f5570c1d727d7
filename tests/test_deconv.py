import itertools
import math

import numpy as np
import pytest

from svopt.deconv import (
    decompose_nd,
    deconv_output_dims,
    gather,
    transform_multiply_count,
    transformed_deconv,
)
from svopt.tensor import (
    ShapeError,
    conv_valid,
    deconv_reference,
    redundant_mac_fraction,
)


def subkernel_oracle(kernel: np.ndarray, k: int) -> np.ndarray:
    """Direct evaluation of the index formula: S_k[i] = K[2i + delta]."""
    n = kernel.ndim
    delta = [(k >> j) & 1 for j in range(n)]
    dims = [(kernel.shape[j] - delta[j] + 1) // 2 for j in range(n)]
    if not all(dims):
        return np.zeros(tuple(max(d, 0) for d in dims), dtype=kernel.dtype)
    out = np.zeros(tuple(dims), dtype=kernel.dtype)
    for idx in itertools.product(*(range(d) for d in dims)):
        src = tuple(2 * i + d for i, d in zip(idx, delta))
        out[idx] = kernel[src]
    return out


class TestDecomposeRank2:
    def test_3x3_worked_example(self):
        a, b, c, d, e, f, g, h, i = range(1, 10)
        kernel = np.array([[a, b, c], [d, e, f], [g, h, i]], dtype=np.float32)
        ks = decompose_nd(kernel)
        got = {sub.phase_index: sub for sub in ks.kernels}
        assert got[0].array.tolist() == [[a, c], [g, i]]
        assert got[1].array.tolist() == [[d, f]]
        assert got[2].array.tolist() == [[b], [h]]
        assert got[3].array.tolist() == [[e]]
        assert [sub.dims for sub in ks.kernels] == [(2, 2), (1, 2), (2, 1), (1, 1)]

    def test_1x1_kernel_leaves_three_empty(self):
        ks = decompose_nd(np.array([[7.0]], dtype=np.float32))
        assert ks.kernels[0].array.tolist() == [[7.0]]
        assert all(sub.is_empty for sub in ks.kernels[1:])
        assert all(0 in sub.dims for sub in ks.kernels[1:])

    def test_5x5_against_index_formula(self):
        kernel = np.arange(25, dtype=np.float32).reshape(5, 5)
        ks = decompose_nd(kernel)
        assert [sub.dims for sub in ks.kernels] == [(3, 3), (2, 3), (3, 2), (2, 2)]
        for sub in ks.kernels:
            want = subkernel_oracle(kernel, sub.phase_index)
            assert np.array_equal(sub.array, want)


class TestDecomposeNd:
    def test_rank3_has_eight_subkernels_conserving_elements(self):
        kernel = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
        ks = decompose_nd(kernel)
        assert len(ks.kernels) == 8
        assert sum(sub.element_count for sub in ks.kernels) == 27

    def test_delta_bits_of_phase_5(self):
        ks = decompose_nd(np.zeros((3, 3, 3)))
        assert ks.kernels[5].delta == (1, 0, 1)

    def test_rank1(self):
        ks = decompose_nd(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        assert ks.kernels[0].array.tolist() == [1.0, 3.0]
        assert ks.kernels[1].array.tolist() == [2.0]

    def test_rank5_rejected(self):
        with pytest.raises(ShapeError):
            decompose_nd(np.zeros((2, 2, 2, 2, 2)))

    def test_subkernels_compare_by_identity(self):
        ks = decompose_nd(np.ones((3, 3)))
        assert ks.kernels[0] == ks.kernels[0]
        assert ks.kernels[0] != decompose_nd(np.ones((3, 3))).kernels[0]
        assert len({ks.kernels[0], ks.kernels[1]}) == 2

    def test_partition_property(self):
        # every original element lands in exactly one sub-kernel
        rng = np.random.default_rng(4)
        cases = [(e,) for e in range(1, 8)]
        cases += [(int(rng.integers(1, 8)), int(rng.integers(1, 8))) for _ in range(12)]
        cases += [
            tuple(int(rng.integers(1, 8)) for _ in range(3)) for _ in range(8)
        ]
        for dims in cases:
            kernel = rng.permutation(np.arange(math.prod(dims), dtype=np.float32)).reshape(dims)
            ks = decompose_nd(kernel)
            collected = np.concatenate(
                [sub.array.ravel() for sub in ks.kernels if not sub.is_empty]
            )
            assert sorted(collected.tolist()) == sorted(kernel.reshape(-1).tolist())
            for sub in ks.kernels:
                assert sub.dims == tuple(
                    (e - d + 1) // 2 for e, d in zip(dims, sub.delta)
                )


class TestGather:
    def test_phase0_fills_even_positions_of_worked_example(self):
        # in the 3x3 example, 1-indexed ofmap cells (2,2),(2,4),(4,2),(4,4)
        # come from the [[a,c],[g,i]] sub-convolution
        rng = np.random.default_rng(2)
        ifmap = rng.uniform(-1, 1, (3, 3)).astype(np.float32)
        kernel = rng.uniform(-1, 1, (3, 3)).astype(np.float32)
        ks = decompose_nd(kernel)
        s0_conv = conv_valid(ifmap, ks.kernels[0].array)
        full = transformed_deconv(ifmap, kernel)
        assert full.shape == (5, 5)
        assert np.allclose(full[1::2, 1::2], s0_conv, atol=1e-6)

    def test_single_subkernel_gather_is_identity(self):
        rng = np.random.default_rng(8)
        ifmap = rng.random((4, 4)).astype(np.float32)
        kernel = np.array([[2.0]], dtype=np.float32)
        ks = decompose_nd(kernel)
        sub_of = conv_valid(ifmap, ks.kernels[0].array)
        out = gather([sub_of], (1, 1), deconv_output_dims((4, 4), (1, 1)))
        # phase 0 owns the odd positions; the rest is structurally zero
        assert np.allclose(out[1::2, 1::2], sub_of)
        ref = deconv_reference(ifmap, kernel)
        assert np.allclose(out, ref, atol=1e-6)

    def test_gather_of_transform_outputs_matches_reference(self):
        rng = np.random.default_rng(12)
        ifmap = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
        kernel = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        ks = decompose_nd(kernel)
        out_dims = deconv_output_dims((6, 6), (4, 4))
        sub_ofs = [
            conv_valid(ifmap, sub.array) for sub in ks.kernels if not sub.is_empty
        ]
        got = gather(sub_ofs, kernel.shape, out_dims)
        want = deconv_reference(ifmap, kernel)
        assert np.allclose(got, want, atol=1e-5)

    def test_wrong_subofmap_dims_rejected(self):
        bad = [np.zeros((9, 9))] * 4
        with pytest.raises(ShapeError):
            gather(bad, (3, 3), (5, 5))

    def test_missing_subofmap_rejected(self):
        with pytest.raises(ShapeError):
            gather([np.zeros((2, 2))], (3, 3), (5, 5))


class TestTransformedDeconv:
    def test_integer_inputs_bit_identical(self):
        rng = np.random.default_rng(1)
        ifmap = rng.integers(-8, 8, (3, 3)).astype(np.float32)
        kernel = rng.integers(-8, 8, (3, 3)).astype(np.float32)
        got = transformed_deconv(ifmap, kernel)
        want = deconv_reference(ifmap, kernel)
        assert np.array_equal(got, want)

    def test_zero_kernel_gives_zero_ofmap(self):
        rng = np.random.default_rng(2)
        ifmap = rng.random((4, 5)).astype(np.float32)
        out = transformed_deconv(ifmap, np.zeros((3, 3)))
        assert np.all(out == 0)

    def test_exhaustive_small_grid_rank2(self):
        rng = np.random.default_rng(3)
        for ih, iw, kh, kw in itertools.product(range(1, 5), range(1, 5), range(1, 7), range(1, 7)):
            if kh > 2 * ih + 1 or kw > 2 * iw + 1:
                continue
            ifmap = rng.uniform(-1, 1, (ih, iw)).astype(np.float32)
            kernel = rng.uniform(-1, 1, (kh, kw)).astype(np.float32)
            got = transformed_deconv(ifmap, kernel)
            want = deconv_reference(ifmap, kernel)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-4

    def test_randomized_rank3(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 60:
            idims = tuple(int(rng.integers(1, 6)) for _ in range(3))
            kdims = tuple(int(rng.integers(1, 6)) for _ in range(3))
            if any(k > 2 * n + 1 for k, n in zip(kdims, idims)):
                continue
            ifmap = rng.uniform(-1, 1, idims).astype(np.float32)
            kernel = rng.uniform(-1, 1, kdims).astype(np.float32)
            got = transformed_deconv(ifmap, kernel)
            want = deconv_reference(ifmap, kernel)
            assert np.abs(got - want).max() <= 1e-4
            done += 1

    def test_unbordered_convention_is_one_ring_cropped(self):
        # upsampling to 2n - 1 (originals at even indices, no border) gives
        # the bordered ofmap without its outermost ring on every axis
        rng = np.random.default_rng(6)
        for ih, iw, kh, kw in itertools.product(range(1, 5), range(1, 5), range(1, 7), range(1, 7)):
            if kh > 2 * ih - 1 or kw > 2 * iw - 1:
                continue
            ifmap = rng.integers(-9, 10, (ih, iw)).astype(np.float32)
            kernel = rng.integers(-9, 10, (kh, kw)).astype(np.float32)
            up = np.zeros((2 * ih - 1, 2 * iw - 1), dtype=np.float32)
            up[::2, ::2] = ifmap
            unbordered = conv_valid(up, kernel)
            bordered = transformed_deconv(ifmap, kernel)
            assert np.array_equal(unbordered, bordered[1:-1, 1:-1])

    def test_multiply_count_equals_nonzero_macs(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 40:
            rank = int(rng.integers(1, 4))
            idims = tuple(int(rng.integers(1, 6)) for _ in range(rank))
            kdims = tuple(int(rng.integers(1, 6)) for _ in range(rank))
            if any(k > 2 * n + 1 for k, n in zip(kdims, idims)):
                continue
            frac = redundant_mac_fraction(idims, kdims)
            out_dims = deconv_output_dims(idims, kdims)
            total = math.prod(out_dims) * math.prod(kdims)
            nonzero = round((1.0 - frac) * total)
            assert transform_multiply_count(idims, kdims) == nonzero
            done += 1
