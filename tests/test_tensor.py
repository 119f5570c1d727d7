import math

import numpy as np
import pytest

from svopt.tensor import (
    ShapeError,
    conv_valid,
    deconv_reference,
    redundant_mac_fraction,
    upsample_zero,
)
from svopt.deconv import decompose_nd, transformed_deconv


def conv_dot_loops(ifmap: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Independent nested-loop convolution oracle (rank 2)."""
    oh = ifmap.shape[0] - kernel.shape[0] + 1
    ow = ifmap.shape[1] - kernel.shape[1] + 1
    out = np.zeros((oh, ow), dtype=np.float64)
    for y in range(oh):
        for x in range(ow):
            acc = 0.0
            for u in range(kernel.shape[0]):
                for v in range(kernel.shape[1]):
                    acc += float(ifmap[y + u, x + v]) * float(kernel[u, v])
            out[y, x] = acc
    return out


class TestInputChecks:
    """Every operator coerces its operands to float32 and rejects a scalar
    or a zero extent."""

    OPERATORS = {
        "conv_valid ifmap": lambda a: conv_valid(a, np.ones((1, 1))),
        "conv_valid kernel": lambda a: conv_valid(np.ones((3, 3)), a),
        "decompose_nd": decompose_nd,
        "upsample_zero": upsample_zero,
    }

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_rejects_zero_extent(self, name):
        with pytest.raises(ShapeError):
            self.OPERATORS[name](np.zeros((0, 3), dtype=np.float32))

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_rejects_scalar(self, name):
        with pytest.raises(ShapeError):
            self.OPERATORS[name](np.float32(1.0))

    def test_int64_and_float64_inputs_match_float32_bit_for_bit(self):
        # values float32 cannot hold exactly: computing in the input dtype
        # and casting afterwards would give different bits
        rng = np.random.default_rng(13)
        operands = [
            (rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, (3, 3))),
            (rng.integers(-2**26, 2**26, (4, 5)), rng.integers(-2**26, 2**26, (3, 3))),
        ]
        for ifmap, kernel in operands:
            ifmap32, kernel32 = ifmap.astype(np.float32), kernel.astype(np.float32)
            for op in (conv_valid, deconv_reference, transformed_deconv):
                got = op(ifmap, kernel)
                assert got.dtype == np.float32
                assert np.array_equal(got, op(ifmap32, kernel32))
            assert np.array_equal(upsample_zero(ifmap), upsample_zero(ifmap32))


class TestConvValid:
    def test_zero_ifmap(self):
        out = conv_valid(np.zeros((3, 3)), np.ones((2, 2)))
        assert out.shape == (2, 2)
        assert np.all(out == 0)

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(11)
        ifmap = rng.uniform(-1, 1, (7, 7)).astype(np.float32)
        kernel = rng.uniform(-1, 1, (3, 3)).astype(np.float32)
        got = conv_valid(ifmap, kernel)
        want = conv_dot_loops(ifmap, kernel)
        assert got.shape == (5, 5)
        assert np.allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_output_size_formula(self, rank):
        rng = np.random.default_rng(rank)
        idims = tuple(int(rng.integers(3, 7)) for _ in range(rank))
        kdims = tuple(int(rng.integers(1, 4)) for _ in range(rank))
        out = conv_valid(rng.random(idims), rng.random(kdims))
        assert out.shape == tuple(n - k + 1 for n, k in zip(idims, kdims))

    def test_linear_in_both_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ifmap = rng.uniform(-1, 1, (6, 5)).astype(np.float32)
            kernel = rng.uniform(-1, 1, (3, 2)).astype(np.float32)
            a = np.float32(rng.uniform(-3, 3))
            base = conv_valid(ifmap, kernel)
            scaled_if = conv_valid(a * ifmap, kernel)
            scaled_k = conv_valid(ifmap, a * kernel)
            assert np.allclose(scaled_if, a * base, rtol=1e-6, atol=1e-6)
            assert np.allclose(scaled_k, a * base, rtol=1e-6, atol=1e-6)

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            conv_valid(np.zeros((3, 3)), np.zeros((2,)))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            conv_valid(np.zeros((2, 2)), np.zeros((3, 3)))


class TestUpsampleZero:
    def test_bordered_3x3_becomes_7x7(self):
        # originals at odd indices, a ring of zeros around them
        src = np.arange(1, 10, dtype=np.float32).reshape(3, 3)
        up = upsample_zero(src)
        assert up.shape == (7, 7)
        assert np.count_nonzero(up) == 9
        for r in range(3):
            for c in range(3):
                assert up[2 * r + 1, 2 * c + 1] == src[r, c]
        mask = np.zeros((7, 7), dtype=bool)
        mask[1::2, 1::2] = True
        assert np.all(up[~mask] == 0)

    def test_hand_placement_rank1_and_rank2(self):
        up = upsample_zero(np.array([1, 2], dtype=np.float32))
        assert up.tolist() == [0, 1, 0, 2, 0]
        up = upsample_zero(np.array([[1, 2]], dtype=np.float32))
        assert up.tolist() == [[0, 0, 0, 0, 0], [0, 1, 0, 2, 0], [0, 0, 0, 0, 0]]


class TestDeconvReference:
    def test_3x3_input_gives_5x5_output(self):
        out = deconv_reference(np.zeros((3, 3)), np.ones((3, 3)))
        assert out.shape == (5, 5)

    def test_zero_ifmap_gives_zero_ofmap(self):
        rng = np.random.default_rng(0)
        out = deconv_reference(np.zeros((4, 4)), rng.random((3, 3)))
        assert np.all(out == 0)

    def test_single_pixel_hits_kernel_center(self):
        v = 3.5
        kernel = np.arange(1, 10, dtype=np.float32).reshape(3, 3)
        out = deconv_reference(np.array([[v]], dtype=np.float32), kernel)
        assert out.shape == (1, 1)
        assert out[0, 0] == np.float32(v) * kernel[1, 1]


class TestRedundantMacFraction:
    def test_worked_2d_case(self):
        # total 25 windows * 9 taps = 225 MACs; 49 hit original elements
        frac = redundant_mac_fraction((3, 3), (3, 3))
        assert frac == 176 / 225
        assert frac > 0.75

    def test_1x1_kernel_wastes_exactly_the_inserted_zeros(self):
        # every MAC reads one upsampled element, so the fraction is the zero share
        assert redundant_mac_fraction((4, 5), (1, 1)) == (9 * 11 - 20) / (9 * 11)

    def test_3d_upsampled_zero_fraction(self):
        # element-level sparsity of the bordered stride-2 volume
        for n in (1, 2, 3, 4):
            up = upsample_zero(np.ones((n, n, n)))
            zero_frac = 1.0 - n**3 / up.size
            assert zero_frac >= 7 / 8

    def test_second_counting_path(self):
        # independent path: count nonzero-operand MACs by convolving the
        # occupancy indicator with an all-ones kernel
        rng = np.random.default_rng(9)
        for _ in range(10):
            rank = int(rng.integers(1, 4))
            idims = tuple(int(rng.integers(1, 5)) for _ in range(rank))
            kdims = tuple(int(rng.integers(1, 4)) for _ in range(rank))
            up = upsample_zero(np.ones(idims))
            if any(k > u for k, u in zip(kdims, up.shape)):
                continue
            ones = np.ones(kdims)
            nonzero_macs = conv_valid(up, ones).sum()
            out_dims = tuple(u - k + 1 for u, k in zip(up.shape, kdims))
            total = math.prod(out_dims) * math.prod(kdims)
            want = 1.0 - float(nonzero_macs) / total
            got = redundant_mac_fraction(idims, kdims)
            assert got == pytest.approx(want, abs=1e-12)
