import hashlib

import numpy as np
import pytest

from svopt import ism
from svopt.ism import (
    INVALID_DISPARITY,
    CameraRig,
    CorrespondenceSet,
    DisparityMap,
    Frame,
    MotionField,
    estimate_motion,
    gaussian_blur,
    ism_run,
    motion_pyramid,
    nonkey_operation_count,
    propagate,
    reconstruct,
    refine,
    scatter_pairs,
    three_pixel_error,
    triangulate,
)
from svopt.tensor import conv_valid
import ism_oracle as oracle
from conftest import (
    ism_maps, make_approaching_sequence, make_sequence, make_two_plane, make_two_plane_sequence)

BUMBLEBEE_LIKE = CameraRig(baseline_m=0.12, focal_length_m=0.0025, pixel_pitch_m=7.4e-6)


class TestTriangulate:
    def test_hand_computation(self):
        # 0.12 * 0.0025 / (10 * 7.4e-6), written out independently
        want = 0.12 * 0.0025 / (10 * 7.4e-6)
        assert triangulate(10, BUMBLEBEE_LIKE) == pytest.approx(want, rel=1e-12)
        assert triangulate(10, BUMBLEBEE_LIKE) == pytest.approx(4.0540540540, rel=1e-9)

    def test_doubling_disparity_halves_depth(self):
        assert triangulate(8, BUMBLEBEE_LIKE) == pytest.approx(
            triangulate(4, BUMBLEBEE_LIKE) / 2
        )

    def test_unit_depth_inversion(self):
        rig = BUMBLEBEE_LIKE
        d_for_one_meter = rig.baseline_m * rig.focal_length_m / rig.pixel_pitch_m
        assert triangulate(d_for_one_meter, rig) == pytest.approx(1.0)

    def test_nonpositive_disparity_rejected(self):
        with pytest.raises(ValueError):
            triangulate(0, BUMBLEBEE_LIKE)


class TestFrame:
    # the int32 SADs are exact only for a PGM's 8- or 16-bit samples
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, bool, np.int32, np.int64, np.uint32])
    def test_samples_other_than_uint8_or_uint16_rejected_naming_the_dtype(self, dtype):
        with pytest.raises(ValueError, match=f"uint8 or uint16 samples, got {np.dtype(dtype)}"):
            Frame(np.zeros((2, 3), dtype))

    def test_integer_samples_kept_as_given(self):
        luma = np.arange(6, dtype=np.uint16).reshape(2, 3)
        assert Frame(luma).luma is luma


class TestReconstruct:
    def test_zero_disparity_pairs_pixel_with_itself(self):
        cs = reconstruct(DisparityMap(np.zeros((3, 4), np.int32)))
        assert len(cs) == 12
        assert np.array_equal(cs.xl, cs.xr)
        assert np.array_equal(cs.yl, cs.yr)

    def test_constant_disparity_bounds(self):
        d = np.full((2, 10), 5, np.int32)
        cs = reconstruct(DisparityMap(d))
        assert len(cs) == 2 * 5  # only x <= 4 stays in frame
        assert cs.xl.max() == 4
        assert np.array_equal(cs.xr, cs.xl + 5)

    def test_pair_count_equals_valid_pixels(self):
        rng = np.random.default_rng(0)
        d = rng.integers(-1, 6, (6, 8)).astype(np.int32)
        dmap = DisparityMap(d)
        assert len(reconstruct(dmap)) == int(dmap.valid_mask().sum())


class TestDisparityMap:
    @pytest.mark.parametrize("bad", [2.7, -0.5, np.nan, np.inf, 2.0**31])
    def test_disparity_that_is_not_a_whole_int32_rejected(self, bad):
        # truncating would turn 2.7 into 2 and NaN into -2**31
        d = np.zeros((2, 3))
        d[1, 2] = bad
        with pytest.raises(ValueError, match="disparity must hold whole pixels"):
            DisparityMap(d)

    def test_int64_outside_int32_range_rejected(self):
        # wrapping would turn 2**32 + 3 into 3
        with pytest.raises(ValueError, match="disparity must hold whole pixels"):
            DisparityMap(np.array([[2**32 + 3]]))

    def test_int32_kept_as_given(self):
        d = np.full((2, 3), 4, np.int32)
        assert DisparityMap(d).d is d

    def test_whole_values_of_other_dtypes_kept_as_int32(self):
        for d in (np.full((2, 3), -1.0), np.full((2, 3), 7, np.uint16)):
            got = DisparityMap(d).d
            assert got.dtype == np.int32
            assert np.array_equal(got, d)


class TestCorrespondenceSet:
    @pytest.mark.parametrize("name", ["xl", "yl", "xr", "yr"])
    @pytest.mark.parametrize("bad", [1.9, 3.2, np.nan, 2**32 + 3])
    def test_coordinate_that_is_not_a_whole_int32_rejected(self, name, bad):
        coords = dict(xl=[0, 1], yl=[0, 0], xr=[2, 3], yr=[0, 0])
        coords[name] = [1, bad]
        with pytest.raises(ValueError, match=f"{name} must hold whole pixels"):
            CorrespondenceSet(**coords)

    def test_int32_kept_as_given(self):
        coords = [np.arange(3, dtype=np.int32) for _ in range(4)]
        cs = CorrespondenceSet(*coords)
        assert all(got is want for got, want in zip((cs.xl, cs.yl, cs.xr, cs.yr), coords))

    def test_whole_valued_floats_kept_as_int32(self):
        cs = CorrespondenceSet([1.0], [0], [3.0], [0])
        assert cs.xl.dtype == cs.xr.dtype == np.int32
        assert (cs.xl.tolist(), cs.xr.tolist()) == ([1], [3])


class TestMotionField:
    @pytest.mark.parametrize("bad", [0.5, -1.5, np.nan, np.inf, 2.0**31])
    def test_flow_that_is_not_a_whole_int32_rejected(self, bad):
        # fractional flow is refused, not rounded
        dx = np.zeros((2, 3))
        dx[1, 2] = bad
        with pytest.raises(ValueError, match="dx must hold whole pixels"):
            MotionField(dx, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dy must hold whole pixels"):
            MotionField(np.zeros((2, 3)), dx)

    def test_whole_valued_floats_kept_as_int32(self):
        mf = MotionField(np.full((2, 3), -2.0, np.float32), np.full((2, 3), 3.0))
        assert mf.dx.dtype == mf.dy.dtype == np.int32
        assert mf.dx.tolist() == [[-2] * 3] * 2
        assert mf.dy.tolist() == [[3] * 3] * 2


class TestPropagate:
    def test_zero_motion_is_identity(self):
        cs = reconstruct(DisparityMap(np.full((4, 6), 1, np.int32)))
        zero = MotionField(np.zeros((4, 6), np.float32), np.zeros((4, 6), np.float32))
        out = propagate(cs, zero, zero)
        for name in ("xl", "yl", "xr", "yr"):
            assert np.array_equal(getattr(out, name), getattr(cs, name))

    def test_formula_substitution(self):
        cs = CorrespondenceSet([10], [5], [12], [5])
        mf = MotionField(np.full((8, 16), 2.0, np.float32), np.full((8, 16), 1.0, np.float32))
        out = propagate(cs, mf, mf)
        assert (out.xl[0], out.yl[0]) == (12, 6)
        assert (out.xr[0], out.yr[0]) == (14, 6)
        assert len(out) == 1

    def test_common_translation_preserves_disparity(self):
        dmap = DisparityMap(np.full((6, 12), 3, np.int32))
        cs = reconstruct(dmap)
        mf = MotionField(np.full((6, 12), 3.0, np.float32), np.zeros((6, 12), np.float32))
        out = propagate(cs, mf, mf)
        # pairs whose right pixel moves past x = 11 are dropped: 6 of 9 per row stay
        assert len(out) == 6 * 6
        assert np.array_equal(out.xl, cs.xl[cs.xr < 9] + 3)
        assert np.all(out.xr - out.xl == 3)

    def test_pairs_leaving_the_frame_on_either_side_are_dropped(self):
        # the left side moves 2 px left and the right side 2 px right, in an 8 px row:
        # the first pair leaves on the left, the second on the right
        cs = CorrespondenceSet([1, 3, 4], [2, 2, 2], [3, 6, 5], [2, 2, 2])
        still = np.zeros((4, 8), np.float32)
        mf_left = MotionField(np.full((4, 8), -2.0, np.float32), still)
        mf_right = MotionField(np.full((4, 8), 2.0, np.float32), still)
        out = propagate(cs, mf_left, mf_right)
        assert [out.xl.tolist(), out.yl.tolist(), out.xr.tolist(), out.yr.tolist()] == [
            [2], [2], [7], [2]
        ]

    def test_pair_starting_left_of_the_field_rejected(self):
        # read at x = -1, the motion would wrap to the last column, which moves +3 px
        dx = np.zeros((4, 6), np.float32)
        dx[:, -1] = 3.0
        mf = MotionField(dx, np.zeros((4, 6), np.float32))
        with pytest.raises(ValueError, match="1 of 1 pairs start outside the 4x6 motion field"):
            propagate(CorrespondenceSet([-1], [0], [1], [0]), mf, mf)

    def test_pairs_starting_right_of_or_below_the_field_rejected(self):
        # the second pair's right side starts at x = w, the third pair at y = h
        zero = MotionField(np.zeros((4, 6), np.float32), np.zeros((4, 6), np.float32))
        cs = CorrespondenceSet([0, 2, 0], [0, 1, 4], [1, 6, 0], [0, 1, 4])
        with pytest.raises(ValueError, match="2 of 3 pairs start outside"):
            propagate(cs, zero, zero)


class TestGaussianBlur:
    def test_constant_frame_unchanged(self):
        luma = np.full((6, 7), 102, np.uint8)
        out = gaussian_blur(luma, 1.0, 2)
        assert out.dtype == np.uint8
        assert np.array_equal(out, luma)

    def test_impulse_reproduces_kernel(self):
        frame = np.zeros((9, 9), np.int32)
        frame[4, 4] = 1 << 16
        out = gaussian_blur(frame, 1.0, 2)
        offsets = np.arange(-2, 3)
        taps = np.exp(-(offsets.astype(np.float64) ** 2) / 2.0)
        taps /= taps.sum()
        want = np.outer(taps, taps) * (1 << 16)
        # rounded to whole samples
        assert np.abs(out[2:7, 2:7] - want).max() <= 0.5 + 1e-3
        assert out[0, 0] == 0

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_blur(np.ones((4, 4), np.uint8), sigma, 2)

    @pytest.mark.parametrize("dtype", [np.float32, bool])
    def test_non_integer_samples_rejected_naming_the_dtype(self, dtype):
        with pytest.raises(ValueError, match=f"integer samples, got {np.dtype(dtype)}"):
            gaussian_blur(np.ones((4, 4), dtype), 1.0, 2)

    def test_matches_dense_conv_oracle(self):
        rng = np.random.default_rng(6)
        luma = rng.integers(0, 256, (8, 10), dtype=np.uint8)
        sigma, radius = 1.3, 2
        out = gaussian_blur(luma, sigma, radius)
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        taps = np.exp(-(offsets**2) / (2 * sigma * sigma))
        taps = (taps / taps.sum()).astype(np.float32)
        padded = np.pad(luma.astype(np.float32), radius, mode="edge")
        want = conv_valid(padded, np.outer(taps, taps))
        assert np.abs(out - want).max() <= 0.5 + 1e-3

    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (3, 4), (540, 960)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_sums_each_axis_left_to_right_in_float32(self, shape, radius):
        # the same bits on every CPU: no BLAS call, whose summation order varies
        rng = np.random.default_rng(shape[0] * 10 + radius)
        luma = rng.integers(0, 1 << 16, shape, dtype=np.uint16)
        sigma = 0.6 + 0.4 * radius
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        taps = np.exp(-(offsets**2) / (2 * sigma * sigma))
        taps = (taps / taps.sum()).astype(np.float32)
        want = luma.astype(np.float32)
        for _ in range(2):  # down the columns, then down the transposed rows
            padded = np.pad(want, ((radius, radius), (0, 0)), mode="edge")
            n = want.shape[0]
            acc = padded[0:n] * taps[0]
            for i in range(1, 2 * radius + 1):
                acc = acc + padded[i : i + n] * taps[i]
            want = acc.T
        assert want.dtype == np.float32
        got = gaussian_blur(luma, sigma, radius)
        assert got.dtype == np.uint16
        assert np.array_equal(got, np.rint(want))

    def test_motion_pyramid_bits_are_pinned(self):
        # a BLAS tap sum would give other bits on some CPUs; CI reruns this under two
        # OpenBLAS kernels
        rng = np.random.default_rng(7)
        levels = motion_pyramid(Frame(rng.integers(0, 256, (540, 960), dtype=np.uint8)))
        assert [lv.shape for lv in levels] == [(540, 960), (270, 480), (135, 240)]
        assert [lv.dtype for lv in levels] == [np.int32] * 3
        got = hashlib.sha256(b"".join(lv.tobytes() for lv in levels)).hexdigest()
        assert got == "9cfef7de5fa8ef518d6bbad4890430c33d089437090633ce4b7f22dad1c6e3c2"


def motion(prev, cur):
    return estimate_motion(motion_pyramid(prev), motion_pyramid(cur))


class TestEstimateMotion:
    def test_full_size_flow_is_pinned(self):
        # a 960x540 frame searches 9 bands at level 0; CI reruns this under two
        # OpenBLAS kernels
        base = np.random.default_rng(7).integers(0, 256, (548, 970), dtype=np.uint8)
        prev, cur = Frame(base[4:544, 5:965]), Frame(base[2:542, 8:968])
        f = estimate_motion(motion_pyramid(prev), motion_pyramid(cur))
        got = hashlib.sha256(f.dx.tobytes() + f.dy.tobytes()).hexdigest()
        assert got == "b42bb6d20a91e6e861de23d8f1e43bf32c29f8bad21af92a40e9aa27df89d39e"

    def test_identical_frames_zero_field(self, panorama):
        frame = Frame(panorama[:40, :50].copy())
        mf = motion(frame, frame)
        assert np.all(mf.dx == 0)
        assert np.all(mf.dy == 0)

    def test_translation_recovered_in_interior(self, panorama):
        prev = Frame(panorama[20:68, 30:94].copy())
        cur = Frame(panorama[20:68, 28:92].copy())  # content moves +2 px in x
        mf = motion(prev, cur)
        interior = (slice(8, 40), slice(8, 56))
        assert abs(float(np.median(mf.dx[interior])) - 2.0) <= 0.5
        assert abs(float(np.median(mf.dy[interior]))) <= 0.5

    def test_fields_are_int32(self, panorama):
        mf = motion(Frame(panorama[20:68, 30:94].copy()), Frame(panorama[20:68, 28:92].copy()))
        assert mf.dx.dtype == mf.dy.dtype == np.int32

    def test_field_covers_every_pixel(self, panorama):
        prev = Frame(panorama[:32, :40].copy())
        cur = Frame(panorama[1:33, 2:42].copy())
        mf = motion(prev, cur)
        assert mf.dx.shape == prev.luma.shape
        assert mf.dy.shape == prev.luma.shape

    def test_pyramid_levels(self, panorama):
        # a level is added while the one above halves to at least two blocks
        shapes = [level.shape for level in motion_pyramid(Frame(panorama[:38, :80]))]
        assert shapes == [(38, 80), (19, 40)]
        shapes = [level.shape for level in motion_pyramid(Frame(panorama[:80, :80]))]
        assert shapes == [(80, 80), (40, 40), (20, 20)]

    @pytest.mark.parametrize("other", [(4, 5), (40, 41), (41, 40)])
    def test_pyramid_mismatch_rejected(self, panorama, other):
        pyramid = motion_pyramid(Frame(panorama[:40, :40]))
        with pytest.raises(ValueError, match="pyramids must share"):
            estimate_motion(pyramid, motion_pyramid(Frame(panorama[: other[0], : other[1]])))


class TestRefine:
    def test_exact_init_zero_sad(self, panorama):
        frames, gt = make_sequence(panorama, 1, 48, 64, disparity=4)
        left, right = frames[0]
        out = refine(left, right, gt)
        valid = gt.valid_mask()
        valid[:, -10:] = False  # clamped patches distort the right border
        assert np.all(out.d[valid] == 4)

    def test_off_by_one_init_recovers(self, panorama):
        frames, gt = make_sequence(panorama, 1, 48, 64, disparity=4)
        left, right = frames[0]
        init = DisparityMap(np.where(gt.d >= 0, gt.d + 1, -1))
        out = refine(left, right, init)
        valid = gt.valid_mask()
        valid[:, -10:] = False
        assert np.all(out.d[valid] == 4)

    def test_constant_region_tie_returns_init(self):
        flat = Frame(np.full((10, 20), 128, np.uint8))
        init = DisparityMap(np.full((10, 20), 3, np.int32))
        out = refine(flat, flat, init)
        assert np.all(out.d[:, : 20 - 3] == 3)

    def test_idempotent_at_the_optimum(self, panorama):
        frames, gt = make_sequence(panorama, 1, 48, 64, disparity=4)
        left, right = frames[0]
        once = refine(left, right, gt)
        twice = refine(left, right, once)
        assert np.array_equal(once.d, twice.d)

    def test_invalid_init_widens_search(self, panorama):
        # a hole can still reach disparity 4 via the doubled radius
        frames, gt = make_sequence(panorama, 1, 48, 64, disparity=4)
        left, right = frames[0]
        holes = DisparityMap(np.full((48, 64), INVALID_DISPARITY, np.int32))
        out = refine(left, right, holes)
        valid = gt.valid_mask()
        valid[:, -10:] = False
        assert np.all(out.d[valid] == 4)


class TestTensOfPixels:
    """Refinement on a 192x256 wall at D=16 behind a box at D=48."""

    @pytest.fixture(scope="class")
    def scene(self, panorama):
        return make_two_plane(panorama, 192, 256, 16, 48, box=(40, 60, 150, 170))

    @staticmethod
    def clean(gt):
        # valid pixels whose whole 5x5 block sees one unoccluded surface
        d = gt.d
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(d, 2, mode="edge"), (5, 5))
        return (d >= 0) & (windows == d[:, :, None, None]).all(axis=(-1, -2))

    @pytest.mark.parametrize("offset", [-3, -1, 0, 1, 3])
    def test_init_near_ground_truth(self, scene, offset):
        (left, right), gt = scene
        init = DisparityMap(np.where(gt.d >= 0, gt.d + offset, INVALID_DISPARITY))
        out = refine(left, right, init)
        slow = oracle.refine(left, right, init, ism.BLOCK, ism.REFINE_RADIUS)
        assert np.array_equal(out.d, slow.d)
        if abs(offset) <= 2:
            # the truth is inside the search window: every clean pixel finds it
            clean = self.clean(gt)
            assert set(np.unique(gt.d[clean])) == {16, 48}
            assert np.array_equal(out.d[clean], gt.d[clean])


class TestScatterPairs:
    def test_collision_keeps_larger_disparity(self):
        cs = CorrespondenceSet([2, 2], [1, 1], [4, 6], [1, 1])
        out = scatter_pairs(cs, 3, 8)
        assert out.d[1, 2] == 4  # max(2, 4)

    def test_negative_offset_is_a_hole(self):
        cs = CorrespondenceSet([3, 4, 5], [0, 0, 0], [1, 6, 5], [0, 0, 0])
        assert scatter_pairs(cs, 1, 8).d.tolist() == [[-1, -1, -1, -1, 2, 0, -1, -1]]

    @pytest.mark.parametrize("xl, yl", [(-1, 0), (8, 0), (0, 3), (0, -1)])
    def test_left_pixel_outside_the_frame_rejected(self, xl, yl):
        with pytest.raises(ValueError, match="inside the 3x8 frame"):
            scatter_pairs(CorrespondenceSet([xl], [yl], [xl + 1], [yl]), 3, 8)


class TestIsmRun:
    def test_static_scene_exact_on_valid_region(self, panorama):
        frames, gt = make_sequence(panorama, 4, 64, 96, disparity=4)
        maps = ism_maps(frames, {0: gt, 2: gt})
        valid = gt.valid_mask()
        for m in maps:
            assert np.array_equal(m.d[valid], gt.d[valid])

    def test_fully_valid_static_scene_bitwise_exact(self, panorama):
        # disparity 0 is valid at every pixel, so non-key frames must
        # reproduce the key map exactly, holes and all
        frames, gt = make_sequence(panorama, 4, 48, 64, disparity=0)
        maps = ism_maps(frames, {0: gt, 2: gt})
        for m in maps:
            assert np.array_equal(m.d, gt.d)

    def test_key_frames_emit_their_maps_unchanged(self, panorama):
        # key frames at irregular indices, two of them back to back
        frames, gt = make_sequence(panorama, 9, 48, 64, disparity=4)
        maps = ism_maps(frames, {0: gt, 4: gt, 5: gt, 8: gt})
        for t in (0, 4, 5, 8):
            assert maps[t] is gt

    def test_frame_0_without_a_key_raises_before_any_emit(self, panorama):
        frames, gt = make_sequence(panorama, 3, 48, 64, disparity=4)
        emitted = []
        with pytest.raises(ValueError, match="frame 0 needs a key disparity"):
            ism_run([(left, right, None if t == 0 else gt)
                     for t, (left, right) in enumerate(frames)], emitted.append)
        assert emitted == []

    def test_each_map_is_emitted_before_the_next_frame_is_taken(self, panorama):
        # the streaming contract: a frame's map leaves before the next frame is read
        frames, gt = make_sequence(panorama, 5, 48, 64, disparity=4, motion=(1, 2))
        events = []

        def stream():
            for t, (left, right) in enumerate(frames):
                events.append("take")
                yield left, right, gt if t % 4 == 0 else None

        ism_run(stream(), lambda dmap: events.append("emit"))
        assert events == ["take", "emit"] * 5

    def test_moving_scene_stays_close(self, panorama):
        frames, gt = make_sequence(panorama, 6, 96, 128, disparity=4, motion=(1, 2))
        maps = ism_maps(frames, {t: gt for t in (0, 2, 4)})
        for m in maps:
            assert three_pixel_error(m, gt) >= 98.0

    def test_one_motion_pyramid_per_frame_and_view(self, panorama, monkeypatch):
        # key, three propagated frames, two back-to-back keys: frames 0-3 each blur one
        # 3-level pyramid per view, and the last two key frames none
        frames, gt = make_sequence(panorama, 6, 48, 64, disparity=4, motion=(1, 2))
        blurred = []
        blur = ism.gaussian_blur

        def counting_blur(luma, sigma, radius):
            blurred.append(luma.shape)
            return blur(luma, sigma, radius)

        monkeypatch.setattr(ism, "gaussian_blur", counting_blur)
        ism_maps(frames, {0: gt, 4: gt, 5: gt})
        assert blurred == [(48, 64), (24, 32), (12, 16)] * 8

    def test_moving_two_plane_scene_keeps_a_floor(self, panorama):
        # a D=16 wall whose window pans (1, 2) px per frame behind a D=48 box moving
        # (0, 4) px: the box uncovers and hides wall, and the scattered guess has holes
        frames, truths = make_two_plane_sequence(
            panorama, 5, 192, 256, 16, 48, (40, 60, 150, 170), (1, 2), (0, 4))
        maps = ism_maps(frames, {0: truths[0], 4: truths[4]})
        scores = [three_pixel_error(m, gt) for m, gt in zip(maps, truths)]
        # each propagated frame loses a few points to wrong motion vectors, which put
        # pairs more than the search radius off (95.8, 92.1 and 88.2 % here)
        assert min(scores[1:4]) >= 85.0
        assert scores[1] >= 95.0

    def test_moving_two_plane_scene_output_is_pinned(self, panorama):
        # `test_moving_two_plane_scene_keeps_a_floor`'s run: any change to the
        # blur, the motion search or the refinement moves these bits
        frames, truths = make_two_plane_sequence(
            panorama, 5, 192, 256, 16, 48, (40, 60, 150, 170), (1, 2), (0, 4))
        maps = ism_maps(frames, {0: truths[0], 4: truths[4]})
        got = hashlib.sha256(b"".join(m.d.tobytes() for m in maps)).hexdigest()
        assert got == "9a5570f8c4ef68aac35306dc34d2d76a2ca0e72e42b45e9e6f25249699128a19"

    # a box approaching the camera over a still D=8 wall: its disparity grows from 20
    # by 1, 2 or 3 px per frame, so each pair's two sides move apart. Floors are the
    # scores of the two-flow propagation that first ran this scene
    APPROACHING = {1: (99.99, 99.94, 99.90), 2: (99.22, 98.62, 98.06), 3: (99.45, 98.88, 98.30)}

    @pytest.fixture(scope="class")
    def approaching(self, panorama):
        """Each growth's emitted maps and ground truths."""
        runs = {}
        for growth in self.APPROACHING:
            frames, truths = make_approaching_sequence(
                panorama, 5, 120, 240, 8, 20, (30, 60, 90, 150), growth)
            runs[growth] = ism_maps(frames, {0: truths[0], 4: truths[4]}), truths
        return runs

    @pytest.mark.parametrize("growth", sorted(APPROACHING))
    def test_approaching_box_keeps_per_frame_floors(self, approaching, growth):
        maps, truths = approaching[growth]
        scores = [three_pixel_error(m, gt) for m, gt in zip(maps, truths)]
        for score, floor in zip(scores[1:4], self.APPROACHING[growth]):
            assert score >= floor

    def test_approaching_box_output_is_pinned(self, approaching):
        # the maps of all three growths: a scene with depth change, pinned as the
        # moving two-plane scene is
        got = hashlib.sha256()
        for growth in sorted(approaching):
            got.update(b"".join(m.d.tobytes() for m in approaching[growth][0]))
        assert got.hexdigest() == "d5701a765788d440e29dbe79e508ee95e7618c2433c0a5a846e0140b09eb16ad"

    def test_operation_count_order_of_magnitude(self):
        ops = nonkey_operation_count(960, 540)
        assert 87e6 / 10 <= ops <= 87e6 * 10


class TestThreePixelError:
    def test_perfect_prediction(self):
        gt = DisparityMap(np.full((4, 8), 2, np.int32))
        assert three_pixel_error(gt, gt) == 100.0

    def test_boundary_is_strict(self):
        gt = DisparityMap(np.zeros((4, 8), np.int32))
        pred = DisparityMap(np.full((4, 8), 3, np.int32))
        assert three_pixel_error(pred, gt) == 0.0

    def test_half_wrong(self):
        gt = DisparityMap(np.zeros((2, 8), np.int32))
        d = np.zeros((2, 8), np.int32)
        d[1, :] = 10
        assert three_pixel_error(DisparityMap(d), gt) == 50.0

    def test_symmetry_for_fully_valid_maps(self):
        rng = np.random.default_rng(5)
        xs = np.arange(20)[None, :]
        a = np.minimum(rng.integers(0, 4, (6, 20)), 19 - xs).astype(np.int32)
        b = np.minimum(rng.integers(0, 4, (6, 20)), 19 - xs).astype(np.int32)
        a_map, b_map = DisparityMap(a), DisparityMap(b)
        assert a_map.valid_mask().all() and b_map.valid_mask().all()
        assert three_pixel_error(a_map, b_map) == three_pixel_error(b_map, a_map)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            three_pixel_error(
                DisparityMap(np.zeros((2, 2), np.int32)),
                DisparityMap(np.zeros((2, 3), np.int32)),
            )
