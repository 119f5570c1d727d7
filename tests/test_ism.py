import numpy as np
import pytest

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
    nonkey_operation_count,
    propagate,
    reconstruct,
    refine,
    scatter_pairs,
    three_pixel_error,
    triangulate,
)
from svopt.tensor import ConvMode, Tensor, conv_valid
import ism_oracle as oracle
from conftest import make_sequence, make_two_plane

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


class TestPropagate:
    def test_zero_motion_is_identity(self):
        cs = reconstruct(DisparityMap(np.full((4, 6), 1, np.int32)))
        zero = MotionField.zero(4, 6)
        out = propagate(cs, zero, zero)
        assert out == CorrespondenceSet(cs.xl, cs.yl, cs.xr, cs.yr, cs.stale)

    def test_formula_substitution(self):
        cs = CorrespondenceSet([10], [5], [12], [5])
        mf = MotionField(np.full((8, 16), 2.0, np.float32), np.full((8, 16), 1.0, np.float32))
        out = propagate(cs, mf, mf)
        assert (out.xl[0], out.yl[0]) == (12, 6)
        assert (out.xr[0], out.yr[0]) == (14, 6)
        assert not out.stale[0]

    def test_common_translation_preserves_disparity(self):
        dmap = DisparityMap(np.full((6, 12), 3, np.int32))
        cs = reconstruct(dmap)
        mf = MotionField(np.full((6, 12), 3.0, np.float32), np.zeros((6, 12), np.float32))
        out = propagate(cs, mf, mf)
        live = ~out.stale
        assert np.all((out.xr - out.xl)[live] == (cs.xr - cs.xl)[live])

    def test_out_of_frame_marked_stale(self):
        cs = CorrespondenceSet([5], [2], [7], [2])
        push = MotionField(np.full((4, 8), 6.0, np.float32), np.zeros((4, 8), np.float32))
        out = propagate(cs, push, push)
        assert out.stale[0]
        assert out.xl[0] <= 7  # clipped into frame


class TestGaussianBlur:
    def test_constant_frame_unchanged(self):
        frame = Frame(np.full((6, 7), 0.4, np.float32))
        out = gaussian_blur(frame, 1.0, 2)
        assert np.allclose(out.luma, 0.4, atol=1e-6)

    def test_impulse_reproduces_kernel(self):
        frame = np.zeros((9, 9), np.float32)
        frame[4, 4] = 1.0
        out = gaussian_blur(Frame(frame), 1.0, 2).luma
        offsets = np.arange(-2, 3)
        taps = np.exp(-(offsets.astype(np.float64) ** 2) / 2.0)
        taps /= taps.sum()
        want = np.outer(taps, taps)
        assert np.allclose(out[2:7, 2:7], want, atol=1e-6)
        assert out[0, 0] == 0.0

    def test_matches_dense_conv_oracle(self):
        rng = np.random.default_rng(6)
        luma = rng.random((8, 10)).astype(np.float32)
        sigma, radius = 1.3, 2
        out = gaussian_blur(Frame(luma), sigma, radius).luma
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        taps = np.exp(-(offsets**2) / (2 * sigma * sigma))
        taps = (taps / taps.sum()).astype(np.float32)
        padded = np.pad(luma, radius, mode="edge")
        want = conv_valid(
            Tensor(padded), Tensor(np.outer(taps, taps)), ConvMode.DOT
        ).array
        assert np.allclose(out, want, atol=1e-5)


class TestEstimateMotion:
    def test_identical_frames_zero_field(self, panorama):
        frame = Frame(panorama[:40, :50].copy())
        mf = estimate_motion(frame, frame)
        assert np.all(mf.dx == 0)
        assert np.all(mf.dy == 0)

    def test_translation_recovered_in_interior(self, panorama):
        prev = Frame(panorama[20:68, 30:94].copy())
        cur = Frame(panorama[20:68, 28:92].copy())  # content moves +2 px in x
        mf = estimate_motion(prev, cur)
        interior = (slice(8, 40), slice(8, 56))
        assert abs(float(np.median(mf.dx[interior])) - 2.0) <= 0.5
        assert abs(float(np.median(mf.dy[interior]))) <= 0.5

    def test_field_covers_every_pixel(self, panorama):
        prev = Frame(panorama[:32, :40].copy())
        cur = Frame(panorama[1:33, 2:42].copy())
        mf = estimate_motion(prev, cur)
        assert mf.dx.shape == prev.luma.shape
        assert mf.dy.shape == prev.luma.shape

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_motion(Frame(np.zeros((4, 4))), Frame(np.zeros((4, 5))))


class TestRefine:
    def test_exact_init_zero_sad(self, panorama):
        frames, gt = make_sequence(panorama, 1, 48, 64, disparity=4)
        left, right = frames[0]
        out = refine(left, right, gt, 5, 2)
        valid = gt.valid_mask()
        valid[:, -10:] = False  # clamped patches distort the right border
        assert np.all(out.d[valid] == 4)

    def test_off_by_one_init_recovers(self, panorama):
        frames, gt = make_sequence(panorama, 1, 48, 64, disparity=4)
        left, right = frames[0]
        init = DisparityMap(np.where(gt.d >= 0, gt.d + 1, -1))
        out = refine(left, right, init, 5, 2)
        valid = gt.valid_mask()
        valid[:, -10:] = False
        assert np.all(out.d[valid] == 4)

    def test_constant_region_tie_returns_init(self):
        flat = Frame(np.full((10, 20), 0.5, np.float32))
        init = DisparityMap(np.full((10, 20), 3, np.int32))
        out = refine(flat, flat, init, 5, 2)
        assert np.all(out.d[:, : 20 - 3] == 3)

    def test_idempotent_at_the_optimum(self, panorama):
        frames, gt = make_sequence(panorama, 1, 48, 64, disparity=4)
        left, right = frames[0]
        once = refine(left, right, gt, 5, 2)
        twice = refine(left, right, once, 5, 2)
        assert np.array_equal(once.d, twice.d)

    def test_invalid_init_widens_search(self, panorama):
        # a hole can still reach disparity 4 via the doubled radius
        frames, gt = make_sequence(panorama, 1, 48, 64, disparity=4)
        left, right = frames[0]
        holes = DisparityMap(np.full((48, 64), INVALID_DISPARITY, np.int32))
        out = refine(left, right, holes, 5, 2)
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
        out = refine(left, right, init, 5, 2)
        assert np.array_equal(out.d, oracle.refine(left, right, init, 5, 2).d)
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

    def test_stale_pairs_dropped(self):
        cs = CorrespondenceSet([2], [1], [5], [1], stale=[True])
        out = scatter_pairs(cs, 3, 8)
        assert out.d[1, 2] == INVALID_DISPARITY


class TestIsmRun:
    def test_static_scene_exact_on_valid_region(self, panorama):
        frames, gt = make_sequence(panorama, 4, 64, 96, disparity=4)
        maps = ism_run(frames, {0: gt, 2: gt}, 2)
        valid = gt.valid_mask()
        for m in maps:
            assert np.array_equal(m.d[valid], gt.d[valid])

    def test_fully_valid_static_scene_bitwise_exact(self, panorama):
        # disparity 0 is valid at every pixel, so non-key frames must
        # reproduce the key map exactly, holes and all
        frames, gt = make_sequence(panorama, 4, 48, 64, disparity=0)
        maps = ism_run(frames, {0: gt, 2: gt}, 2)
        for m in maps:
            assert np.array_equal(m.d, gt.d)

    def test_pw4_key_frame_indices(self, panorama):
        frames, gt = make_sequence(panorama, 9, 48, 64, disparity=4)
        with pytest.raises(ValueError, match="missing key disparity"):
            ism_run(frames, {0: gt, 4: gt}, 4)  # frame 8 is a key frame too
        maps = ism_run(frames, {0: gt, 4: gt, 8: gt}, 4)
        for t in (0, 4, 8):
            assert maps[t] is gt

    def test_moving_scene_stays_close(self, panorama):
        frames, gt = make_sequence(panorama, 6, 96, 128, disparity=4, motion=(1, 2))
        maps = ism_run(frames, {t: gt for t in (0, 2, 4)}, 2)
        for m in maps:
            assert three_pixel_error(m, gt) >= 98.0

    def test_pw_below_two_rejected(self, panorama):
        frames, gt = make_sequence(panorama, 2, 48, 64, disparity=4)
        with pytest.raises(ValueError):
            ism_run(frames, {0: gt}, 1)

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
