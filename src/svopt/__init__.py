"""Deconvolution-to-convolution transformation, systolic-array schedule
optimization, and stereo correspondence propagation."""

from .tensor import ShapeError, conv_valid, deconv_reference, redundant_mac_fraction, \
    upsample_zero
from .deconv import SubKernel, SubKernelSet, decompose_nd, gather, transform_multiply_count, \
    transformed_deconv
from .perfmodel import (
    HardwareConfig,
    InfeasibleScheduleError,
    LatencyReport,
    LayerKind,
    LayerSpec,
    RoundPlan,
    RoundPricer,
    RoundTerms,
    TileSchedule,
    dense_equivalent,
    total_latency,
)
from .scheduler import ScheduleMode, pack_round, solve
from .ism import (
    CameraRig,
    CorrespondenceSet,
    DisparityMap,
    Frame,
    MotionField,
    estimate_motion,
    gaussian_blur,
    ism_run,
    motion_pyramid,
    propagate,
    reconstruct,
    refine,
    three_pixel_error,
    triangulate,
)

__version__ = "0.1.0"
