"""Guided-diffusion inverse kinematics from 3-point rotation/location sensors."""

from .skeleton import (
    Skeleton,
    PoseSequence,
    build_skeleton,
    default_skeleton,
    forward_kinematics,
    scale_skeleton,
    recover_root_translation,
    SMPL_PARENTS,
    MEASURED_JOINTS,
)
from .rot6d import (
    to_sixdof,
    batch_from_sixdof,
    geodesic_angle,
    DegenerateRotationError,
)
from .measurement import (
    MeasurementSet,
    LinearOperatorA,
    build_A,
    differential_transform,
    extract_measurements,
)
from .uncertainty import (
    sigma_matrix,
    monte_carlo_pushforward,
    sylvester_minors,
    verify_pushforward,
)
from .sampler import (
    Schedule,
    GuidanceConfig,
    make_schedule,
    likelihood_score,
    ddim_step,
    run_guided_inference,
)
from .denoiser import (
    DenoiserInterface,
    OracleDenoiser,
    MLPDenoiser,
    TrainConfig,
    train_denoiser,
)
from .datagen import (
    MotionSpec,
    BenchmarkManifest,
    BenchmarkCell,
    generate_motion,
    scale_ground_truth,
    save_sequence,
    load_sequence,
)
from . import metrics

__version__ = "0.1.0"
