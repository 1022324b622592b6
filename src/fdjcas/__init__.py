"""Full-duplex joint communications and sensing simulator with a near-field
reconfigurable surface: channel synthesis, alternating beamforming/phase
optimization under power and angle-accuracy constraints, and subspace-based
estimation studies."""

from .channels import ChannelSet, build_channel_set, farfield_los, nearfield_los
from .crb import UnobservableError, aoa_crb
from .estimation import SnapshotBatch, music_estimate, simulate_snapshots
from .experiments import (
    SCHEMES,
    ExperimentConfig,
    emit_outputs,
    load_config,
    monte_carlo_mse,
    run_scheme,
)
from .geometry import (
    InfeasibleGeometryError,
    RisAngles,
    Scene,
    build_scene,
    pairwise_distances,
    ris_angles_of_point,
    ris_angles_of_target,
    ris_phase_derivatives,
)
from .optimizer import (
    CrbInfeasibleError,
    IterationTrace,
    JcasConfig,
    JcasResult,
    dl_rate,
    dominant_precoder,
    effective_channel,
    jcas_optimize,
    mm_step,
    mmse_combiner,
    mse_matrix,
    precoder_update,
    ris_optimize,
    ris_quadratics,
    si_channel,
    weight_matrix,
)
from .steering import (
    PathCoefficients,
    SensingContext,
    build_sensing_context,
    path_matrix,
    path_matrix_derivative,
    steering_set,
    ula_steering,
    ula_steering_derivative,
    upa_steering,
    upa_steering_derivative,
)

__version__ = "0.1.0"
