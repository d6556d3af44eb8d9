"""Pinching-antenna system simulation, localization, and bounds.

The package synthesizes pilot measurements for pinching-antenna
deployments (subarrays of radiating points along dielectric waveguides),
jointly localizes the user and scatterers from per-subarray direction
estimates, reconstructs the wireless channel from the recovered
geometry, and evaluates the bearing-fusion Cramer-Rao bound for
placement studies.
"""

from .geometry import (
    ArrayLayout,
    LayoutError,
    Scene,
    ServiceRegion,
    SingularGeometryError,
    Structure,
    SubarrayGeometry,
    build_mw_layout,
    build_sw_layout,
    custom_layout,
    pa_user_distance,
    sample_scene,
)
from .channel import (
    ActivationSchedule,
    MeasurementSet,
    RadioConfig,
    channel_vector,
    load_measurement_set,
    make_schedule,
    measure,
    path_vector,
    save_measurement_set,
    synthesize_paths,
    waveguide_vector,
)
from .dictionary import (
    AngleGrid,
    DpDictionary,
    build_dp_dictionary,
    build_polar_dictionary,
    default_polar_rings,
    mutual_coherence,
    parameterized_distance,
    project_dictionary,
)
from .estimator import (
    DirectionEstimate,
    EstimationResult,
    EstimatorConfig,
    PathEstimateResult,
    SignVector,
    omp_direction,
    projection_matrix,
    reconstruct_channel,
    resolve_signs,
    run_omp_gcl,
    run_polar_baseline,
    solve_position_3d,
    solve_position_ls,
)
from .crlb import (
    CrlbReport,
    calibrate_bearing_sigma,
    crlb_bound,
    crlb_heatmap,
    diversity_score,
    fisher_information,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    TrialRecord,
    nmse,
    rmse,
    run_sweep,
    run_trial,
    to_db,
)

__version__ = "0.1.0"
