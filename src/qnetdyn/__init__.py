"""Simulation and analysis toolkit for small quantum recurrent networks.

The package builds unitary neural maps for n-neuron, l-level networks,
iterates them as discrete-time dynamical systems, and analyzes the
resulting trajectories: mean-field observables, reduced-state entropy,
recurrence quantification, and spectral structure.  The names imported
below are the public API.
"""

from .linalg import (
    CONSTRUCTION_TOL,
    DRIFT_TOL,
    MAX_DIMENSION,
    DimensionError,
    as_state,
    basis_state,
    check_hermitian,
    check_unitary,
    digits_to_flat,
    flat_to_digits,
    hermitian_eigenvalues,
    identity,
    norm,
    partial_trace_keep_site,
    projector,
    tensor_chain,
    tensor_product,
    uniform_state,
)
from .network import (
    ActivationOrder,
    ConditionalGateSpec,
    NetworkTopology,
    QRNNParams,
    UnitaryNeuralMap,
    build_conditional_gate,
    build_qrnn_map,
    compose_neural_map,
    qrnn_rotation,
    qrnn_topology,
    run_trajectory,
)
from .fields import (
    FieldSpec,
    MeanFieldTrajectory,
    activity_amplitude_sum,
    activity_mean_field,
    build_field_operator,
    heisenberg_evolve,
    neural_activity_operator,
    quantum_average,
)
from .entropy import (
    CLIP_TOL,
    EntropyStats,
    EntropyTrajectory,
    clip_spectrum,
    entropy_observer,
    entropy_stats,
    site_entropies,
    von_neumann_entropy,
)
from .rqa import (
    KERNEL_BACKEND,
    DiagonalProfile,
    LineDistanceHistogram,
    RecurrenceStats,
    check_radii,
    diagonal_profile,
    diagonal_profiles,
    full_recurrence_line_gaps,
    full_recurrence_offsets,
    pearson_correlation,
    recurrence_stats,
    render_recurrence_plot,
)
from .spectral import (
    Periodogram,
    loglog_slope,
    power_spectrum,
    prominent_peaks,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    initial_state_vector,
    load_config,
    load_preset,
    parse_config,
    preset_names,
)

__version__ = "0.1.0"

from .experiment import RunManifest, run_experiment, run_sweep  # noqa: E402
