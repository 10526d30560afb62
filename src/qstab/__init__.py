"""qstab: stability certificates and simulation for quantum stochastic flows.

The library computes drift and noise coefficients of operator-valued
Lyapunov functions along single-channel quantum stochastic dynamics (both
the observable flow and the stochastic density operator), turns the
local/asymptotic/exponential stability conditions into decidable sampled
operator-inequality checks, and validates the algebra against a
repeated-interaction discretization plus an exact master-equation oracle.
"""

from .certify import (
    ChebyshevBound,
    DirectionFamily,
    HermitianBall,
    LevelSetSpec,
    RateEstimate,
    StabilityCertificate,
    chebyshev_bound,
    check_asymptotic,
    check_exponential,
    check_local,
    check_state,
    estimate_max_rate,
    recheck_witness,
    sample_level_set,
)
from .errors import (
    DegeneratePencilError,
    DimensionMismatchError,
    FileFormatError,
    InternalCheckError,
    InvalidCandidateError,
    InvalidModelError,
    InvalidOperatorError,
    InvalidStateError,
    NonHermitianError,
    QstabError,
    SamplingError,
    UnsupportedScatteringError,
)
from .evolve import (
    CollisionConfig,
    DriftCheckReport,
    EnvelopeReport,
    ItoTableReport,
    Trajectory,
    TransitReport,
    collision_step_unitary,
    envelope_check,
    exit_time_estimate,
    finite_difference_drift_check,
    ito_table_check,
    liouvillian_matrix,
    master_evolve,
    master_flow_expectation,
    simulate_flow_expectation,
    transit_time_check,
)
from .fock import exponential_inner_tail_bound, exponential_vector, ladder_operators, vacuum_vector
from .lyapunov import (
    DEGREE_BOUND,
    ItoCoefficients,
    LyapunovCandidate,
    canonicalize,
    evaluate,
    flow_ito_coefficients,
    state_ito_coefficients,
)
from .models import (
    ModelDiagnostics,
    NoiseCoefficients,
    QsdeModel,
    diagnose,
    equilibrium_residual,
    flow_generator,
    flow_noise_coefficients,
    state_generator,
    state_noise_coefficients,
    validate,
)
from .operators import (
    DEFAULT_TOL,
    QuantumState,
    adjoint,
    anticommutator,
    as_operator,
    commutator,
    expectation,
    hermitian_eigenvalues,
    hermiticity_defect,
    hermitize,
    spectral_norm,
)

__version__ = "0.1.0"
